// Checked numeric arguments for lapclique_cli and lapclique_serve.
//
// std::atoi and friends turn junk into 0 and wrap negatives, so a mistyped
// flag would silently run with a different configuration.  Both tools parse
// every integer argument here instead, and exit 2 on the message.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace lapclique::tools {

/// `text` as an integer in [lo, hi].  Throws std::invalid_argument, with a
/// message that starts with `what`, on junk, trailing characters, or a value
/// out of range (an integer outside int64 included).
inline std::int64_t arg_int(const char* what, const char* text, std::int64_t lo,
                            std::int64_t hi) {
  const auto out_of_range = [&] {
    return std::invalid_argument(std::string(what) + ": " + text + " out of range [" +
                                 std::to_string(lo) + ", " + std::to_string(hi) + "]");
  };
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::out_of_range&) {
    throw out_of_range();
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string(what) + ": expected an integer, got '" +
                                text + "'");
  }
  if (pos != std::strlen(text)) {
    throw std::invalid_argument(std::string(what) + ": trailing junk in '" + text +
                                "'");
  }
  if (v < lo || v > hi) throw out_of_range();
  return v;
}

}  // namespace lapclique::tools

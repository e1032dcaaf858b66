// A retrying line-protocol client for the lapclique_serve socket frontend.
//
// Client::call sends one request line and waits for one complete response
// line.  Transport failures — connect refused, reset, EOF before the
// response newline (a truncated line is DISCARDED, never returned) — are
// retried with bounded exponential backoff on a fresh connection.  This is
// sound because every serve op is idempotent: graph.load is last-write-wins
// on identical bytes, compute ops are pure, cache ops are monotone; the
// server's fault suite leans on exactly this to prove completed responses
// stay byte-identical while sock-* faults chew on the transport.
//
// What is NOT retried: a complete response line, even when it carries an
// error (e.g. "overloaded" — the retry_after_ms hint is the CALLER's
// decision to honor, a policy choice this transport-level client does not
// make).
//
// Thread-compatibility: one Client per thread; call() is strictly serial
// (one request in flight per connection, matching the one-line-in/
// one-line-out protocol).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace lapclique::serve {

struct ClientOptions {
  int max_attempts = 8;          ///< total tries per call (>= 1)
  int backoff_initial_ms = 5;    ///< first retry delay; doubles per retry
  int backoff_max_ms = 200;      ///< backoff ceiling
};

class Client {
 public:
  /// Connects lazily on the first call(); `port` is a 127.0.0.1 frontend.
  explicit Client(int port, ClientOptions opt = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send `request_line` (newline appended), return the response line
  /// (newline stripped).  Throws std::runtime_error when every attempt
  /// exhausts (server down or unreachable past the backoff budget).
  [[nodiscard]] std::string call(const std::string& request_line);

 private:
  bool ensure_connected();
  void disconnect();
  std::optional<std::string> attempt(const std::string& line);

  int port_;
  ClientOptions opt_;
  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace lapclique::serve

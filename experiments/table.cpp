#include "table.hpp"

#include <cstdio>

namespace lapclique::experiments {

namespace {

void append_row(std::string& out, const std::vector<std::string>& cells) {
  out += '|';
  for (const std::string& c : cells) out += ' ' + c + " |";
  out += '\n';
}

std::string printf_cell(const char* fmt, int precision, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, precision, v);
  return buf;
}

}  // namespace

std::string to_markdown(const Table& t) {
  std::string out = t.title + "\n\n";
  append_row(out, t.columns);
  append_row(out, std::vector<std::string>(t.columns.size(), "---"));
  for (const std::vector<std::string>& row : t.rows) append_row(out, row);
  return out;
}

std::string to_marked_block(const Table& t) {
  return "<!-- table " + t.id + " -->\n" + to_markdown(t) + "<!-- /table -->\n";
}

std::string cell(std::int64_t v) { return std::to_string(v); }

std::string fixed(double v, int decimals) { return printf_cell("%.*f", decimals, v); }

std::string sci(double v, int digits) { return printf_cell("%.*e", digits, v); }

std::string yes(bool ok) { return ok ? "yes" : "NO"; }

}  // namespace lapclique::experiments

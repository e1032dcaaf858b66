#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lapclique::obs::json {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::logic_error(std::string("json::Value: not a ") + want);
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) type_error("bool");
  return bool_;
}

std::int64_t Value::as_int() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
  type_error("int");
}

double Value::as_double() const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  type_error("double");
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) type_error("string");
  return string_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) type_error("array");
  return array_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::kObject) type_error("object");
  return object_;
}

const Value& Value::at(const std::string& key) const {
  return as_object().at(key);
}

bool Value::contains(const std::string& key) const {
  return kind_ == Kind::kObject && object_.count(key) > 0;
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kInt: return int_ == other.int_;
    case Kind::kDouble: return double_ == other.double_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object_ == other.object_;
  }
  return false;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        out += "null";  // JSON has no Inf/NaN
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      break;
    }
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& v : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        append_escaped(out, k);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        v.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Value::dump_pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument(std::string("json parse error at offset ") +
                                std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': s.push_back('"'); break;
          case '\\': s.push_back('\\'); break;
          case '/': s.push_back('/'); break;
          case 'n': s.push_back('\n'); break;
          case 't': s.push_back('\t'); break;
          case 'r': s.push_back('\r'); break;
          case 'b': s.push_back('\b'); break;
          case 'f': s.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // The exporter only emits \u00xx control escapes; decode the
            // Latin-1 range and refuse anything needing surrogate handling.
            if (code > 0xFF) fail("unsupported \\u escape > 0xFF");
            s.push_back(static_cast<char>(code));
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        s.push_back(c);
      }
    }
    return s;
  }

  /// One number token, parsed by a single std::from_chars call that must
  /// consume all of it and stay in range: an integer when it has no
  /// fraction or exponent and fits an int64, else a double.
  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(first, last, i);
      if (ec == std::errc() && p == last) return Value(i);
    }
    double d = 0;
    const auto [p, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || p != last) {
      pos_ = start;
      fail("bad number");
    }
    return Value(d);
  }

  Value parse_object() {
    ++pos_;
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    ++pos_;
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Each level is one recursion; bound it before it exhausts the stack.
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value();
    return parse_number();
  }

  /// Deepest array/object nesting accepted: far above the deepest document
  /// the repo writes (a CLI trace nests 9 levels, a serve request 3).
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace lapclique::obs::json

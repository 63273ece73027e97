#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace openei::common {

bool Json::as_bool() const {
  OPENEI_CHECK(is_bool(), "JSON value is not a bool");
  return *std::get_if<bool>(&value_);
}

double Json::as_number() const {
  OPENEI_CHECK(is_number(), "JSON value is not a number");
  return *std::get_if<double>(&value_);
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
  OPENEI_CHECK(is_string(), "JSON value is not a string");
  return *std::get_if<std::string>(&value_);
}

const JsonArray& Json::as_array() const {
  OPENEI_CHECK(is_array(), "JSON value is not an array");
  return *std::get_if<JsonArray>(&value_);
}

JsonArray& Json::as_array() {
  OPENEI_CHECK(is_array(), "JSON value is not an array");
  return *std::get_if<JsonArray>(&value_);
}

const JsonObject& Json::as_object() const {
  OPENEI_CHECK(is_object(), "JSON value is not an object");
  return *std::get_if<JsonObject>(&value_);
}

JsonObject& Json::as_object() {
  OPENEI_CHECK(is_object(), "JSON value is not an object");
  return *std::get_if<JsonObject>(&value_);
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) throw NotFound("JSON object has no key '" + std::string(key) + "'");
  return *value;
}

void Json::set(std::string key, Json value) {
  OPENEI_CHECK(is_object() || is_null(), "set() on non-object JSON value");
  if (is_null()) value_ = JsonObject{};
  JsonObject& object = as_object();
  for (auto& [name, existing] : object) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  object.emplace_back(std::move(key), std::move(value));
}

const Json& Json::at(std::size_t index) const {
  const JsonArray& array = as_array();
  OPENEI_CHECK(index < array.size(), "JSON array index ", index, " out of range ",
               array.size());
  return array[index];
}

bool Json::operator==(const Json& other) const { return value_ == other.value_; }

namespace {

void write_escaped(std::string& out, const std::string& text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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

void write_number(std::string& out, double value) {
  if (std::isnan(value) || std::isinf(value)) {
    // JSON has no NaN/Inf; serialize as null per common lenient convention.
    out += "null";
    return;
  }
  double rounded = std::round(value);
  if (rounded == value && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(rounded));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  }
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += as_bool() ? "true" : "false"; return;
    case Type::kNumber: write_number(out, as_number()); return;
    case Type::kString: write_escaped(out, as_string()); return;
    case Type::kArray: {
      const JsonArray& array = as_array();
      if (array.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out.push_back(',');
        indent_to(out, indent, depth + 1);
        array[i].write(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      const JsonObject& object = as_object();
      if (object.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out.push_back(',');
        indent_to(out, indent, depth + 1);
        write_escaped(out, object[i].first);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        object[i].second.write(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, /*indent=*/2, /*depth=*/0);
  return out;
}

namespace {

class Parser {
 public:
  // Nesting bound: the parser is recursive, so hostile inputs like
  // "[[[[..." must hit a ParseError long before the call stack does.
  static constexpr int kMaxDepth = 192;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("expected '" + std::string(literal) + "'");
    }
    pos_ += literal.size();
  }

  Json parse_value() {
    skip_ws();
    if (depth_ >= kMaxDepth) fail("JSON nesting too deep");
    ++depth_;
    Json value = [&] {
      char c = peek();
      switch (c) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': return Json(parse_string());
        case 't': expect("true"); return Json(true);
        case 'f': expect("false"); return Json(false);
        case 'n': expect("null"); return Json(nullptr);
        default: return Json(parse_number());
      }
    }();
    --depth_;
    return value;
  }

  Json parse_object() {
    expect("{");
    JsonObject object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(":");
      object.emplace_back(std::move(key), parse_value());
      skip_ws();
      char c = next();
      if (c == '}') return Json(std::move(object));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect("[");
    JsonArray array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    // A leading run of numbers (a weight tensor, an input row) collects in
    // the reused numbers_ buffer, so its array is allocated once at full
    // size.  Anything else falls through to the general loop.
    numbers_.clear();
    bool closed = false;
    while (!closed && depth_ < kMaxDepth &&
           (peek() == '-' || (peek() >= '0' && peek() <= '9'))) {
      numbers_.push_back(parse_number());
      skip_ws();
      char c = next();
      if (c == ']') closed = true;
      else if (c != ',') fail("expected ',' or ']' in array");
      skip_ws();
    }
    array.reserve(numbers_.size());
    for (double number : numbers_) array.emplace_back(number);
    if (closed) return Json(std::move(array));
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') return Json(std::move(array));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect("\"");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs unsupported —
          // sufficient for OpenEI's ASCII-centric metadata).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  double parse_number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool any_digit = false;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      any_digit = true;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any_digit = true;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (!any_digit) fail("invalid number");
    // from_chars rounds correctly, like strtod, but needs no NUL-terminated
    // copy.  It must consume the whole token ("1e" is not a number).
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    auto [end, error] = std::from_chars(first, last, value);
    if (end != last) fail("invalid number");
    // Out of range leaves `value` untouched; strtod gives +-inf on overflow
    // and the nearest subnormal or zero on underflow.
    if (error == std::errc::result_out_of_range) {
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::vector<double> numbers_;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace openei::common

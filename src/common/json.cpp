#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace st::json {

namespace {

[[noreturn]] void fail(std::string_view what) {
  throw ParseError("json: " + std::string(what));
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
  } else if (code_point < 0x800) {
    out += static_cast<char>(0xC0 | (code_point >> 6));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else if (code_point < 0x10000) {
    out += static_cast<char>(0xE0 | (code_point >> 12));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code_point >> 18));
    out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    skip_whitespace();
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_whitespace() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxParseDepth) {
      fail("nesting too deep");
    }
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value::string(parse_string());
      case 't':
        expect_literal("true");
        return Value::boolean(true);
      case 'f':
        expect_literal("false");
        return Value::boolean(false);
      case 'n':
        expect_literal("null");
        return Value::null();
      default:
        return parse_number();
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    std::vector<Value::Member> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value::object();
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == '}') {
        return Value::object(std::move(members));
      }
      if (c != ',') {
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Value out = Value::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_whitespace();
      out.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == ']') {
        return out;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = take();
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point < 0xDC00) {
            // High surrogate: a low surrogate escape must follow.
            if (take() != '\\' || take() != 'u') {
              fail("unpaired surrogate escape");
            }
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            fail("unpaired surrogate escape");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && text_[pos_] == '-') {
      ++pos_;
    }
    if (at_end() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    // Leading zeros are illegal JSON ("01"), a single zero is fine.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      fail("leading zero in number");
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (!at_end() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid fraction");
      }
      while (!at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (at_end() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid exponent");
      }
      while (!at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);

    if (integral) {
      // Exact 64-bit path first, so seeds survive the round trip.
      if (token.front() != '-') {
        std::uint64_t u = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), u);
        if (ec == std::errc{} && ptr == token.data() + token.size()) {
          return Value::unsigned_integer(u);
        }
      } else {
        std::int64_t i = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), i);
        if (ec == std::errc{} && ptr == token.data() + token.size()) {
          return Value::integer(i);
        }
      }
    }
    const std::string copy(token);  // strtod needs a terminator
    char* end = nullptr;
    const double v = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || !std::isfinite(v)) {
      fail("number out of range");
    }
    return Value::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_to(const Value& v, std::string& out);

void dump_number(const Value& v, std::string& out) {
  // Exact integers round-trip digit for digit: a 64-bit seed must not
  // come back as 1.8446744073709552e+19.
  char buf[32];
  std::to_chars_result written{};
  if (v.is_exact_unsigned()) {
    written = std::to_chars(buf, buf + sizeof(buf), v.as_u64());
  } else if (v.is_exact_signed()) {
    written = std::to_chars(buf, buf + sizeof(buf), v.as_i64());
  } else if (const double d = v.as_double(); std::isfinite(d)) {
    // Shortest text that parses back to the same double: 0.9, not
    // 0.90000000000000002.
    written = std::to_chars(buf, buf + sizeof(buf), d);
  } else {
    out += "null";
    return;
  }
  out.append(buf, written.ptr);
}

void dump_to(const Value& v, std::string& out) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      dump_number(v, out);
      break;
    case Value::Kind::kString:
      out += '"';
      append_escaped(out, v.as_string());
      out += '"';
      break;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& item : v.items()) {
        if (!first) {
          out += ',';
        }
        first = false;
        dump_to(item, out);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const Value::Member& member : v.members()) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += '"';
        append_escaped(out, member.first);
        out += "\":";
        dump_to(member.second, out);
      }
      out += '}';
      break;
    }
    case Value::Kind::kRaw:
      out += v.as_string();
      break;
  }
}

}  // namespace

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double value) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

Value Value::integer(std::int64_t value) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  v.exact_signed_ = true;
  v.i64_ = value;
  if (value >= 0) {
    v.exact_unsigned_ = true;
    v.u64_ = static_cast<std::uint64_t>(value);
  }
  return v;
}

Value Value::unsigned_integer(std::uint64_t value) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  v.exact_unsigned_ = true;
  v.u64_ = value;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

Value Value::object(std::vector<Member> members) {
  Value v = object();
  const std::size_t n = members.size();
  if (n < 2) {
    v.object_ = std::move(members);
    return v;
  }
  // Sort member positions by (key, position): each run of equal keys is
  // one key's occurrences in order. The first takes the last's value and
  // the rest are dropped, keeping the survivors' order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int c = members[a].first.compare(members[b].first);
    return c != 0 ? c < 0 : a < b;
  });
  std::vector<bool> dropped(n, false);
  bool any_dropped = false;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && members[order[j]].first == members[order[i]].first) {
      dropped[order[j++]] = true;
    }
    if (j - i > 1) {
      members[order[i]].second = std::move(members[order[j - 1]].second);
      any_dropped = true;
    }
    i = j;
  }
  if (any_dropped) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!dropped[i]) {
        if (kept != i) {
          members[kept] = std::move(members[i]);
        }
        ++kept;
      }
    }
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(kept),
                  members.end());
  }
  v.object_ = std::move(members);
  return v;
}

Value Value::raw(std::string json_text) {
  Value v;
  v.kind_ = Kind::kRaw;
  v.string_ = std::move(json_text);
  return v;
}

Value& Value::set(std::string_view key, Value v) {
  if (kind_ != Kind::kObject) {
    fail("set() on a non-object");
  }
  for (Member& member : object_) {
    if (member.first == key) {
      member.second = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const Member& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const std::vector<Value::Member>& Value::members() const {
  if (kind_ != Kind::kObject) {
    fail("members() on a non-object");
  }
  return object_;
}

Value& Value::push_back(Value v) {
  if (kind_ != Kind::kArray) {
    fail("push_back() on a non-array");
  }
  array_.push_back(std::move(v));
  return *this;
}

const std::vector<Value>& Value::items() const {
  if (kind_ != Kind::kArray) {
    fail("items() on a non-array");
  }
  return array_;
}

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) {
    fail("expected a boolean");
  }
  return bool_;
}

double Value::as_double() const {
  if (kind_ != Kind::kNumber) {
    fail("expected a number");
  }
  return number_;
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::kNumber || !exact_unsigned_) {
    fail("expected a non-negative integer");
  }
  return u64_;
}

std::int64_t Value::as_i64() const {
  if (kind_ == Kind::kNumber && exact_signed_) {
    return i64_;
  }
  if (kind_ == Kind::kNumber && exact_unsigned_ &&
      u64_ <= static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())) {
    return static_cast<std::int64_t>(u64_);
  }
  fail("expected an integer");
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString && kind_ != Kind::kRaw) {
    fail("expected a string");
  }
  return string_;
}

bool Value::bool_or(bool fallback) const noexcept {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double Value::double_or(double fallback) const noexcept {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

std::uint64_t Value::u64_or(std::uint64_t fallback) const noexcept {
  return kind_ == Kind::kNumber && exact_unsigned_ ? u64_ : fallback;
}

std::string_view Value::string_or(std::string_view fallback) const noexcept {
  return kind_ == Kind::kString ? std::string_view(string_) : fallback;
}

std::string Value::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace st::json

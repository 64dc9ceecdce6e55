// Minimal JSON document model, parser, and writer.
//
// This is the program's one JSON writer: run and fleet reports, traces,
// the service's responses and the BENCH_*.json files all render through
// `dump()`. The scenario service (src/serve) also *reads* JSON — job
// submissions arrive as payloads from untrusted clients. The header
// provides the small dependency-free core both sides share:
//
//  * `Value` — an ordered document tree (null / bool / number / string /
//    array / object). Object members keep insertion order so serialised
//    documents are deterministic. Integer literals are preserved exactly
//    (uint64/int64) alongside their double value, so 64-bit seeds
//    round-trip without precision loss.
//  * `parse()` — a strict recursive-descent parser with a hard nesting
//    depth limit. Malformed input of any kind throws `ParseError`; the
//    parser never reads past the given view and rejects trailing
//    garbage, so a hostile payload costs at most one pass over it.
//  * `dump()` — compact serialisation: one string escaper, and doubles
//    in their shortest round-trip form (`std::to_chars`, independent of
//    the locale), so parsing a dumped number gives back the same double.
//    `Value::raw()` nodes splice pre-rendered JSON (the service embeds
//    obs report documents without re-parsing them); they are writer-only
//    and never produced by parse().
//
// This is deliberately not a general-purpose library: no comments, no
// NaN/Inf literals. A duplicate key, whether parsed or set(), keeps its
// first position and takes its last value.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace st::json {

/// Raised by parse() on any malformed input, and by the strict as_*()
/// accessors on a kind mismatch (a request naming "seed": "seven" is a
/// protocol error, not a crash).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Maximum container nesting parse() accepts. Deep enough for any real
/// document, shallow enough that a hostile "[[[[..." payload cannot
/// exhaust the stack.
inline constexpr std::size_t kMaxParseDepth = 64;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };
  using Member = std::pair<std::string, Value>;

  /// Default-constructed value is null.
  Value() = default;

  static Value null() { return Value{}; }
  static Value boolean(bool b);
  static Value number(double v);
  static Value integer(std::int64_t v);
  static Value unsigned_integer(std::uint64_t v);
  static Value string(std::string s);
  static Value array();
  static Value object();
  /// An object of `members` in order, a duplicate key keeping its first
  /// position and taking its last value (what set() gives member by
  /// member), resolved in one sort of the keys rather than a scan each.
  static Value object(std::vector<Member> members);
  /// Writer-only splice of pre-rendered JSON text (must itself be a
  /// valid document; dump() inserts it verbatim).
  static Value raw(std::string json_text);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  // ---- object interface ---------------------------------------------------

  /// Append a member, replacing an existing one of the same key
  /// (last-wins). Only valid on objects; returns *this for chaining.
  Value& set(std::string_view key, Value v);
  /// Shorthands for the common member kinds. There is no bool overload:
  /// it would capture string literals; use set(key, Value::boolean(b)).
  Value& set(std::string_view key, double v) { return set(key, number(v)); }
  Value& set(std::string_view key, std::uint64_t v) {
    return set(key, unsigned_integer(v));
  }
  Value& set(std::string_view key, std::string_view v) {
    return set(key, string(std::string(v)));
  }

  /// Member lookup; nullptr when absent (or when not an object).
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

  /// Members in insertion order (throws on non-objects).
  [[nodiscard]] const std::vector<Member>& members() const;

  // ---- array interface ----------------------------------------------------

  /// Append an element (only valid on arrays); returns *this.
  Value& push_back(Value v);

  /// Elements in order (throws on non-arrays).
  [[nodiscard]] const std::vector<Value>& items() const;

  // ---- strict accessors (throw ParseError on kind mismatch) ---------------

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Exact unsigned integer; throws if the number was not written as a
  /// non-negative integer literal fitting 64 bits.
  [[nodiscard]] std::uint64_t as_u64() const;
  /// Exact signed integer; throws unless the number was an integer
  /// literal fitting int64 (either sign).
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// True when the number carries an exact integer (the writer emits
  /// the digits verbatim instead of going through the double).
  [[nodiscard]] bool is_exact_unsigned() const noexcept {
    return kind_ == Kind::kNumber && exact_unsigned_;
  }
  [[nodiscard]] bool is_exact_signed() const noexcept {
    return kind_ == Kind::kNumber && exact_signed_;
  }

  // ---- lenient accessors (fall back on kind mismatch) ---------------------

  [[nodiscard]] bool bool_or(bool fallback) const noexcept;
  [[nodiscard]] double double_or(double fallback) const noexcept;
  [[nodiscard]] std::uint64_t u64_or(std::uint64_t fallback) const noexcept;
  [[nodiscard]] std::string_view string_or(
      std::string_view fallback) const noexcept;

  /// Compact serialisation (no insignificant whitespace). Doubles use
  /// their shortest round-trip form; non-finite numbers render as null
  /// (JSON has no NaN/Inf).
  [[nodiscard]] std::string dump() const;

 private:
  friend Value parse(std::string_view);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  /// Set when the number came from (or was built as) an exact integer.
  bool exact_unsigned_ = false;
  bool exact_signed_ = false;
  std::uint64_t u64_ = 0;
  std::int64_t i64_ = 0;
  std::string string_;  ///< kString text, or kRaw pre-rendered JSON
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Parse one complete JSON document. Throws ParseError on malformed
/// input, nesting beyond kMaxParseDepth, or trailing non-whitespace.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace st::json

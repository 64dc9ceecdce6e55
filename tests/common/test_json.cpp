// The JSON core: strict parsing of hostile input, exact 64-bit integer
// round-trips, shortest round-trip doubles, and deterministic
// serialisation.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "phy/path_snapshot.hpp"

namespace {

using st::json::kMaxParseDepth;
using st::json::parse;
using st::json::ParseError;
using st::json::Value;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, PreservesExact64BitIntegers) {
  // 2^63 + 3 is not representable as a double; the parser must keep the
  // exact literal so fleet seeds survive the wire.
  const std::uint64_t big = 9223372036854775811ULL;
  EXPECT_EQ(parse("9223372036854775811").as_u64(), big);
  EXPECT_EQ(parse(Value::unsigned_integer(big).dump()).as_u64(), big);
  EXPECT_EQ(Value::unsigned_integer(big).dump(), "9223372036854775811");
}

TEST(Json, AsU64RejectsNonIntegerNumbers) {
  EXPECT_THROW((void)parse("1.5").as_u64(), ParseError);
  EXPECT_THROW((void)parse("-3").as_u64(), ParseError);
  EXPECT_THROW((void)parse("\"7\"").as_u64(), ParseError);
  EXPECT_EQ(parse("7").as_u64(), 7U);
}

TEST(Json, ParsesContainers) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3U);
  EXPECT_EQ(a->items()[0].as_u64(), 1U);
  EXPECT_TRUE(a->items()[2].find("b")->as_bool());
  EXPECT_EQ(v.find("c")->as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string text = "quote\" slash\\ tab\t nl\n unicodeé";
  const Value v = Value::string(text);
  EXPECT_EQ(parse(v.dump()).as_string(), text);
}

TEST(Json, ParsesUnicodeEscapes) {
  EXPECT_EQ(parse(R"("Aé")").as_string(), "Aé");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("😀")").as_string(), "\U0001F600");
  // Unpaired surrogate is malformed.
  EXPECT_THROW((void)parse(R"("\ud83d")"), ParseError);
}

TEST(Json, RejectsMalformedDocuments) {
  const char* hostile[] = {
      "",           "{",         "[1, 2",       "{\"a\": }",
      "{\"a\" 1}",  "[1,]",      "tru",         "01",
      "1.",         "+1",        "\"unclosed",  "{\"a\": 1} trailing",
      "[1] [2]",    "'single'",  "{a: 1}",      "\"bad\x01ctrl\"",
      "nan",        "inf",       "--1",         "{\"a\": 1,}",
  };
  for (const char* doc : hostile) {
    EXPECT_THROW((void)parse(doc), ParseError) << "accepted: " << doc;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep;
  for (std::size_t i = 0; i < kMaxParseDepth + 1; ++i) {
    deep += '[';
  }
  deep += "1";
  for (std::size_t i = 0; i < kMaxParseDepth + 1; ++i) {
    deep += ']';
  }
  EXPECT_THROW((void)parse(deep), ParseError);

  // One level inside the limit parses fine.
  std::string ok;
  for (std::size_t i = 0; i < kMaxParseDepth - 1; ++i) {
    ok += '[';
  }
  ok += "1";
  for (std::size_t i = 0; i < kMaxParseDepth - 1; ++i) {
    ok += ']';
  }
  EXPECT_NO_THROW((void)parse(ok));
}

TEST(Json, ObjectSetIsLastWins) {
  Value v = Value::object();
  v.set("k", Value::unsigned_integer(1));
  v.set("k", Value::unsigned_integer(2));
  EXPECT_EQ(v.members().size(), 1U);
  EXPECT_EQ(v.find("k")->as_u64(), 2U);
}

TEST(Json, ParsedDuplicateKeyKeepsFirstPositionAndLastValue) {
  const Value v = parse(
      R"({"a":1,"b":{"x":1,"x":2},"c":3,"a":4,"b":5,"d":6,"a":7})");
  EXPECT_EQ(v.dump(), R"({"a":7,"b":5,"c":3,"d":6})");
  EXPECT_EQ(parse(R"({"k":{"x":1,"y":2,"x":3}})").dump(),
            R"({"k":{"x":3,"y":2}})");
  EXPECT_EQ(parse(R"({"":1,"":2})").dump(), R"({"":2})");
}

// A request frame may hold 1 MiB: one object of ~100k distinct keys
// must parse in time linear-ish in its size (the scan-per-member parse
// took ~36 s on it).
TEST(Json, MebibyteObjectOfDistinctKeysParsesQuickly) {
  std::string text = "{";
  std::size_t keys = 0;
  while (text.size() < (std::size_t{1} << 20) - 16) {
    text += (keys == 0 ? "\"k" : ",\"k") + std::to_string(keys) + "\":0";
    ++keys;
  }
  text += '}';
  const auto t0 = std::chrono::steady_clock::now();
  const Value v = parse(text);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(v.members().size(), keys);
  EXPECT_EQ(v.members().back().first, "k" + std::to_string(keys - 1));
  EXPECT_LT(took.count(), 3.0) << keys << " keys";
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Value v = Value::object();
  v.set("z", Value::unsigned_integer(1));
  v.set("a", Value::unsigned_integer(2));
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2})");
}

TEST(Json, RawSplicesPrerenderedText) {
  Value v = Value::object();
  v.set("report", Value::raw(R"({"inner": [1, 2]})"));
  EXPECT_EQ(v.dump(), R"({"report":{"inner": [1, 2]}})");
  // And the spliced result is itself parseable.
  EXPECT_EQ(parse(v.dump()).find("report")->find("inner")->items().size(), 2U);
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Value::number(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(Value::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, LenientAccessorsFallBack) {
  const Value v = parse(R"({"s": "x"})");
  EXPECT_EQ(v.find("s")->u64_or(9), 9U);
  EXPECT_EQ(v.find("s")->string_or("y"), "x");
  EXPECT_TRUE(v.find("s")->bool_or(true));
  EXPECT_DOUBLE_EQ(v.find("s")->double_or(1.5), 1.5);
}

TEST(Json, StrictAccessorsThrowOnKindMismatch) {
  const Value v = parse("[1]");
  EXPECT_THROW((void)v.as_bool(), ParseError);
  EXPECT_THROW((void)v.as_double(), ParseError);
  EXPECT_THROW((void)v.as_string(), ParseError);
  EXPECT_THROW((void)v.members(), ParseError);
  EXPECT_NO_THROW((void)v.items());
}

TEST(Json, DumpParsesBackIdentically) {
  const std::string doc =
      R"({"a":[1,2.5,"s",null,true,-7],"b":{"c":18446744073709551615}})";
  EXPECT_EQ(parse(doc).dump(), doc);

  // Doubles dump in their shortest round-trip form: the text is the
  // shortest that parses back to the very same bits.
  EXPECT_EQ(Value::number(0.9).dump(), "0.9");
  std::vector<double> values = {0.1, 0.9, 1e-310, 1e300};
  std::mt19937_64 rng(25);
  for (int i = 0; i < 256; ++i) {
    st::phy::SnapshotCacheStats cache;
    cache.hits = rng() % 100'000;
    cache.refreshes = rng() % 100'000;
    cache.cold_misses = rng() % 1'000;
    cache.invalidations = rng() % 1'000;
    values.push_back(cache.hit_rate());
  }
  for (const double x : values) {
    const std::string text = Value::number(x).dump();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parse(text).as_double()),
              std::bit_cast<std::uint64_t>(x))
        << text;
  }
}

}  // namespace

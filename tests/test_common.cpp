// Unit tests for src/common: errors, strings, JSON codec, RNG, clocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace openei::common {
namespace {

TEST(ErrorTest, CheckMacroThrowsWithMessage) {
  try {
    OPENEI_CHECK(1 == 2, "context ", 42);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw NotFound("x"), Error);
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw ResourceExhausted("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitNonemptyDropsEmptyFields) {
  auto parts = split_nonempty("/ei_algorithms//safety/detection/", '/');
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0], "ei_algorithms");
  EXPECT_EQ(parts[1], "safety");
  EXPECT_EQ(parts[2], "detection");
}

TEST(StringsTest, TrimStripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("GET /path", "GET"));
  EXPECT_FALSE(starts_with("GE", "GET"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringsTest, ToLower) { EXPECT_EQ(to_lower("Content-TYPE"), "content-type"); }

TEST(StringsTest, UriDecodeHandlesEscapesAndPlus) {
  EXPECT_EQ(uri_decode("a%20b+c"), "a b c");
  EXPECT_EQ(uri_decode("%2Fpath%3Fq"), "/path?q");
}

TEST(StringsTest, UriDecodeRejectsMalformedEscapes) {
  EXPECT_THROW(uri_decode("%2"), ParseError);
  EXPECT_THROW(uri_decode("%zz"), ParseError);
}

TEST(StringsTest, UriEncodeRoundTrips) {
  std::string original = "camera 1/stream?t=5&x=%";
  EXPECT_EQ(uri_decode(uri_encode(original)), original);
}

TEST(StringsTest, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(join({"one"}, ", "), "one");
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  Json v = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "text"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3U);
  EXPECT_TRUE(v.at("a").at(2).at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "text");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("missing"));
}

TEST(JsonTest, AtThrowsNotFoundForMissingKey) {
  Json v = Json::parse(R"({"a": 1})");
  EXPECT_THROW(v.at("b"), NotFound);
}

TEST(JsonTest, TypeMismatchThrows) {
  Json v = Json::parse("42");
  EXPECT_THROW(v.as_string(), InvalidArgument);
  EXPECT_THROW(v.as_array(), InvalidArgument);
  EXPECT_THROW(v.as_object(), InvalidArgument);
}

TEST(JsonTest, DumpRoundTripsStructures) {
  std::string text = R"({"name":"openei","alem":[0.91,12.5,0.8,64],"ok":true,"n":null})";
  Json v = Json::parse(text);
  Json again = Json::parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json v(std::string("line1\nline2\t\"quoted\"\\slash"));
  Json back = Json::parse(v.dump());
  EXPECT_EQ(back.as_string(), "line1\nline2\t\"quoted\"\\slash");
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  Json v = Json::parse(R"("é中")");
  EXPECT_EQ(v.as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("--3"), ParseError);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(JsonTest, NumbersParseLikeStrtod) {
  const std::vector<std::string> tokens = {
      "0", "7", "3.5", "-17.25", "0.001", "123456.789",        // fixed point
      "0.10000000000000001", "-0.33333333333333331",           // %.17g
      "3.1415926535897931", "1.7976931348623157e+308",
      "1e3", "1E3", "2.5e+10", "-4.75E-7", "6.02214076e23",    // exponents
      "-0", "-0.0",                                            // signed zero
      "9007199254740991", "-9007199254740991",                 // +-(2^53 - 1)
      "1e300", "-1e300", "1e-300", "-1e-300",
      "4.9406564584124654e-324", "2.2250738585072009e-308",    // subnormals
      "1e999", "-1e999",                                       // overflow
      "1e-400", "-1e-400",                                     // underflow
  };
  for (const std::string& token : tokens) {
    double expected = std::strtod(token.c_str(), nullptr);
    EXPECT_EQ(bits_of(Json::parse(token).as_number()), bits_of(expected)) << token;
    // Inside an array the numeric-run path converts it.
    EXPECT_EQ(bits_of(Json::parse("[" + token + "]").at(0).as_number()),
              bits_of(expected))
        << token;
  }
  EXPECT_TRUE(std::isinf(Json::parse("1e999").as_number()));
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
}

TEST(JsonTest, RejectsMalformedNumbers) {
  for (const std::string token : {"1e", "1e+", "-", "-e5"}) {
    EXPECT_THROW(Json::parse(token), ParseError) << token;
    EXPECT_THROW(Json::parse("[" + token + "]"), ParseError) << token;
    EXPECT_THROW(Json::parse("[1," + token + "]"), ParseError) << token;
  }
}

TEST(JsonTest, DeepNestingIsRejectedNotStackOverflowed) {
  std::string bomb(100000, '[');
  EXPECT_THROW(Json::parse(bomb), ParseError);
  // A structure just under the limit still parses.
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 64; ++i) deep += "]";
  EXPECT_NO_THROW(Json::parse(deep));
}

TEST(JsonTest, SetInsertsAndReplacesPreservingOrder) {
  Json v;  // null -> becomes object on first set
  v.set("b", Json(1));
  v.set("a", Json(2));
  v.set("b", Json(3));
  EXPECT_EQ(v.as_object().size(), 2U);
  EXPECT_EQ(v.as_object()[0].first, "b");
  EXPECT_EQ(v.at("b").as_int(), 3);
  EXPECT_EQ(v.at("a").as_int(), 2);
}

TEST(JsonTest, IntegersSerializeWithoutDecimalPoint) {
  Json v(JsonObject{{"n", Json(42)}});
  EXPECT_EQ(v.dump(), R"({"n":42})");
}

TEST(JsonTest, NanSerializesAsNull) {
  Json v(std::nan(""));
  EXPECT_EQ(v.dump(), "null");
}

TEST(JsonTest, PrettyOutputParsesBack) {
  Json v = Json::parse(R"({"a":[1,2],"b":{"c":null}})");
  EXPECT_EQ(Json::parse(v.pretty()), v);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRejectsReversedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
  EXPECT_THROW(rng.uniform_int(5, 4), InvalidArgument);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(11);
  auto perm = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (auto idx : perm) {
    ASSERT_LT(idx, 50U);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(9);
  Rng child1 = parent1.fork();
  Rng parent2(9);
  Rng child2 = parent2.fork();
  // Draw from parent2 only; children must still agree.
  parent2.uniform();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
}

TEST(ClockTest, SimClockAdvances) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 0.0);
  clock.advance(1.5);
  clock.advance(0.25);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 1.75);
}

TEST(ClockTest, SimClockRejectsNegativeAdvance) {
  SimClock clock;
  EXPECT_THROW(clock.advance(-1.0), InvalidArgument);
}

TEST(ClockTest, AdvanceToNeverMovesBackwards) {
  SimClock clock;
  clock.advance_to(5.0);
  clock.advance_to(2.0);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 5.0);
}

TEST(ClockTest, StopwatchMeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

TEST(LoggingTest, LevelGatesOutput) {
  LogLevel original = log_level();
  set_log_level(LogLevel::kWarn);

  ::testing::internal::CaptureStderr();
  log_debug("hidden debug ", 1);
  log_info("hidden info");
  log_warn("visible warn ", 42);
  log_error("visible error");
  std::string output = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(output.find("hidden"), std::string::npos);
  EXPECT_NE(output.find("visible warn 42"), std::string::npos);
  EXPECT_NE(output.find("[openei ERROR] visible error"), std::string::npos);

  set_log_level(LogLevel::kOff);
  ::testing::internal::CaptureStderr();
  log_error("muted");
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());

  set_log_level(original);
}

}  // namespace
}  // namespace openei::common

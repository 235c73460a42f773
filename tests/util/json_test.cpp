#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>

#include "util/hash.hpp"

namespace hoval {
namespace {

TEST(Json, DefaultIsNull) {
  const Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json(-42).as_int64(), -42);
  EXPECT_DOUBLE_EQ(Json(1.5).as_double(), 1.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, NonNegativeIntegersNormaliseToUnsigned) {
  // Equal numbers compare equal regardless of how they were constructed.
  EXPECT_EQ(Json(7), Json(std::uint64_t{7}));
  EXPECT_EQ(Json(7).as_uint64(), 7u);
  EXPECT_NE(Json(7), Json(7.0));  // doubles never equal integer-typed numbers
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json("x").as_int(), JsonError);
  EXPECT_THROW(Json(1).as_string(), JsonError);
  EXPECT_THROW(Json(-1).as_uint64(), JsonError);
  EXPECT_THROW(Json(1).items(), JsonError);
  EXPECT_THROW(Json(1).members(), JsonError);
}

TEST(Json, IntRangeChecked) {
  const Json big(std::int64_t{1} << 40);
  EXPECT_EQ(big.as_int64(), std::int64_t{1} << 40);
  EXPECT_THROW(big.as_int(), JsonError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1);
  j.set("alpha", 2);
  j.set("zebra", 3);  // replaces in place, does not move to the back
  EXPECT_EQ(j.dump(), R"({"zebra":3,"alpha":2})");
  EXPECT_EQ(j.at("zebra").as_int(), 3);
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.at("missing"), JsonError);
}

TEST(Json, ParseRoundTripsDocuments) {
  const std::string text =
      R"({"a":[1,-2,3.5,true,false,null],"b":{"nested":"x"},"c":18446744073709551615})";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.dump(), text);
  EXPECT_EQ(Json::parse(parsed.dump()), parsed);
  EXPECT_EQ(parsed.at("c").as_uint64(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Json, PrettyPrintReparsesEqual) {
  const Json parsed = Json::parse(R"({"a":[1,2],"b":{"c":[]}})");
  const std::string pretty = parsed.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), parsed);
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 6.62607015e-34, 2.0 / 3.0 * 14}) {
    const Json j(v);
    EXPECT_DOUBLE_EQ(Json::parse(j.dump()).as_double(), v);
    EXPECT_EQ(Json::parse(j.dump()), j);
  }
  // Whole-valued doubles keep a marker so they reparse as doubles.
  EXPECT_EQ(Json(4.0).dump(), "4.0");
  EXPECT_TRUE(Json::parse("4.0").type() == Json::Type::kDouble);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string text = "quote\" backslash\\ newline\n tab\t bell\x07 unicode\xC3\xA9";
  const Json j(text);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), text);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(Json::parse(R"("\ud83d")"), JsonError);   // unpaired high
  EXPECT_THROW(Json::parse(R"("\ude00")"), JsonError);   // unpaired low
  EXPECT_THROW(Json::parse(R"("\uZZZZ")"), JsonError);   // not hex
}

TEST(Json, MalformedDocumentsThrowWithOffset) {
  for (const char* text :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "01", "1.",
        "1e", "[1] trailing", "{\"a\" 1}", "nan", "-", "\"bad\\q\""}) {
    EXPECT_THROW(Json::parse(text), JsonError) << "input: " << text;
  }
  try {
    Json::parse("[1, 2, oops]");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, DepthLimitRejectsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Json, NonFiniteDoublesCannotSerialise) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), JsonError);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).dump(), JsonError);
}

TEST(Json, HugeIntegerLiteralsFallBackToDouble) {
  const Json j = Json::parse("123456789012345678901234567890");
  EXPECT_TRUE(j.type() == Json::Type::kDouble);
}

TEST(Json, NodesAreCompact) {
  // A tag plus one union: the largest payload is std::string.
  EXPECT_LE(sizeof(Json), sizeof(std::string) + 8);
}

TEST(Json, CopiesAndMovesKeepEveryPayloadType) {
  const Json doc = Json::parse(
      R"({"s":"text","a":[1,-2,3.5,true,null,"x"],"o":{"k":[]},"b":false})");
  Json copy = doc;
  EXPECT_EQ(copy, doc);
  Json moved = std::move(copy);
  EXPECT_EQ(moved, doc);
  // Assignment across every pair of payload types.
  for (const Json& from : doc.at("a").items()) {
    for (const Json::Member& to : doc.members()) {
      Json target = to.second;
      target = from;
      EXPECT_EQ(target, from);
      Json source = from;
      target = to.second;
      target = std::move(source);
      EXPECT_EQ(target, from);
    }
  }
  Json self = doc;
  const Json& alias = self;
  self = alias;  // self copy-assignment
  EXPECT_EQ(self, doc);
}

TEST(Json, AssigningAChildIntoItsOwnParentIsSafe) {
  Json tree = Json::parse(R"({"inner":{"leaf":[1,2,3]}})");
  tree = std::move(*tree.find("inner"));
  EXPECT_EQ(tree.dump(), R"({"leaf":[1,2,3]})");
  tree = tree.at("leaf");  // copy out of its own payload
  EXPECT_EQ(tree.dump(), "[1,2,3]");
  tree = std::move(tree.items()[1]);
  EXPECT_EQ(tree, Json(2));
}

// --- reference twins for the <charconv> number paths ------------------------

/// The printf/strtod formatter the dump used before <charconv>: the first
/// "%.*g" precision whose text strtod reads back as v.
std::string reference_shortest_double(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

TEST(Json, DoubleDumpMatchesThePrintfReferenceOnEdgeValues) {
  const double two53 = 9007199254740992.0;
  for (const double v :
       {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
        DBL_MIN / 3.0, DBL_MAX, -DBL_MAX, 0.1, 1e-5, 1e21, 1e22, 1e-7,
        two53 - 1.0, two53, two53 + 2.0, 0.5, 100000.0, 123456789.0,
        1.0 / 3.0, 2.0 / 3.0, 5e-324}) {
    EXPECT_EQ(Json(v).dump(), reference_shortest_double(v)) << v;
  }
}

TEST(Json, DoubleDumpMatchesThePrintfReferenceOnRandomBits) {
  std::mt19937_64 bits(0x5EED5EEDull);
  int compared = 0;
  while (compared < 100000) {
    const std::uint64_t pattern = bits();
    double v = 0.0;
    std::memcpy(&v, &pattern, sizeof v);
    if (!std::isfinite(v)) continue;
    ++compared;
    const std::string dumped = Json(v).dump();
    ASSERT_EQ(dumped, reference_shortest_double(v)) << "bits " << pattern;
    ASSERT_EQ(Json::parse(dumped).as_double(), v) << dumped;
  }
  // Short decimals, where the precision loop stops early.
  for (int i = -5000; i <= 5000; ++i) {
    const double v = i / 1000.0;
    ASSERT_EQ(Json(v).dump(), reference_shortest_double(v)) << v;
  }
}

std::pair<std::string, std::string> parse_error(const std::string& text) {
  try {
    Json::parse(text);
  } catch (const JsonError& e) {
    return {text, e.what()};
  }
  return {text, "accepted"};
}

TEST(Json, EveryParseFailureKeepsItsMessageAndOffset) {
  // One input per failure site in the parser, pinned verbatim.
  const std::pair<std::string, std::string> cases[] = {
      {"[1] x", "malformed JSON at offset 4: trailing characters after JSON document"},
      {"", "malformed JSON at offset 0: unexpected end of input"},
      {"{\"a\" 1}", "malformed JSON at offset 5: expected ':'"},
      {std::string(200, '['), "malformed JSON at offset 129: nesting exceeds depth limit"},
      {"tru", "malformed JSON at offset 0: invalid literal"},
      {"fals", "malformed JSON at offset 0: invalid literal"},
      {"nul", "malformed JSON at offset 0: invalid literal"},
      {"{1:2}", "malformed JSON at offset 1: expected object key string"},
      {"{\"a\":1]", "malformed JSON at offset 7: expected ',' or '}' in object"},
      {"[1}", "malformed JSON at offset 3: expected ',' or ']' in array"},
      {"\"abc", "malformed JSON at offset 4: unterminated string"},
      {"\"a\x01\"", "malformed JSON at offset 3: unescaped control character in string"},
      {"\"a\\", "malformed JSON at offset 3: unterminated escape"},
      {"\"\\q\"", "malformed JSON at offset 3: invalid escape sequence"},
      {"\"\\u12", "malformed JSON at offset 3: truncated \\u escape"},
      {"\"\\uZZZZ\"", "malformed JSON at offset 4: invalid hex digit in \\u escape"},
      {"\"\\ud83d\"", "malformed JSON at offset 7: unpaired surrogate in \\u escape"},
      {"\"\\ude00\"", "malformed JSON at offset 7: unpaired surrogate in \\u escape"},
      {"\"\\ud83d\\u0041\"", "malformed JSON at offset 13: invalid low surrogate"},
      {"-", "malformed JSON at offset 1: invalid number"},
      {"nan", "malformed JSON at offset 0: invalid literal"},
      {"+1", "malformed JSON at offset 0: invalid number"},
      {"01", "malformed JSON at offset 0: leading zeros are not allowed"},
      {"1.", "malformed JSON at offset 2: digits required after decimal point"},
      {"1.e5", "malformed JSON at offset 2: digits required after decimal point"},
      {"1e", "malformed JSON at offset 2: digits required in exponent"},
      {"1e+", "malformed JSON at offset 3: digits required in exponent"},
      {"1e400", "malformed JSON at offset 5: number out of range"},
      {"[-1e309]", "malformed JSON at offset 7: number out of range"},
  };
  for (const auto& [text, message] : cases)
    EXPECT_EQ(parse_error(text), std::make_pair(text, message));
}

TEST(Json, NumberEdgeCasesParseAsBefore) {
  // Underflow is accepted as zero; overflow is rejected above.
  const Json tiny = Json::parse("1e-400");
  EXPECT_EQ(tiny.type(), Json::Type::kDouble);
  EXPECT_EQ(tiny.as_double(), 0.0);
  EXPECT_EQ(Json::parse("4e-320").as_double(), 4e-320);  // subnormal
  // 64-bit limits stay integers; one past them becomes a double.
  EXPECT_EQ(Json::parse("18446744073709551615"),
            Json(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_EQ(Json::parse("-9223372036854775808"),
            Json(std::numeric_limits<std::int64_t>::min()));
  const Json past = Json::parse("18446744073709551616");
  EXPECT_EQ(past.type(), Json::Type::kDouble);
  EXPECT_EQ(past.as_double(), 18446744073709551616.0);
  EXPECT_EQ(Json::parse("-9223372036854775809").type(), Json::Type::kDouble);
  EXPECT_EQ(Json::parse("99999999999999999999").type(), Json::Type::kDouble);
  // Negative zero: an integer zero, or a double that keeps its sign.
  EXPECT_EQ(Json::parse("-0"), Json(0));
  EXPECT_EQ(Json::parse("-0").type(), Json::Type::kUint);
  const Json negative_zero = Json::parse("-0.0");
  EXPECT_EQ(negative_zero.type(), Json::Type::kDouble);
  EXPECT_TRUE(std::signbit(negative_zero.as_double()));
  EXPECT_EQ(negative_zero.dump(), "-0.0");
  EXPECT_EQ(Json::parse("1E2").as_double(), 100.0);
  EXPECT_EQ(Json::parse("2.5e-3").as_double(), 0.0025);
}

TEST(Json, CorpusDumpsAreByteStable) {
  // FNV-1a over each file's compact dump followed by its indent-2 dump,
  // taken with the printf/strtod implementation the <charconv> paths
  // replaced.
  const std::pair<const char*, std::uint64_t> corpus[] = {
      {"examples/scenarios/ate_adaptive.json", 0xe3c791560774524bull},
      {"examples/scenarios/ate_good_rounds.json", 0x03d540417b916615ull},
      {"examples/scenarios/ate_refine.json", 0xb5ce499a7ee37c81ull},
      {"examples/scenarios/lastvoting_crash.json", 0x4ef0534eba888607ull},
      {"examples/scenarios/otr_omission.json", 0x1855ad3c7501c863ull},
      {"examples/scenarios/phaseking_byzantine.json", 0x36382ca19c660071ull},
      {"examples/scenarios/sweep_ate_alpha.json", 0xa4cbc4425914aa5full},
      {"examples/scenarios/utea_clean_phases.json", 0x507b991a572c9e2dull},
      {"bench/suite/workloads/kernel_n32.json", 0x61c5a5a193798ffdull},
      {"bench/suite/workloads/refine_n9.json", 0x437a9a62fd4d023bull},
      {"bench/suite/workloads/served_cold.json", 0x4f101faf3346c4c7ull},
      {"bench/suite/workloads/served_hot.json", 0x2b06d66ac3065491ull},
  };
  for (const auto& [path, expected] : corpus) {
    std::ifstream in(std::string(HOVAL_SOURCE_DIR) + "/" + path);
    ASSERT_TRUE(in) << path;
    std::stringstream text;
    text << in.rdbuf();
    const Json doc = Json::parse(text.str());
    const std::uint64_t digest = fnv1a64(doc.dump(2), fnv1a64(doc.dump()));
    EXPECT_EQ(digest, expected) << path;
  }
}

}  // namespace
}  // namespace hoval

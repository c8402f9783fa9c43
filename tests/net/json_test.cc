#include "net/json.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstddef>
#include <limits>
#include <random>
#include <string>

namespace pdx {
namespace {

Result<JsonValue> Parse(const std::string& text) { return ParseJson(text); }

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

// --- Basic parsing ----------------------------------------------------------

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").AsBool(), true);
  EXPECT_EQ(MustParse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(MustParse("42").AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(MustParse("-0.5").AsNumber(), -0.5);
  EXPECT_DOUBLE_EQ(MustParse("1.25e2").AsNumber(), 125.0);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
  EXPECT_DOUBLE_EQ(MustParse("  7  ").AsNumber(), 7.0);
}

TEST(JsonTest, ParsesNestedStructures) {
  const JsonValue doc =
      MustParse(R"({"a": [1, 2, [3]], "b": {"c": "x", "d": null}})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].AsNumber(), 1.0);
  ASSERT_TRUE(a->items()[2].is_array());
  EXPECT_DOUBLE_EQ(a->items()[2].items()[0].AsNumber(), 3.0);
  const JsonValue* b = doc.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->Find("c")->AsString(), "x");
  EXPECT_TRUE(b->Find("d")->is_null());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\/d\b\f\n\r\t")").AsString(),
            "a\"b\\c/d\b\f\n\r\t");
  // \uXXXX: ASCII, two-byte, three-byte, and a surrogate pair.
  EXPECT_EQ(MustParse(R"("\u0041")").AsString(), "A");
  EXPECT_EQ(MustParse(R"("\u00e9")").AsString(), "\xc3\xa9");
  EXPECT_EQ(MustParse(R"("\u20ac")").AsString(), "\xe2\x82\xac");
  EXPECT_EQ(MustParse(R"("\ud83d\ude00")").AsString(),
            "\xf0\x9f\x98\x80");  // U+1F600
  // Raw UTF-8 passes through byte-identically.
  EXPECT_EQ(MustParse("\"caf\xc3\xa9\"").AsString(), "caf\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "   ",         "{",           "[",
      "{\"a\":}",   "[1,]",        "{\"a\" 1}",   "tru",
      "nul",        "01",          "1.",          ".5",
      "1e",         "+1",          "\"unterminated", "[1 2]",
      "{\"a\":1,}", "\"\\x\"",     "\"\\u12\"",   "\"\\ud800\"",
      "\"\\ud800\\u0041\"",        "42 43",       "[1],",
      "{'a':1}",    "\"tab\there\"",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Parse(text).ok()) << "accepted: " << text;
  }
}

// --- NaN / Infinity rejection ----------------------------------------------

TEST(JsonTest, RejectsNonFiniteNumbers) {
  // The tokens are not JSON...
  EXPECT_FALSE(Parse("NaN").ok());
  EXPECT_FALSE(Parse("nan").ok());
  EXPECT_FALSE(Parse("Infinity").ok());
  EXPECT_FALSE(Parse("-Infinity").ok());
  EXPECT_FALSE(Parse("[1, NaN]").ok());
  // ...and a syntactically valid number must not overflow to infinity.
  EXPECT_FALSE(Parse("1e999").ok());
  EXPECT_FALSE(Parse("-1e999").ok());
  // Underflow rounds to zero rather than failing.
  EXPECT_DOUBLE_EQ(MustParse("1e-999").AsNumber(), 0.0);
}

TEST(JsonTest, NumbersParseUnderCommaDecimalLocale) {
  // The parser pins the "C" locale internally: an embedding process that
  // sets a comma-decimal LC_NUMERIC must not make valid JSON like 1.5
  // unparseable (plain strtod would stop at the '.').
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  bool switched = false;
  for (const char* name : {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      switched = true;
      break;
    }
  }
  if (!switched) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  Result<JsonValue> parsed = Parse("[1.5, -2.25e1]");
  std::setlocale(LC_NUMERIC, saved.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed.value().items()[0].AsNumber(), 1.5);
  EXPECT_DOUBLE_EQ(parsed.value().items()[1].AsNumber(), -22.5);
}

TEST(JsonTest, WriterRefusesNonFiniteAsNull) {
  // The writer's contract: non-finite numbers become null (debug builds
  // assert; this test documents the release-mode behavior).
#ifdef NDEBUG
  EXPECT_EQ(WriteJson(JsonValue(std::numeric_limits<double>::quiet_NaN())),
            "null");
  EXPECT_EQ(WriteJson(JsonValue(std::numeric_limits<double>::infinity())),
            "null");
#else
  GTEST_SKIP() << "debug builds assert on non-finite numbers";
#endif
}

// --- Depth bound ------------------------------------------------------------

TEST(JsonTest, DeepNestingIsBoundedNotFatal) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += '[';
  // With the default bound this must return an error, not overflow the
  // stack.
  EXPECT_FALSE(Parse(deep).ok());
  // A document at a modest depth parses fine.
  std::string ok = "1";
  for (int i = 0; i < 32; ++i) ok = "[" + ok + "]";
  EXPECT_TRUE(Parse(ok).ok());
  // An explicit tighter bound applies.
  EXPECT_FALSE(ParseJson(ok, 8).ok());
}

// --- Truncation never crashes ----------------------------------------------

TEST(JsonTest, EveryPrefixOfAValidDocumentFailsCleanly) {
  const std::string doc =
      R"({"name": "caf\u00e9", "values": [1.5, -2e-3, true, null], )"
      R"("nested": {"deep": [[["x"]]], "n": 1234567890123}})";
  ASSERT_TRUE(Parse(doc).ok());
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    const Result<JsonValue> parsed = Parse(doc.substr(0, cut));
    // No prefix of this document is itself valid JSON (the top level is an
    // object that only closes at the last byte) — and none may crash.
    EXPECT_FALSE(parsed.ok()) << "prefix length " << cut;
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
  }
}

// --- Writer -----------------------------------------------------------------

TEST(JsonTest, WriterEscapesAndOrdersDeterministically) {
  JsonValue doc = JsonValue::Object();
  doc.Set("quote\"back\\slash", "line\nbreak\ttab");
  doc.Set("ctrl", std::string("\x01\x1f"));
  JsonValue arr = JsonValue::Array();
  arr.Append(1.0);
  arr.Append(false);
  arr.Append(JsonValue::Null());
  doc.Set("arr", std::move(arr));
  EXPECT_EQ(WriteJson(doc),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\","
            "\"ctrl\":\"\\u0001\\u001f\",\"arr\":[1,false,null]}");
}

TEST(JsonTest, NumbersRoundTripShortest) {
  EXPECT_EQ(WriteJson(JsonValue(3.0)), "3");
  EXPECT_EQ(WriteJson(JsonValue(0.1)), "0.1");
  EXPECT_EQ(WriteJson(JsonValue(-0.0)), "-0");
  EXPECT_EQ(WriteJson(JsonValue(1e300)), "1e+300");
  EXPECT_EQ(WriteJson(JsonValue(static_cast<size_t>(9007199254740992))),
            "9007199254740992");  // 2^53 — the integer-exact ceiling.
}

// --- Round-trip property test ----------------------------------------------

/// Generates a random JSON value of bounded depth: the property-test
/// driver for write -> parse -> compare.
class RandomJson {
 public:
  explicit RandomJson(uint64_t seed) : rng_(seed) {}

  JsonValue Value(size_t depth) {
    // Leaves only at the bottom; containers get rarer with depth.
    const int kind = static_cast<int>(rng_() % (depth == 0 ? 4u : 6u));
    switch (kind) {
      case 0:
        return JsonValue::Null();
      case 1:
        return JsonValue(rng_() % 2 == 0);
      case 2:
        return JsonValue(Number());
      case 3:
        return JsonValue(String());
      case 4: {
        JsonValue array = JsonValue::Array();
        const size_t n = rng_() % 5;
        for (size_t i = 0; i < n; ++i) array.Append(Value(depth - 1));
        return array;
      }
      default: {
        JsonValue object = JsonValue::Object();
        const size_t n = rng_() % 5;
        for (size_t i = 0; i < n; ++i) {
          object.Set(String() + std::to_string(i), Value(depth - 1));
        }
        return object;
      }
    }
  }

 private:
  double Number() {
    switch (rng_() % 4) {
      case 0:
        return static_cast<double>(static_cast<int64_t>(rng_() % 2000001) -
                                   1000000);
      case 1:
        return std::uniform_real_distribution<double>(-1e6, 1e6)(rng_);
      case 2:
        // The full finite double range, log-uniform-ish via exponents.
        return std::ldexp(
            std::uniform_real_distribution<double>(-1.0, 1.0)(rng_),
            static_cast<int>(rng_() % 2000) - 1000);
      default:
        return 0.0;
    }
  }

  std::string String() {
    // Bytes across the whole range: ASCII, controls (escaped), UTF-8
    // sequences built from code points (always valid UTF-8).
    std::string s;
    const size_t n = rng_() % 12;
    for (size_t i = 0; i < n; ++i) {
      switch (rng_() % 4) {
        case 0:
          s.push_back(static_cast<char>('a' + rng_() % 26));
          break;
        case 1:
          s.push_back(static_cast<char>(rng_() % 0x20));  // Control chars.
          break;
        case 2:
          s.append("\"\\/ \xc3\xa9");  // The escape-heavy suspects.
          break;
        default: {
          // A multi-byte code point, encoded by the parser's own path via
          // an escape round-trip: just use a known UTF-8 snippet.
          s.append("\xe2\x82\xac");
          break;
        }
      }
    }
    return s;
  }

  std::mt19937_64 rng_;
};

TEST(JsonTest, RandomValuesRoundTripExactly) {
  RandomJson gen(20260731);
  for (int trial = 0; trial < 500; ++trial) {
    const JsonValue original = gen.Value(4);
    const std::string wire = WriteJson(original);
    Result<JsonValue> reparsed = Parse(wire);
    ASSERT_TRUE(reparsed.ok())
        << "writer produced unparseable JSON: " << wire << " -> "
        << reparsed.status().ToString();
    // Exact equality: numbers round-trip bit-for-bit (shortest-form
    // to_chars), strings byte-for-byte, structure node-for-node.
    EXPECT_TRUE(reparsed.value() == original) << wire;
    // And the round trip is a fixed point: writing again yields the same
    // bytes.
    EXPECT_EQ(WriteJson(reparsed.value()), wire);
  }
}

TEST(JsonTest, RandomDocumentPrefixesNeverCrash) {
  RandomJson gen(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string wire = WriteJson(gen.Value(3));
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
      // Some prefixes of some documents ARE valid JSON ("[1,2]" cut to
      // "1"... is not, but "1000" cut to "100" is). Only the no-crash,
      // no-hang property is universal.
      (void)Parse(wire.substr(0, cut));
    }
  }
}

/// One seeded edit of a JSON text: overwrite a byte with any byte,
/// insert one of the bytes JSON's grammar turns on, delete a byte, or
/// repeat a span (a member, an element, a digit run).
void MutateJson(std::string& text, std::mt19937_64& rng) {
  static const std::string kInserts = "{}[]\",:\\-+.eE0123456789 tfnu";
  const size_t at = text.empty() ? 0 : rng() % text.size();
  switch (rng() % 5) {
    case 0:
      if (!text.empty()) text[at] = static_cast<char>(rng() % 256);
      break;
    case 1:
    case 2:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                  kInserts[rng() % kInserts.size()]);
      break;
    case 3:
      if (!text.empty()) text.erase(at, 1);
      break;
    default:
      text.insert(at, text.substr(at, 1 + rng() % 8));
      break;
  }
}

TEST(JsonTest, MutatedDocumentsParseOrFailCleanly) {
  // Every edit of a valid document either fails with InvalidArgument or
  // parses to a value the writer round-trips exactly.
  RandomJson gen(20261019);
  std::mt19937_64 rng(77);
  size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = WriteJson(gen.Value(3));
    const size_t edits = 1 + rng() % 3;
    for (size_t e = 0; e < edits; ++e) MutateJson(text, rng);
    Result<JsonValue> parsed = Parse(text);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument())
          << text << " -> " << parsed.status().ToString();
      continue;
    }
    ++accepted;
    const std::string wire = WriteJson(parsed.value());
    Result<JsonValue> reparsed = Parse(wire);
    ASSERT_TRUE(reparsed.ok()) << text << " -> " << wire;
    EXPECT_TRUE(reparsed.value() == parsed.value()) << text << " -> " << wire;
    EXPECT_EQ(WriteJson(reparsed.value()), wire) << text;
  }
  // The edits reach the accepting path too, not only the rejections.
  EXPECT_GT(accepted, 100u);
}

}  // namespace
}  // namespace pdx

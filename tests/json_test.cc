// Unit tests for the Value document model and the JSON parser/printer.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/json/parser.h"
#include "src/json/value.h"

namespace lsmcol {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Missing().is_missing());
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Int(1).is_int());
  EXPECT_TRUE(Value::Double(1.5).is_double());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());
  EXPECT_TRUE(Value::Int(1).is_number());
  EXPECT_TRUE(Value::Double(1.0).is_number());
  EXPECT_FALSE(Value::String("1").is_number());
}

TEST(ValueTest, ObjectPreservesInsertionOrder) {
  Value obj = Value::MakeObject();
  obj.Set("zebra", Value::Int(1));
  obj.Set("apple", Value::Int(2));
  obj.Set("mango", Value::Int(3));
  ASSERT_EQ(obj.object().size(), 3u);
  EXPECT_EQ(obj.object()[0].first, "zebra");
  EXPECT_EQ(obj.object()[1].first, "apple");
  EXPECT_EQ(obj.object()[2].first, "mango");
}

TEST(ValueTest, SetOverwritesExistingKeyInPlace) {
  Value obj = Value::MakeObject();
  obj.Set("a", Value::Int(1));
  obj.Set("b", Value::Int(2));
  obj.Set("a", Value::String("new"));
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.object()[0].first, "a");
  EXPECT_TRUE(obj.Get("a").is_string());
}

TEST(ValueTest, GetMissingField) {
  Value obj = Value::MakeObject();
  obj.Set("a", Value::Int(1));
  EXPECT_TRUE(obj.Get("nope").is_missing());
  EXPECT_TRUE(Value::Int(5).Get("a").is_missing());  // non-object
}

TEST(ValueTest, EqualsIsStructural) {
  auto mk = [] {
    Value v = Value::MakeObject();
    v.Set("a", Value::Int(1));
    Value arr = Value::MakeArray();
    arr.Push(Value::String("x"));
    arr.Push(Value::Null());
    v.Set("b", std::move(arr));
    return v;
  };
  EXPECT_TRUE(mk().Equals(mk()));
  Value other = mk();
  other.Set("a", Value::Int(2));
  EXPECT_FALSE(mk().Equals(other));
}

TEST(ValueTest, IntAndDoubleAreDistinct) {
  EXPECT_FALSE(Value::Int(1).Equals(Value::Double(1.0)));
  EXPECT_EQ(Value::Int(3).as_double(), 3.0);
  EXPECT_EQ(Value::Double(3.5).as_double(), 3.5);
}

TEST(ParserTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->bool_value(), true);
  EXPECT_EQ(ParseJson("false")->bool_value(), false);
  EXPECT_EQ(ParseJson("42")->int_value(), 42);
  EXPECT_EQ(ParseJson("-17")->int_value(), -17);
  EXPECT_EQ(ParseJson("2.5")->double_value(), 2.5);
  EXPECT_EQ(ParseJson("1e3")->double_value(), 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value(), "hi");
}

TEST(ParserTest, IntegerOverflowFallsBackToDouble) {
  auto r = ParseJson("99999999999999999999999");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_double());
}

TEST(ParserTest, ParsesNestedDocument) {
  auto r = ParseJson(R"({"id": 2, "name": {"first": "John"},
                         "games": [{"title": "NBA", "consoles": ["PS4","PC"]}]})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Value& v = *r;
  EXPECT_EQ(v.Get("id").int_value(), 2);
  EXPECT_EQ(v.Get("name").Get("first").string_value(), "John");
  const Value& games = v.Get("games");
  ASSERT_TRUE(games.is_array());
  ASSERT_EQ(games.array().size(), 1u);
  EXPECT_EQ(games.array()[0].Get("consoles").array()[1].string_value(), "PC");
}

TEST(ParserTest, StringEscapes) {
  auto r = ParseJson(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->string_value(), "a\"b\\c\nd\teA");
}

TEST(ParserTest, UnicodeEscapeMultibyte) {
  auto r = ParseJson(R"("é中")");  // é, 中
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->string_value(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(ParserTest, UnicodeSurrogatePairIsOneCodePoint) {
  // U+1F600 as the JSON escape pair: the 4-byte UTF-8 sequence, not two
  // 3-byte encodings of the surrogates.
  auto r = ParseJson(R"("\ud83d\ude00")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->string_value(), "\xf0\x9f\x98\x80");
  // The first and last code points past U+FFFF, upper-case hex, and a
  // pair between other characters.
  EXPECT_EQ(ParseJson(R"("\ud800\udc00")")->string_value(),
            "\xf0\x90\x80\x80");
  EXPECT_EQ(ParseJson(R"("\uDBFF\uDFFF")")->string_value(),
            "\xf4\x8f\xbf\xbf");
  EXPECT_EQ(ParseJson(R"("a\ud83d\ude00b")")->string_value(),
            "a\xf0\x9f\x98\x80" "b");
}

TEST(ParserTest, LoneSurrogatesAreRejected) {
  for (const char* text :
       {R"("\ud83d")", R"("\ud83dx")", R"("\ud83dA")",
        R"("\ud83d\ud83d")", R"("\ude00")", R"("a\ude00\ud83d")",
        R"("\ud83d\")", R"("\ud83d\ude0")"}) {
    const auto r = ParseJson(text);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << text;
  }
}

TEST(ParserTest, SurrogatePairRoundTripsThroughToJson) {
  auto r = ParseJson(R"({"s":"smile \ud83d\ude00!"})");
  ASSERT_TRUE(r.ok());
  const std::string text = ToJson(*r);
  EXPECT_EQ(text, "{\"s\":\"smile \xf0\x9f\x98\x80!\"}");
  auto again = ParseJson(text);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->Equals(*r));
}

TEST(ParserTest, EmptyContainers) {
  EXPECT_EQ(ParseJson("[]")->size(), 0u);
  EXPECT_EQ(ParseJson("{}")->size(), 0u);
  EXPECT_EQ(ParseJson("[[],{}]")->size(), 2u);
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("{a: 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("-").ok());
}

TEST(ParserTest, RejectsTooDeepNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ParserTest, DuplicateKeysKeepLast) {
  auto r = ParseJson(R"({"a": 1, "a": 2})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get("a").int_value(), 2);
  EXPECT_EQ(r->size(), 1u);
}

TEST(PrinterTest, CompactOutput) {
  auto v = ParseJson(R"({"a":[1,2.5,"x"],"b":{"c":null},"d":true})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToJson(*v), R"({"a":[1,2.5,"x"],"b":{"c":null},"d":true})");
}

TEST(PrinterTest, EscapesControlCharacters) {
  Value v = Value::String(std::string("a\x01") + "b\n");
  EXPECT_EQ(ToJson(v), "\"a\\u0001b\\n\"");
}

TEST(PrinterTest, DoubleAlwaysPrintsAsDouble) {
  EXPECT_EQ(ToJson(Value::Double(2.0)), "2.0");
  EXPECT_EQ(ToJson(Value::Int(2)), "2");
}

// Property: parse(print(v)) == v for parsed documents.
class JsonRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTripTest, RoundTrips) {
  auto v1 = ParseJson(GetParam());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto v2 = ParseJson(ToJson(*v1));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_TRUE(v1->Equals(*v2)) << ToJson(*v1) << " vs " << ToJson(*v2);
  EXPECT_EQ(ToJson(*v1), ToJson(*v2));
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTripTest,
    ::testing::Values(
        "null", "true", "0", "-9223372036854775808", "9223372036854775807",
        "0.001", "1e300", "\"\"", "\"\\u0041snowman\"", "[]", "{}",
        R"([1,[2,[3,[4]]]])", R"({"a":{"b":{"c":{"d":1}}}})",
        R"({"id":2,"name":{"first":"John","last":"Smith"},
            "games":[{"title":"NBA","consoles":["PS4","PC"]},
                     {"title":"NFL","consoles":["XBOX"]}]})",
        R"([{"mixed":[0,"1",{"seq":2}]}])",
        R"({"hetero":[["FIFA","PES"],"NBA"]})"));

TEST(PrinterTest, PrettyPrintIsReparseable) {
  auto v = ParseJson(R"({"a":[1,2],"b":{"c":"d"}})");
  ASSERT_TRUE(v.ok());
  std::string pretty = ToPrettyJson(*v);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto v2 = ParseJson(pretty);
  ASSERT_TRUE(v2.ok()) << pretty;
  EXPECT_TRUE(v->Equals(*v2));
}

TEST(ParserTest, DuplicateKeysKeepFirstPositionAndLastValue) {
  auto r = ParseJson(R"({"a":1,"b":[2],"a":{"c":[3,"x"]},"d":4,"b":null})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Value expected = Value::MakeObject();
  expected.Set("a", Value::Int(1));
  expected.Set("b", Value::Int(2));
  expected.Set("a", *ParseJson(R"({"c":[3,"x"]})"));
  expected.Set("d", Value::Int(4));
  expected.Set("b", Value::Null());
  EXPECT_TRUE(r->Equals(expected)) << ToJson(*r);
  EXPECT_EQ(ToJson(*r), R"({"a":{"c":[3,"x"]},"b":null,"d":4})");
}

// ------------------------------------------------------------ strings
// The parser copies each run of a string up to the next quote or
// backslash in one append. These strings put escapes, \u escapes,
// surrogate pairs and raw UTF-8 at the start and end of runs of every
// length from zero up.

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

std::string HexEscape(Rng* rng, uint32_t unit) {
  char buf[7];
  std::snprintf(buf, sizeof(buf), rng->Bernoulli(0.5) ? "\\u%04x" : "\\u%04X",
                unit);
  return buf;
}

/// A generated string: its JSON spelling, quotes included, and the bytes
/// it decodes to.
struct GeneratedString {
  std::string json;
  std::string bytes;
};

GeneratedString GenerateString(Rng* rng) {
  static const char* const kEscapes[][2] = {
      {"\\\"", "\""}, {"\\\\", "\\"}, {"\\/", "/"},  {"\\b", "\b"},
      {"\\f", "\f"},  {"\\n", "\n"},  {"\\r", "\r"}, {"\\t", "\t"}};
  GeneratedString s{"\"", ""};
  const int pieces = static_cast<int>(rng->Uniform(8));
  for (int p = 0; p < pieces; ++p) {
    switch (rng->Uniform(5)) {
      case 0: {  // a plain run, up to 40 printable ASCII bytes
        const size_t n = rng->Uniform(41);
        for (size_t k = 0; k < n; ++k) {
          char c = static_cast<char>('!' + rng->Uniform(94));
          if (c == '"' || c == '\\') c = 'q';
          s.json.push_back(c);
          s.bytes.push_back(c);
        }
        break;
      }
      case 1: {  // a two-character escape
        const auto& e = kEscapes[rng->Uniform(8)];
        s.json += e[0];
        s.bytes += e[1];
        break;
      }
      case 2: {  // \u of a code point below U+10000, surrogates excluded
        uint32_t code = 1 + static_cast<uint32_t>(rng->Uniform(0xFFFF));
        if (code >= 0xD800 && code <= 0xDFFF) code -= 0x800;
        s.json += HexEscape(rng, code);
        AppendUtf8(code, &s.bytes);
        break;
      }
      case 3: {  // a surrogate pair
        const uint32_t code =
            0x10000 + static_cast<uint32_t>(rng->Uniform(0x100000));
        s.json += HexEscape(rng, 0xD800 + ((code - 0x10000) >> 10));
        s.json += HexEscape(rng, 0xDC00 + ((code - 0x10000) & 0x3FF));
        AppendUtf8(code, &s.bytes);
        break;
      }
      default: {  // raw UTF-8
        const uint32_t code =
            rng->Bernoulli(0.5)
                ? 0x80 + static_cast<uint32_t>(rng->Uniform(0xD800 - 0x80))
                : 0x10000 + static_cast<uint32_t>(rng->Uniform(0x100000));
        std::string utf8;
        AppendUtf8(code, &utf8);
        s.json += utf8;
        s.bytes += utf8;
        break;
      }
    }
  }
  s.json.push_back('"');
  return s;
}

TEST(ParserStringTest, GeneratedStringsDecodeAndRoundTrip) {
  Rng rng(61);
  for (int round = 0; round < 2000; ++round) {
    // {"<key>":<string>,"<key>":[<string>,...],...}; keys come from a
    // small pool too, so some repeat.
    std::string text = "{";
    Value expected = Value::MakeObject();
    const int members = static_cast<int>(rng.Uniform(6));
    for (int m = 0; m < members; ++m) {
      GeneratedString key = rng.Bernoulli(0.3)
                                ? GeneratedString{"\"k\"", "k"}
                                : GenerateString(&rng);
      if (m > 0) text += ",";
      text += key.json + ":";
      if (rng.Bernoulli(0.5)) {
        const GeneratedString value = GenerateString(&rng);
        text += value.json;
        expected.Set(key.bytes, Value::String(value.bytes));
      } else {
        Value elements = Value::MakeArray();
        text += "[";
        const int n = static_cast<int>(rng.Uniform(4));
        for (int e = 0; e < n; ++e) {
          const GeneratedString value = GenerateString(&rng);
          text += (e > 0 ? "," : "") + value.json;
          elements.Push(Value::String(value.bytes));
        }
        text += "]";
        expected.Set(key.bytes, std::move(elements));
      }
    }
    text += "}";
    auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    ASSERT_TRUE(parsed->Equals(expected)) << text;
    auto again = ParseJson(ToJson(expected));
    ASSERT_TRUE(again.ok()) << ToJson(expected);
    ASSERT_TRUE(again->Equals(expected)) << ToJson(expected);
  }
}

TEST(ParserStringTest, BadStringsAfterALongRunAreRejected) {
  const std::string run(10000, 'a');
  struct Case {
    std::string text;
    const char* error;
  } cases[] = {
      {"\"" + run, "offset 10001: unterminated string"},
      {"\"" + run + "\\\"", "offset 10003: unterminated string"},
      {"[\"" + run + "\\\"]", "offset 10005: unterminated string"},
      {"\"" + run + "\\", "offset 10002: bad escape"},
      {"\"" + run + "\\q" + run + "\"", "offset 10003: unknown escape"},
      {"\"" + run + "\\u12x4\"", "offset 10006: bad \\u escape digit"},
      {"\"" + run + "\\u12", "offset 10003: bad \\u escape"},
      {"\"" + run + "\\ud83d" + run + "\"",
       "offset 10007: lone high surrogate"},
  };
  for (const Case& c : cases) {
    const auto r = ParseJson(c.text);
    ASSERT_TRUE(r.status().IsInvalidArgument()) << c.error;
    EXPECT_NE(r.status().ToString().find(c.error), std::string::npos)
        << r.status().ToString();
  }
}

// ------------------------------------------------------------ path walk

/// The copy-based walk WalkValuePath replaced, kept as the oracle: copy
/// the root, then step the whole current value at each path step.
void OracleStep(const Value& v, const std::string& field, Value* out) {
  if (v.is_object()) {
    *out = v.Get(field);
    return;
  }
  if (v.is_array()) {
    Value mapped = Value::MakeArray();
    for (const Value& e : v.array()) {
      Value sub;
      OracleStep(e, field, &sub);
      if (!sub.is_missing()) mapped.Push(std::move(sub));
    }
    *out = std::move(mapped);
    return;
  }
  *out = Value::Missing();
}

Value OracleWalk(const Value& root, const std::vector<std::string>& path,
                 size_t start) {
  Value current = root;
  for (size_t i = start; i < path.size(); ++i) {
    Value next;
    OracleStep(current, path[i], &next);
    current = std::move(next);
    if (current.is_missing()) break;
  }
  return current;
}

/// Whether the oracle walk takes a step on an array.
bool OracleMeetsArray(const Value& root, const std::vector<std::string>& path,
                      size_t start) {
  Value current = root;
  for (size_t i = start; i < path.size(); ++i) {
    if (current.is_array()) return true;
    Value next;
    OracleStep(current, path[i], &next);
    current = std::move(next);
    if (current.is_missing()) return false;
  }
  return false;
}

void CollectNames(const Value& v, std::set<std::string>* names) {
  if (v.is_object()) {
    for (const auto& [name, child] : v.object()) {
      names->insert(name);
      CollectNames(child, names);
    }
  } else if (v.is_array()) {
    for (const Value& e : v.array()) CollectNames(e, names);
  }
}

void CollectAddresses(const Value& v, std::set<const Value*>* out) {
  out->insert(&v);
  if (v.is_object()) {
    for (const auto& member : v.object()) CollectAddresses(member.second, out);
  } else if (v.is_array()) {
    for (const Value& e : v.array()) CollectAddresses(e, out);
  }
}

/// Small values in the shapes a path walk must map: arrays of arrays,
/// atoms in the middle of a path, empty arrays and objects, and fields
/// missing from some elements.
Value MakeNested(Rng* rng, int depth) {
  const uint64_t kind = depth == 0 ? rng->Uniform(4) : rng->Uniform(9);
  switch (kind) {
    case 0:
      return Value::Int(static_cast<int64_t>(rng->Uniform(5)));
    case 1:
      return Value::String(rng->Word(1, 2));
    case 2:
      return Value::Null();
    case 3:
      return rng->Bernoulli(0.5) ? Value::MakeArray() : Value::MakeObject();
    case 4:
    case 5: {
      Value array = Value::MakeArray();
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        array.Push(MakeNested(rng, depth - 1));
      }
      return array;
    }
    default: {
      static const char* const kNames[] = {"a", "b", "c"};
      Value object = Value::MakeObject();
      for (const char* name : kNames) {
        if (rng->Bernoulli(0.6)) object.Set(name, MakeNested(rng, depth - 1));
      }
      return object;
    }
  }
}

TEST(PathWalkTest, MatchesTheCopyingWalkOnEveryStart) {
  Rng rng(2024);
  std::vector<Value> values;
  for (Workload w : {Workload::kCell, Workload::kSensors, Workload::kTweet1,
                     Workload::kWos, Workload::kTweet2}) {
    for (int64_t id = 0; id < 8; ++id) {
      values.push_back(MakeRecord(w, id, &rng));
    }
  }
  for (int i = 0; i < 400; ++i) values.push_back(MakeNested(&rng, 4));
  size_t walks = 0, borrowed = 0, mapped = 0;
  for (const Value& root : values) {
    std::set<std::string> name_set;
    CollectNames(root, &name_set);
    std::vector<std::string> names(name_set.begin(), name_set.end());
    names.push_back("no_such_field");
    std::set<const Value*> inside;
    CollectAddresses(root, &inside);
    for (int p = 0; p < 40; ++p) {
      std::vector<std::string> path(1 + rng.Uniform(4));
      for (std::string& step : path) step = names[rng.Uniform(names.size())];
      for (size_t start = 0; start <= path.size(); ++start) {
        SCOPED_TRACE(ToJson(root) + " at " + std::to_string(start));
        const Value expected = OracleWalk(root, path, start);
        const Value walked = WalkValuePath(root, path, start);
        ASSERT_TRUE(walked.Equals(expected))
            << ToJson(walked) << " vs " << ToJson(expected);
        ASSERT_EQ(ToJson(walked), ToJson(expected));
        const Value* found = FindValuePath(root, path, start);
        ++walks;
        if (OracleMeetsArray(root, path, start)) {
          ASSERT_EQ(found, nullptr);
          ++mapped;
          continue;
        }
        ASSERT_NE(found, nullptr);
        ASSERT_TRUE(found->Equals(expected));
        if (found->is_missing()) {
          ASSERT_EQ(found, &MissingValue());
        } else {
          ASSERT_EQ(inside.count(found), 1u);  // borrowed, not copied
          ++borrowed;
        }
      }
    }
  }
  // The draw reaches every case.
  EXPECT_GT(borrowed, walks / 10);
  EXPECT_GT(mapped, walks / 20);
}

TEST(PathWalkTest, ArrayStepsMapTheRestOfThePath) {
  auto root = ParseJson(
      R"({"a":[{"b":{"c":1}},{"b":[{"c":2},{"d":3},[{"c":4}]]},{"x":0},7,[],
               {"b":[]}]})");
  ASSERT_TRUE(root.ok());
  const std::vector<std::string> path = {"a", "b", "c"};
  EXPECT_EQ(FindValuePath(*root, path), nullptr);
  EXPECT_EQ(ToJson(WalkValuePath(*root, path)), "[1,[2,[4]],[],[]]");
  EXPECT_EQ(ToJson(OracleWalk(*root, path, 0)), "[1,[2,[4]],[],[]]");
  EXPECT_EQ(FindValuePath(*root, {"a"}), &root->Get("a"));
  EXPECT_EQ(FindValuePath(*root, {"a", "b"}, 2), root.operator->());
  EXPECT_EQ(FindValuePath(*root, {"z", "b"}), &MissingValue());
}

}  // namespace
}  // namespace lsmcol

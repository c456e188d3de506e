// Direct tests for the two row-major codecs (Open and VB): round-trips,
// path extraction (offset navigation vs linear walk), malformed input,
// and the size relationship the paper reports (VB ≈ 17% smaller on flat
// data, §6.2).

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/json/parser.h"
#include "src/layouts/row_codec.h"

namespace lsmcol {
namespace {

class RowCodecTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  const RowCodec& codec() { return GetRowCodec(GetParam()); }
};

TEST_P(RowCodecTest, RoundTripsScalarsAndContainers) {
  for (const char* json : {
           R"({"a": 1})",
           R"({"a": -9223372036854775808, "b": 1.5, "c": "text",
               "d": true, "e": false, "f": null})",
           R"({"nested": {"deep": {"deeper": [1, [2, 3], {"x": "y"}]}}})",
           R"({"empty_obj": {}, "empty_arr": []})",
           R"({"unicode": "héllo wörld", "escape": "tab\tnewline\n"})",
       }) {
    auto v = ParseJson(json);
    ASSERT_TRUE(v.ok());
    Buffer encoded;
    codec().Encode(*v, &encoded);
    Value decoded;
    ASSERT_TRUE(codec().Decode(encoded.slice(), &decoded).ok()) << json;
    EXPECT_TRUE(v->Equals(decoded)) << json << " -> " << ToJson(decoded);
  }
}

TEST_P(RowCodecTest, ExtractPathWithoutFullDecode) {
  auto v = ParseJson(
      R"({"id": 7, "user": {"name": "ann", "stats": {"followers": 42}},
          "tags": ["a", "b"]})");
  Buffer encoded;
  codec().Encode(*v, &encoded);
  Value out;
  ASSERT_TRUE(codec().ExtractPath(encoded.slice(), {"id"}, &out).ok());
  EXPECT_EQ(out.int_value(), 7);
  ASSERT_TRUE(codec()
                  .ExtractPath(encoded.slice(),
                               {"user", "stats", "followers"}, &out)
                  .ok());
  EXPECT_EQ(out.int_value(), 42);
  ASSERT_TRUE(codec().ExtractPath(encoded.slice(), {"missing"}, &out).ok());
  EXPECT_TRUE(out.is_missing());
  ASSERT_TRUE(
      codec().ExtractPath(encoded.slice(), {"id", "not_object"}, &out).ok());
  EXPECT_TRUE(out.is_missing());
}

TEST_P(RowCodecTest, ExtractPathMapsOverArrays) {
  auto v = ParseJson(
      R"({"addr": [{"spec": {"c": "US"}}, {"spec": {"c": "DE"}}]})");
  Buffer encoded;
  codec().Encode(*v, &encoded);
  Value out;
  ASSERT_TRUE(
      codec().ExtractPath(encoded.slice(), {"addr", "spec", "c"}, &out).ok());
  ASSERT_TRUE(out.is_array());
  ASSERT_EQ(out.array().size(), 2u);
  EXPECT_EQ(out.array()[1].string_value(), "DE");
}

TEST_P(RowCodecTest, TruncatedInputFailsCleanly) {
  auto v = ParseJson(R"({"a": "some string value", "b": [1,2,3]})");
  Buffer encoded;
  codec().Encode(*v, &encoded);
  for (size_t cut : {size_t{1}, encoded.size() / 2, encoded.size() - 1}) {
    Value out;
    Status st = codec().Decode(Slice(encoded.data(), cut), &out);
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
  }
}

TEST_P(RowCodecTest, RandomizedDocumentsRoundTrip) {
  Rng rng(31);
  for (int i = 0; i < 150; ++i) {
    Value v = MakeRecord(
        static_cast<Workload>(i % 5), i, &rng);
    Buffer encoded;
    codec().Encode(v, &encoded);
    Value decoded;
    ASSERT_TRUE(codec().Decode(encoded.slice(), &decoded).ok());
    // Row codecs preserve nulls; generators don't emit them, so Equals
    // applies directly.
    EXPECT_TRUE(v.Equals(decoded)) << i;
  }
}

// The deepest document the JSON parser accepts (257 levels) decodes.
TEST_P(RowCodecTest, DeepestJsonDocumentRoundTrips) {
  std::string json = "{\"id\":1,\"a\":";
  for (int i = 0; i < 255; ++i) json += "[";
  json += "7";
  for (int i = 0; i < 255; ++i) json += "]";
  json += "}";
  auto v = ParseJson(json);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  Buffer encoded;
  codec().Encode(*v, &encoded);
  Value decoded;
  ASSERT_TRUE(codec().Decode(encoded.slice(), &decoded).ok());
  EXPECT_TRUE(v->Equals(decoded));
}

INSTANTIATE_TEST_SUITE_P(Codecs, RowCodecTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

TEST(RowCodecSizeTest, VbIsSmallerThanOpenOnFlatData) {
  Rng rng(3);
  size_t open_total = 0, vb_total = 0;
  for (int i = 0; i < 500; ++i) {
    Value v = MakeRecord(Workload::kCell, i, &rng);
    Buffer open, vb;
    GetRowCodec(LayoutKind::kOpen).Encode(v, &open);
    GetRowCodec(LayoutKind::kVb).Encode(v, &vb);
    open_total += open.size();
    vb_total += vb.size();
  }
  // §6.2: VB ~17% smaller than Open on the flat cell data.
  EXPECT_LT(vb_total, open_total);
  EXPECT_GT(static_cast<double>(open_total) / vb_total, 1.1);
}

TEST(RowCodecSizeTest, VbNameTableDeduplicatesRepeatedKeys) {
  // An array of 100 identical-shaped objects: Open repeats each name 100
  // times, VB stores it once.
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(1));
  Value arr = Value::MakeArray();
  for (int i = 0; i < 100; ++i) {
    Value e = Value::MakeObject();
    e.Set("reading_value_field_name", Value::Int(i));
    arr.Push(std::move(e));
  }
  v.Set("rs", std::move(arr));
  Buffer open, vb;
  GetRowCodec(LayoutKind::kOpen).Encode(v, &open);
  GetRowCodec(LayoutKind::kVb).Encode(v, &vb);
  EXPECT_GT(open.size(), 3 * vb.size());
}

// Damaged rows (found by fuzzing the row parsers, tests/fuzz/
// row_leaf_fuzz.cc): each decodes to Corruption, not a crash.

// An Open container header: tag, total size, count.
void AppendOpenHeader(uint8_t tag, uint32_t total, uint32_t count,
                      Buffer* out) {
  out->AppendByte(tag);
  out->AppendFixed32(total);
  out->AppendFixed32(count);
}

TEST(RowCodecDamageTest, OpenChildAtItsParentsOffset) {
  // {"a": <itself>}: the child's offset 0 is the object's own tag, which
  // recursed until the stack ran out.
  Buffer row;
  AppendOpenHeader(6, 18, 1, &row);
  row.AppendFixed32(1);
  row.Append(Slice("a"));
  row.AppendFixed32(0);
  Value out;
  EXPECT_TRUE(GetRowCodec(LayoutKind::kOpen).Decode(row.slice(), &out)
                  .IsCorruption());
}

TEST(RowCodecDamageTest, OpenChildrenSharingBytes) {
  // Arrays of 64 elements all at one offset, nested 6 deep: 64^6 values
  // from a few kilobytes.
  Buffer row;
  constexpr uint32_t kFanout = 64;
  constexpr int kDepth = 6;
  const uint32_t header = 9 + 4 * kFanout;
  for (int level = 0; level < kDepth; ++level) {
    AppendOpenHeader(7, header * (kDepth - level) + 1, kFanout, &row);
    for (uint32_t i = 0; i < kFanout; ++i) row.AppendFixed32(header);
  }
  row.AppendByte(0);  // null
  Value out;
  EXPECT_TRUE(GetRowCodec(LayoutKind::kOpen).Decode(row.slice(), &out)
                  .IsCorruption());
}

TEST(RowCodecDamageTest, NestingPastTheLimit) {
  constexpr int kDepth = 200000;
  Buffer open;
  for (int level = 0; level < kDepth; ++level) {
    AppendOpenHeader(7, static_cast<uint32_t>(13 * (kDepth - level) + 1), 1,
                     &open);
    open.AppendFixed32(13);
  }
  open.AppendByte(0);
  Buffer vb;
  vb.AppendVarint64(0);  // no names
  for (int level = 0; level < kDepth; ++level) {
    vb.AppendByte(7);
    vb.AppendVarint64(1);
  }
  vb.AppendByte(0);
  Value out;
  EXPECT_TRUE(GetRowCodec(LayoutKind::kOpen).Decode(open.slice(), &out)
                  .IsCorruption());
  EXPECT_TRUE(GetRowCodec(LayoutKind::kVb).Decode(vb.slice(), &out)
                  .IsCorruption());
}

TEST(RowCodecDamageTest, VbNameCountPastTheRow) {
  // A name table of 2^40 entries was allocated before any was read.
  Buffer row;
  row.AppendVarint64(uint64_t{1} << 40);
  row.AppendByte(0);
  Value out;
  EXPECT_TRUE(
      GetRowCodec(LayoutKind::kVb).Decode(row.slice(), &out).IsCorruption());
}

}  // namespace
}  // namespace lsmcol

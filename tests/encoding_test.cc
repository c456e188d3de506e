// Unit and property tests for the encoding module: bit-packing, RLE/bit-
// packed hybrid, delta binary packed, string codecs, and the LZ compressor.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/encoding/bitpack.h"
#include "src/encoding/delta.h"
#include "src/encoding/lz.h"
#include "src/encoding/rle.h"
#include "src/encoding/strings.h"
#include "src/layouts/apax.h"
#include "src/storage/component_file.h"

namespace lsmcol {
namespace {

TEST(BitWidthTest, Boundaries) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(UINT64_MAX), 64);
}

uint64_t WidthMask(int width) {
  return width >= 64 ? ~0ULL : (width == 0 ? 0 : ((1ULL << width) - 1));
}

void RoundTripBitPack(const std::vector<uint64_t>& values, int width) {
  Buffer out;
  BitPack(values.data(), values.size(), width, &out);
  ASSERT_EQ(out.size(), BitPackedSize(values.size(), width));
  std::vector<uint64_t> decoded(values.size());
  BufferReader reader(out.slice());
  ASSERT_TRUE(
      BitUnpack(&reader, decoded.size(), width, decoded.data()).ok());
  EXPECT_EQ(decoded, values);
  EXPECT_TRUE(reader.empty());
}

class BitPackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitPackWidthTest, RoundTripsRandomValues) {
  const int width = GetParam();
  Rng rng(width * 101);
  std::vector<uint64_t> values(257);
  for (auto& v : values) v = rng.Next() & WidthMask(width);
  RoundTripBitPack(values, width);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 21,
                                           31, 32, 33, 48, 57, 63, 64));

TEST(BitPackTest, TruncatedInputFails) {
  std::vector<uint64_t> values = {1, 2, 3, 4, 5, 6, 7, 8};
  Buffer out;
  BitPack(values.data(), values.size(), 7, &out);
  Slice truncated(out.data(), out.size() - 1);
  BufferReader reader(truncated);
  std::vector<uint64_t> decoded(8);
  EXPECT_TRUE(
      BitUnpack(&reader, 8, 7, decoded.data()).IsCorruption());
}

void RoundTripRle(const std::vector<uint64_t>& values, int width) {
  RleEncoder enc(width);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice(), width).ok());
  EXPECT_EQ(dec.value_count(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.Next(&v).ok()) << i;
    EXPECT_EQ(v, values[i]) << i;
  }
  uint64_t extra;
  EXPECT_FALSE(dec.Next(&extra).ok());
}

TEST(RleTest, EmptyStream) { RoundTripRle({}, 3); }

TEST(RleTest, LongRunsUseRle) {
  std::vector<uint64_t> values(1000, 5);
  RleEncoder enc(3);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  EXPECT_LT(out.size(), 10u);  // count + header + value
  RoundTripRle(values, 3);
}

TEST(RleTest, AlternatingValuesUseBitPacking) {
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 2);
  RleEncoder enc(1);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  EXPECT_LT(out.size(), 1000 / 8 + 32u);
  RoundTripRle(values, 1);
}

TEST(RleTest, MixedRunsAndNoise) {
  Rng rng(42);
  std::vector<uint64_t> values;
  for (int block = 0; block < 50; ++block) {
    if (rng.Bernoulli(0.5)) {
      uint64_t v = rng.Uniform(8);
      size_t len = rng.Uniform(60) + 1;
      values.insert(values.end(), len, v);
    } else {
      for (int i = 0; i < 13; ++i) values.push_back(rng.Uniform(8));
    }
  }
  RoundTripRle(values, 3);
}

TEST(RleTest, SkipAcrossRunBoundaries) {
  std::vector<uint64_t> values;
  values.insert(values.end(), 100, 1);
  for (int i = 0; i < 23; ++i) values.push_back(i % 4);
  values.insert(values.end(), 50, 2);
  RleEncoder enc(2);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);

  for (size_t skip : {0u, 1u, 7u, 99u, 100u, 105u, 123u, 150u, 172u}) {
    RleDecoder dec;
    ASSERT_TRUE(dec.Init(out.slice(), 2).ok());
    ASSERT_TRUE(dec.Skip(skip).ok()) << skip;
    if (skip < values.size()) {
      uint64_t v = 0;
      ASSERT_TRUE(dec.Next(&v).ok());
      EXPECT_EQ(v, values[skip]) << skip;
    } else {
      uint64_t v;
      EXPECT_FALSE(dec.Next(&v).ok());
    }
  }
}

TEST(RleTest, SkipPastEndFails) {
  RleEncoder enc(1);
  enc.Add(1);
  Buffer out;
  enc.FinishInto(&out);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice(), 1).ok());
  EXPECT_FALSE(dec.Skip(2).ok());
}

TEST(RleTest, EncoderClearIsReusable) {
  RleEncoder enc(2);
  enc.Add(3);
  Buffer first;
  enc.FinishInto(&first);
  enc.Clear();
  enc.Add(1);
  enc.Add(1);
  Buffer second;
  enc.FinishInto(&second);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(second.slice(), 2).ok());
  EXPECT_EQ(dec.value_count(), 2u);
  uint64_t v = 0;
  ASSERT_TRUE(dec.Next(&v).ok());
  EXPECT_EQ(v, 1u);
}

void RoundTripDelta(const std::vector<int64_t>& values) {
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  DeltaInt64Decoder dec;
  ASSERT_TRUE(dec.Init(out.slice()).ok());
  EXPECT_EQ(dec.value_count(), values.size());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(dec.DecodeAll(&decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(DeltaTest, Empty) { RoundTripDelta({}); }
TEST(DeltaTest, Single) { RoundTripDelta({-7}); }

TEST(DeltaTest, MonotoneSequenceCompressesWell) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10000; ++i) values.push_back(1600000000000 + i * 7);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  // Constant stride: each 64-value block costs a few bytes.
  EXPECT_LT(out.size(), 2000u);
  RoundTripDelta(values);
}

TEST(DeltaTest, RandomValuesRoundTrip) {
  Rng rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()));
  }
  RoundTripDelta(values);
}

TEST(DeltaTest, ExtremesRoundTrip) {
  RoundTripDelta({std::numeric_limits<int64_t>::min(),
                  std::numeric_limits<int64_t>::max(),
                  std::numeric_limits<int64_t>::min(), 0, -1, 1});
}

TEST(DeltaTest, BlockBoundarySizes) {
  for (size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    std::vector<int64_t> values;
    for (size_t i = 0; i < n; ++i) values.push_back(static_cast<int64_t>(i * i));
    RoundTripDelta(values);
  }
}

TEST(DeltaTest, SkipThenNext) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 500; ++i) values.push_back(i * 3 - 100);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  for (size_t skip : {0u, 1u, 63u, 64u, 65u, 200u, 499u}) {
    DeltaInt64Decoder dec;
    ASSERT_TRUE(dec.Init(out.slice()).ok());
    ASSERT_TRUE(dec.Skip(skip).ok());
    int64_t v = 0;
    ASSERT_TRUE(dec.Next(&v).ok());
    EXPECT_EQ(v, values[skip]) << skip;
  }
}

// A bit-packed run whose groups end past the input is Corruption when
// the run is entered, wherever a decode starts in it (from the stream's
// start or from a Mark), not only when its last groups are reached.
TEST(RleTest, PackedRunPastItsInputIsCorruptionOnEntry) {
  RleEncoder enc(3);
  for (int i = 0; i < 200; ++i) enc.Add(static_cast<uint64_t>(i % 7));
  Buffer out;
  enc.FinishInto(&out);
  const Slice cut(out.data(), out.size() - 4);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(cut, 3).ok());
  uint64_t v = 0;
  EXPECT_TRUE(dec.Next(&v).IsCorruption());
  // Marks restore mid-run and decode the same values as a walk.
  RleDecoder full;
  ASSERT_TRUE(full.Init(out.slice(), 3).ok());
  ASSERT_TRUE(full.Skip(37).ok());
  const RleDecoder::Mark mark = full.mark();
  RleDecoder restored;
  ASSERT_TRUE(restored.Init(out.slice(), 3).ok());
  ASSERT_TRUE(restored.Restore(mark).ok());
  for (int i = 37; i < 200; ++i) {
    uint64_t a = 0, b = 0;
    ASSERT_TRUE(full.Next(&a).ok());
    ASSERT_TRUE(restored.Next(&b).ok());
    ASSERT_EQ(a, b) << i;
    ASSERT_EQ(a, static_cast<uint64_t>(i % 7));
  }
  RleDecoder truncated;
  ASSERT_TRUE(truncated.Init(cut, 3).ok());
  EXPECT_TRUE(truncated.Restore(mark).IsCorruption());
}

// Delta marks restore mid-block, lazily, to the same values.
TEST(DeltaTest, MarkRestoresMidBlock) {
  DeltaInt64Encoder enc;
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 300; ++i) values.push_back(i * i - 7 * i);
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  for (size_t at : {0u, 1u, 63u, 64u, 65u, 150u, 299u, 300u}) {
    DeltaInt64Decoder walker;
    ASSERT_TRUE(walker.Init(out.slice()).ok());
    ASSERT_TRUE(walker.Skip(at).ok());
    DeltaInt64Decoder restored;
    ASSERT_TRUE(restored.Init(out.slice()).ok());
    ASSERT_TRUE(restored.Restore(walker.mark()).ok());
    EXPECT_EQ(restored.remaining(), values.size() - at);
    for (size_t i = at; i < values.size(); ++i) {
      int64_t v = 0;
      ASSERT_TRUE(restored.Next(&v).ok());
      ASSERT_EQ(v, values[i]) << at << " " << i;
    }
  }
}

TEST(DeltaLengthStringTest, RoundTrip) {
  std::vector<std::string> values = {"", "a", "hello world", "aaa",
                                     std::string(1000, 'x')};
  DeltaLengthStringEncoder enc;
  for (const auto& v : values) enc.Add(Slice(v));
  Buffer out;
  enc.FinishInto(&out);
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice()).ok());
  EXPECT_EQ(dec.value_count(), values.size());
  for (const auto& expected : values) {
    Slice got;
    ASSERT_TRUE(dec.Next(&got).ok());
    EXPECT_EQ(got.ToString(), expected);
  }
}

TEST(DeltaLengthStringTest, SkipLandsOnCorrectOffsets) {
  DeltaLengthStringEncoder enc;
  std::vector<std::string> values;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.Word(0, 20));
    enc.Add(Slice(values.back()));
  }
  Buffer out;
  enc.FinishInto(&out);
  for (size_t skip : {0u, 1u, 50u, 199u}) {
    DeltaLengthStringDecoder dec;
    ASSERT_TRUE(dec.Init(out.slice()).ok());
    ASSERT_TRUE(dec.Skip(skip).ok());
    Slice got;
    ASSERT_TRUE(dec.Next(&got).ok());
    EXPECT_EQ(got.ToString(), values[skip]);
  }
}

TEST(DeltaLengthStringTest, CorruptPayloadDetected) {
  DeltaLengthStringEncoder enc;
  enc.Add(Slice("hello"));
  Buffer out;
  enc.FinishInto(&out);
  Slice truncated(out.data(), out.size() - 2);
  // Lengths are read lazily: the read that reaches past the payload fails.
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(truncated).ok());
  Slice got;
  EXPECT_TRUE(dec.Next(&got).IsCorruption());
}

TEST(DeltaStringTest, SortedStringsCompressBetterThanPlainLengths) {
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back("user_prefix_common_" + std::to_string(100000 + i));
  }
  DeltaStringEncoder front;
  DeltaLengthStringEncoder plain;
  for (const auto& v : values) {
    front.Add(Slice(v));
    plain.Add(Slice(v));
  }
  Buffer front_out, plain_out;
  front.FinishInto(&front_out);
  plain.FinishInto(&plain_out);
  EXPECT_LT(front_out.size(), plain_out.size() / 2);

  DeltaStringDecoder dec;
  ASSERT_TRUE(dec.Init(front_out.slice()).ok());
  for (const auto& expected : values) {
    Slice got;
    ASSERT_TRUE(dec.Next(&got).ok());
    EXPECT_EQ(got.ToString(), expected);
  }
}

TEST(DeltaStringTest, UnsortedRoundTrip) {
  Rng rng(5);
  std::vector<std::string> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.Word(0, 15));
  DeltaStringEncoder enc;
  for (const auto& v : values) enc.Add(Slice(v));
  Buffer out;
  enc.FinishInto(&out);
  DeltaStringDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice()).ok());
  ASSERT_TRUE(dec.Skip(100).ok());
  Slice got;
  ASSERT_TRUE(dec.Next(&got).ok());
  EXPECT_EQ(got.ToString(), values[100]);
}

void RoundTripLz(const std::string& input) {
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
  Buffer decompressed;
  ASSERT_TRUE(LzDecompress(compressed.slice(), &decompressed).ok());
  EXPECT_EQ(decompressed.slice().ToString(), input);
}

TEST(LzTest, Empty) { RoundTripLz(""); }
TEST(LzTest, Short) { RoundTripLz("abc"); }

TEST(LzTest, RepetitiveTextCompresses) {
  std::string input;
  for (int i = 0; i < 500; ++i) {
    input += "{\"name\":\"record\",\"index\":" + std::to_string(i) + "}";
  }
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 3);
  RoundTripLz(input);
}

TEST(LzTest, AllSameByte) { RoundTripLz(std::string(100000, 'z')); }

TEST(LzTest, RandomDataRoundTripsWithoutBlowup) {
  Rng rng(13);
  std::string input;
  for (int i = 0; i < 50000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xFF));
  }
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
  RoundTripLz(input);
}

TEST(LzTest, OverlappingMatchReplication) {
  // "abcabcabc..." exercises matches whose offset < length.
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "abc";
  RoundTripLz(input);
}

TEST(LzTest, CorruptStreamRejected) {
  Buffer compressed;
  LzCompress(Slice(std::string(1000, 'q')), &compressed);
  // Truncate mid-stream.
  Slice truncated(compressed.data(), compressed.size() / 2);
  Buffer out;
  EXPECT_FALSE(LzDecompress(truncated, &out).ok());
}

TEST(LzTest, MixedStructuredPayload) {
  Rng rng(99);
  std::string input;
  for (int i = 0; i < 300; ++i) {
    input += "sensor_" + std::to_string(rng.Uniform(50));
    input += rng.Word(1, 30);
    input += std::string(rng.Uniform(20), ' ');
  }
  RoundTripLz(input);
}

// ---------------------------------------------------------------------------
// LZ kernels: every Corruption path, round trips across token shapes and
// the decoder's fast-loop/tail boundary, a differential mutation loop, and
// golden digests pinning the encoder's output bytes.
// ---------------------------------------------------------------------------

// Hand-assembled LZ stream: tokens exactly as written, any declared length.
class LzStreamBuilder {
 public:
  LzStreamBuilder& Literal(const std::string& bytes) {
    tokens_.AppendByte(static_cast<uint8_t>(bytes.size() << 1));
    tokens_.Append(Slice(bytes));
    return *this;
  }
  LzStreamBuilder& Match(size_t len, uint64_t offset) {
    tokens_.AppendByte(static_cast<uint8_t>(((len - 4) << 1) | 1));
    tokens_.AppendVarint64(offset);
    return *this;
  }
  LzStreamBuilder& Raw(const std::string& bytes) {
    tokens_.Append(Slice(bytes));
    return *this;
  }
  std::string Finish(uint64_t declared) const {
    Buffer out;
    out.AppendVarint64(declared);
    out.Append(tokens_.slice());
    return out.slice().ToString();
  }

 private:
  Buffer tokens_;
};

// Byte-at-a-time decoder of the format in docs/FORMAT.md: the oracle the
// word-at-a-time kernel is checked against. On failure *out holds what the
// tokens before the bad one decoded to.
bool ReferenceLzDecode(Slice input, std::string* out) {
  BufferReader r(input);
  uint64_t len = 0;
  std::string s;
  const auto fail = [&] {
    *out = std::move(s);
    return false;
  };
  if (!r.ReadVarint64(&len).ok()) return fail();
  while (s.size() < len) {
    uint8_t tag = 0;
    if (!r.ReadByte(&tag).ok()) return fail();
    if ((tag & 1) == 0) {
      Slice bytes;
      if (tag == 0 || !r.ReadBytes(tag >> 1, &bytes).ok()) return fail();
      s.append(bytes.data(), bytes.size());
    } else {
      uint64_t offset = 0;
      if (!r.ReadVarint64(&offset).ok()) return fail();
      if (offset == 0 || offset > s.size()) return fail();
      for (size_t k = 0; k < (tag >> 1) + 4u; ++k) {
        s.push_back(s[s.size() - offset]);
      }
    }
  }
  if (s.size() != len) return fail();
  *out = std::move(s);
  return true;
}

constexpr std::string_view kLzPrefix = "existing bytes";

// Decodes after kLzPrefix. On success *decoded holds what was appended; on
// failure the status must be Corruption and out must be unchanged.
Status DecodeAfterPrefix(const std::string& stream, std::string* decoded) {
  Buffer out;
  out.Append(Slice(kLzPrefix));
  Status s = LzDecompress(Slice(stream), &out);
  const std::string all = out.slice().ToString();
  EXPECT_EQ(all.substr(0, kLzPrefix.size()), kLzPrefix);
  if (s.ok()) {
    *decoded = all.substr(kLzPrefix.size());
  } else {
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(all, kLzPrefix) << "a failed decode changed out";
  }
  return s;
}

void ExpectLzCorruption(const std::string& stream) {
  std::string decoded;
  const Status s = DecodeAfterPrefix(stream, &decoded);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

void ExpectLzDecodesLikeReference(const std::string& stream) {
  std::string expected, decoded;
  ASSERT_TRUE(ReferenceLzDecode(Slice(stream), &expected));
  ASSERT_TRUE(DecodeAfterPrefix(stream, &decoded).ok());
  ASSERT_EQ(decoded, expected);
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s.push_back(static_cast<char>(rng->Next()));
  return s;
}

// Random bytes long enough to put the tokens under test in the decoder's
// fast loop (which needs well over 160 bytes of input and output left).
std::string FastLoopLead(Rng* rng) { return RandomBytes(rng, 127); }

TEST(LzCorruptionTest, EveryErrorPathReturnsCorruptionAndLeavesOutUnchanged) {
  const std::string abcd = "abcd";
  // Truncated header varint.
  ExpectLzCorruption(std::string(1, '\x80'));
  // Truncated tag: 4 bytes declared, 3 produced, input ends.
  ExpectLzCorruption(LzStreamBuilder().Literal("abc").Finish(4));
  // Truncated literal: the run claims 10 bytes, 3 follow.
  ExpectLzCorruption(LzStreamBuilder().Raw("\x14" "abc").Finish(10));
  // Truncated offset varint: a continuation byte, then the end.
  ExpectLzCorruption(
      LzStreamBuilder().Literal(abcd).Raw("\x01\x80").Finish(8));
  // Offset varint longer than 10 bytes.
  ExpectLzCorruption(LzStreamBuilder()
                         .Literal(abcd)
                         .Raw("\x01" + std::string(11, '\x80') + "\x01")
                         .Finish(8));
  // Zero-length literal.
  ExpectLzCorruption(LzStreamBuilder().Raw(std::string(1, '\0')).Finish(3));
  // Offset 0.
  ExpectLzCorruption(LzStreamBuilder().Literal(abcd).Match(4, 0).Finish(8));
  // Offset beyond the bytes produced (the prefix in out does not count).
  ExpectLzCorruption(LzStreamBuilder().Literal(abcd).Match(4, 5).Finish(8));
  // A literal running past the declared length.
  ExpectLzCorruption(LzStreamBuilder().Literal(abcd).Finish(2));
  // A match running past the declared length.
  ExpectLzCorruption(LzStreamBuilder().Literal(abcd).Match(4, 4).Finish(6));
  // Declared length ~2^64 in a 12-byte stream: must not reach the
  // allocator (it used to throw std::bad_alloc).
  {
    Buffer stream;
    stream.AppendVarint64(UINT64_MAX - 7);
    stream.Append("\x05\x01", 2);
    ASSERT_EQ(stream.size(), 12u);
    ExpectLzCorruption(stream.slice().ToString());
  }
  // Declared one byte more than the tokens could produce (each 2-byte
  // match token yields at most 131 bytes).
  {
    const std::string tokens = LzStreamBuilder().Literal("a").Match(131, 1)
                                   .Finish(0).substr(1);
    ASSERT_EQ(tokens.size(), 4u);
    Buffer stream;
    stream.AppendVarint64(2 * 131 + 1);
    stream.Append(Slice(tokens));
    ExpectLzCorruption(stream.slice().ToString());
  }
}

TEST(LzCorruptionTest, ErrorsInsideTheFastLoopLeaveOutUnchanged) {
  Rng rng(21);
  const std::string lead = FastLoopLead(&rng);
  const std::string tail = RandomBytes(&rng, 100);
  auto with = [&](const std::string& bad) {
    // lead, the bad token, then enough valid bytes to keep the fast loop
    // running past it.
    return LzStreamBuilder()
        .Literal(lead)
        .Literal(lead)
        .Raw(bad)
        .Literal(tail)
        .Literal(tail)
        .Literal(tail)
        .Finish(2 * lead.size() + 4 + 3 * tail.size());
  };
  ExpectLzCorruption(with(std::string(1, '\0')));  // zero-length literal
  ExpectLzCorruption(with("\x01" + std::string(1, '\0')));  // offset 0
  ExpectLzCorruption(with("\x01\xff\x01"));  // offset 255 > 254 produced
  ExpectLzCorruption(with("\x01" + std::string(11, '\x80')));  // overlong
  // The same stream with a valid match there (offset 254) decodes.
  ExpectLzDecodesLikeReference(with("\x01\xfe\x01"));
}

TEST(LzRoundTripTest, OverlapOffsetsOneToSixteenEveryLength) {
  Rng rng(22);
  for (size_t offset = 1; offset <= 16; ++offset) {
    for (size_t len = 4; len <= 131; ++len) {
      SCOPED_TRACE("offset=" + std::to_string(offset) +
                   " len=" + std::to_string(len));
      const std::string lead = FastLoopLead(&rng);
      const std::string tail = RandomBytes(&rng, 80);
      // In the fast loop: two lead literals before, three after.
      LzStreamBuilder fast;
      fast.Literal(lead).Literal(lead).Match(len, offset);
      fast.Literal(tail).Literal(tail).Literal(tail);
      ExpectLzDecodesLikeReference(
          fast.Finish(2 * lead.size() + len + 3 * tail.size()));
      // In the careful tail: the whole stream is shorter than the slack.
      LzStreamBuilder careful;
      careful.Literal(tail.substr(0, offset)).Match(len, offset);
      ExpectLzDecodesLikeReference(careful.Finish(offset + len));
    }
    // Compressor round trip of a period-`offset` pattern.
    const std::string period = RandomBytes(&rng, offset);
    std::string input = RandomBytes(&rng, 50);
    while (input.size() < 2000) input += period;
    input += RandomBytes(&rng, 50);
    RoundTripLz(input);
  }
}

TEST(LzRoundTripTest, MatchLengthsAcrossTokenSplits) {
  Rng rng(23);
  // 4..131 fits one token; longer matches split into several, and a
  // sub-4-byte remainder is carried into the next literal run.
  for (size_t len = 4; len <= 400; ++len) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const std::string block = RandomBytes(&rng, 400);
    std::string input = block;
    input += RandomBytes(&rng, 3);
    input += block.substr(0, len);
    input += RandomBytes(&rng, 3);
    RoundTripLz(input);
  }
}

TEST(LzRoundTripTest, LiteralRunsAndShortInputs) {
  Rng rng(24);
  // 0..7 bytes take the literal-only path; 1..127 is one literal token;
  // longer runs split at 127.
  for (size_t n = 0; n <= 400; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    RoundTripLz(RandomBytes(&rng, n));
  }
  for (size_t run = 1; run <= 127; ++run) {
    const std::string bytes = RandomBytes(&rng, run);
    ExpectLzDecodesLikeReference(
        LzStreamBuilder().Literal(bytes).Finish(run));
    const std::string lead = FastLoopLead(&rng);
    ExpectLzDecodesLikeReference(LzStreamBuilder()
                                     .Literal(lead)
                                     .Literal(bytes)
                                     .Literal(lead)
                                     .Literal(lead)
                                     .Finish(3 * lead.size() + run));
  }
}

TEST(LzRoundTripTest, DecodingAppendsAfterExistingBytes) {
  Rng rng(25);
  std::string input;
  while (input.size() < 5000) input += "{\"k\":" + rng.Word(1, 9) + "}";
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  std::string decoded;
  ASSERT_TRUE(DecodeAfterPrefix(compressed.slice().ToString(), &decoded).ok());
  EXPECT_EQ(decoded, input);
  // Appending a second stream to the same buffer.
  Buffer out;
  ASSERT_TRUE(LzDecompress(compressed.slice(), &out).ok());
  ASSERT_TRUE(LzDecompress(compressed.slice(), &out).ok());
  EXPECT_EQ(out.slice().ToString(), input + input);
}

TEST(LzRoundTripTest, StreamsEndingAroundTheFastLoopSlack) {
  // Sizes that make the last tokens land just inside, at, and just past
  // the fast loop's slack on the input or the output side.
  Rng rng(26);
  for (size_t n = 100; n <= 700; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::string input;
    while (input.size() < n) {
      if (rng.Bernoulli(0.5) && input.size() > 8) {
        const size_t from = rng.Uniform(input.size() - 4);
        input += input.substr(from, 4 + rng.Uniform(12));
      } else {
        input += RandomBytes(&rng, 1 + rng.Uniform(20));
      }
    }
    input.resize(n);
    RoundTripLz(input);
  }
}

// Truncates, flips bits in, or inserts bytes into valid streams. Each
// result must decode exactly like the byte-at-a-time reference: OK with
// the same bytes, or Corruption with out unchanged; never a crash.
TEST(LzCorruptionTest, MutatedStreamsDecodeLikeTheReference) {
  Rng rng(27);
  std::vector<std::string> streams;
  for (const std::string& input :
       {std::string(3000, 'a'), RandomBytes(&rng, 600),
        std::string("{\"id\":1,\"name\":\"x\"}{\"id\":2,\"name\":\"y\"}"),
        std::string()}) {
    Buffer compressed;
    LzCompress(Slice(input), &compressed);
    streams.push_back(compressed.slice().ToString());
  }
  {
    std::string mixed;
    while (mixed.size() < 4000) {
      mixed += rng.Bernoulli(0.5) ? RandomBytes(&rng, 1 + rng.Uniform(9))
                                  : "sensor_" + rng.Word(1, 6);
    }
    Buffer compressed;
    LzCompress(Slice(mixed), &compressed);
    streams.push_back(compressed.slice().ToString());
  }
  size_t decoded_ok = 0;
  for (int round = 0; round < 10000; ++round) {
    std::string s = streams[rng.Uniform(streams.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.Uniform(3)) {
        case 0:
          s.resize(rng.Uniform(s.size() + 1));
          break;
        case 1:
          if (!s.empty()) s[rng.Uniform(s.size())] ^= 1 << rng.Uniform(8);
          break;
        default:
          s.insert(rng.Uniform(s.size() + 1), 1,
                   static_cast<char>(rng.Next()));
      }
    }
    std::string expected, decoded;
    const bool ref_ok = ReferenceLzDecode(Slice(s), &expected);
    const Status st = DecodeAfterPrefix(s, &decoded);
    ASSERT_EQ(st.ok(), ref_ok) << "round " << round << ": " << st.ToString();
    if (ref_ok) {
      ASSERT_EQ(decoded, expected) << "round " << round;
      ++decoded_ok;
    }
  }
  // Both outcomes occur (a bit flip in a literal byte still decodes).
  EXPECT_GT(decoded_ok, 0u);
}

TEST(LzTest, MaxCompressedSizeHoldsForWorstCaseTokens) {
  // One literal byte then a 4-byte match at a 3-byte offset, repeated:
  // 5 input bytes cost 6, well past 1/127 growth.
  Rng rng(28);
  const std::string far = RandomBytes(&rng, 20000);
  std::string input = far;
  for (size_t k = 0; k + 4 <= far.size(); k += 4) {
    input.push_back(static_cast<char>(rng.Next()));
    input.append(far, k, 4);
  }
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_GT(compressed.size(), input.size() + input.size() / 127 + 16);
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
  RoundTripLz(input);
}

// Fixed seeded inputs for the golden digests below.
std::string JsonTextPage() {
  Rng rng(101);
  std::string page;
  while (page.size() < 65536) {
    page += "{\"id\":" + std::to_string(rng.Uniform(1000000)) +
            ",\"user\":\"" + rng.Word(3, 12) + "\",\"lang\":\"" +
            (rng.Bernoulli(0.8) ? std::string("en") : rng.Word(2, 2)) +
            "\",\"text\":\"";
    const int words = static_cast<int>(rng.UniformRange(3, 20));
    for (int w = 0; w < words; ++w) page += rng.Word(1, 9) + " ";
    page += "\"}\n";
  }
  page.resize(65536);
  return page;
}

// Column-page shaped: 4-8-byte dictionary fragments between short literal
// runs, so most matches are a few bytes long.
std::string ShortMatchColumnPage() {
  Rng rng(102);
  std::vector<std::string> dict(2048);
  for (auto& d : dict) d = RandomBytes(&rng, 8);
  std::string page;
  while (page.size() < 65536) {
    if (rng.Bernoulli(0.15)) {
      page += RandomBytes(&rng, 1 + rng.Uniform(23));
    } else {
      page.append(dict[rng.Uniform(dict.size())], 0, 4 + rng.Uniform(5));
    }
  }
  page.resize(65536);
  return page;
}

uint64_t Fnv1a64(Slice s) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < s.size(); ++i) {
    h = (h ^ static_cast<uint8_t>(s[i])) * 1099511628211ull;
  }
  return h;
}

// The encoder's output bytes are part of the format's contract with
// stored data sizes: these digests were recorded from the byte-at-a-time
// encoder, and any change to hashing, window or token choice breaks them.
TEST(LzTest, EncoderOutputMatchesGoldenDigests) {
  Rng rng(103);
  struct Golden {
    const char* name;
    std::string input;
    size_t size;
    uint64_t digest;
  } cases[] = {
      {"json text", JsonTextPage(), 49668, 0x36373d6f2378064aull},
      {"short-match column", ShortMatchColumnPage(), 58198,
       0x28204fb6c52c7135ull},
      {"incompressible", RandomBytes(&rng, 65536), 66056,
       0x094f1acbcaeb2a3bull},
      {"same byte", std::string(65536, 'x'), 1007, 0x1fe9633417c3b619ull},
  };
  for (const Golden& g : cases) {
    Buffer compressed;
    LzCompress(Slice(g.input), &compressed);
    EXPECT_EQ(compressed.size(), g.size) << g.name;
    EXPECT_EQ(Fnv1a64(compressed.slice()), g.digest)
        << g.name << ": 0x" << std::hex << Fnv1a64(compressed.slice());
    RoundTripLz(g.input);
  }
}

// ---------------------------------------------------------------------------
// Resumable decoding (LzDecoder): a prefix decoded in steps of any size is
// the whole decode's prefix, and a stream that fails exposes nothing.

/// Compressed payloads of real APAX leaves: tweet_1 documents, shredded
/// and cut into leaves as a flush does.
std::vector<std::string> ApaxLeafStreams() {
  const std::string path = testing::TempDir() + "/encoding_apax_leaves";
  constexpr size_t kPage = 32u << 10;
  BufferCache cache(64 * kPage, kPage);
  auto writer = ComponentWriter::Create(path, &cache, kPage);
  LSMCOL_CHECK_OK(writer.status());
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  Rng rng(31);
  for (int64_t id = 0; id < 120; ++id) {
    LSMCOL_CHECK_OK(shredder.Shred(MakeRecord(Workload::kTweet1, id, &rng)));
    if (id % 40 == 39) {
      LSMCOL_CHECK_OK(EmitApaxLeaf(&writers, writer->get(), /*compress=*/true));
    }
  }
  LSMCOL_CHECK_OK((*writer)->Finish(Slice("")));
  auto reader = ComponentReader::Open(path, &cache, kPage);
  LSMCOL_CHECK_OK(reader.status());
  std::vector<std::string> streams;
  for (size_t leaf = 0; leaf < (*reader)->leaves().size(); ++leaf) {
    Buffer stored;
    LSMCOL_CHECK_OK((*reader)->ReadLeaf(leaf, &stored));
    streams.push_back(stored.slice().ToString());
  }
  RemoveFileIfExists(path);
  return streams;
}

/// Decodes `stream` asking for `step` more bytes at a time. Every byte the
/// decoder exposes must equal `reference`'s byte at that offset; returns
/// the status of the last call.
Status DecodeInSteps(const std::string& stream, size_t step,
                     const std::string& reference) {
  Buffer out;
  LzDecoder decoder;
  Status st = decoder.Reset(Slice(stream), &out);
  size_t checked = 0;
  for (size_t want = step; st.ok(); want += step) {
    st = decoder.DecodeTo(want);
    if (!st.ok()) break;
    EXPECT_GE(decoder.decoded(), std::min(want, decoder.size()));
    EXPECT_LE(decoder.decoded(), decoder.size());
    EXPECT_LE(decoder.decoded(), reference.size());
    if (decoder.decoded() > reference.size()) break;
    EXPECT_EQ(std::string_view(decoder.data() + checked,
                               decoder.decoded() - checked),
              std::string_view(reference).substr(checked,
                                                 decoder.decoded() - checked))
        << "bytes [" << checked << ", " << decoder.decoded() << ")";
    checked = decoder.decoded();
    if (checked == decoder.size()) break;
  }
  if (!st.ok()) {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    // Failure sticks and exposes nothing.
    EXPECT_EQ(decoder.decoded(), 0u);
    EXPECT_EQ(decoder.DecodeTo(1).ToString(), st.ToString());
    EXPECT_EQ(decoder.decoded(), 0u);
  }
  return st;
}

TEST(LzDecoderTest, EveryPrefixInEveryStepEqualsTheWholeDecode) {
  Rng rng(41);
  std::vector<std::string> inputs = {
      std::string(), "abc", std::string(5000, 'z'), RandomBytes(&rng, 3000),
      JsonTextPage().substr(0, 20000)};
  std::vector<std::string> streams;
  for (const std::string& input : inputs) {
    Buffer compressed;
    LzCompress(Slice(input), &compressed);
    streams.push_back(compressed.slice().ToString());
  }
  for (std::string& leaf : ApaxLeafStreams()) {
    streams.push_back(std::move(leaf));
  }
  ASSERT_GT(streams.size(), inputs.size() + 1);
  for (const std::string& stream : streams) {
    Buffer whole;
    ASSERT_TRUE(LzDecompress(Slice(stream), &whole).ok());
    const std::string reference = whole.slice().ToString();
    for (const size_t step : {size_t{1}, size_t{2}, size_t{7}, size_t{100},
                              size_t{4096}, reference.size() + 1}) {
      ASSERT_TRUE(DecodeInSteps(stream, step, reference).ok()) << step;
    }
  }
}

TEST(LzDecoderTest, TruncatedAndCorruptStreamsFailWithoutExposingBytes) {
  Rng rng(43);
  std::vector<std::string> streams = ApaxLeafStreams();
  {
    Buffer compressed;
    LzCompress(Slice(JsonTextPage().substr(0, 8000)), &compressed);
    streams.push_back(compressed.slice().ToString());
  }
  // Every truncation of a short stream, and a sample of the leaves'.
  for (const std::string& stream : streams) {
    std::string reference;
    ASSERT_TRUE(ReferenceLzDecode(Slice(stream), &reference));
    const size_t stride = std::max<size_t>(1, stream.size() / 300);
    for (size_t n = 0; n < stream.size(); n += stride) {
      const std::string cut = stream.substr(0, n);
      std::string partial;
      ASSERT_FALSE(ReferenceLzDecode(Slice(cut), &partial));
      EXPECT_TRUE(DecodeInSteps(cut, 1 + rng.Uniform(5000), partial)
                      .IsCorruption()) << n;
      Buffer out;
      EXPECT_TRUE(LzDecompress(Slice(cut), &out).IsCorruption()) << n;
      EXPECT_EQ(out.size(), 0u);
    }
  }
  // Mutated streams: whatever a step exposes matches the reference's
  // decode up to the first bad token, and a stream decodes to its end
  // exactly when the reference accepts it.
  size_t failed = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string s = streams[rng.Uniform(streams.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      if (rng.Bernoulli(0.5)) {
        s[rng.Uniform(s.size())] ^= static_cast<char>(1 << rng.Uniform(8));
      } else {
        s.insert(rng.Uniform(s.size() + 1), 1, static_cast<char>(rng.Next()));
      }
    }
    std::string reference;
    const bool ref_ok = ReferenceLzDecode(Slice(s), &reference);
    const Status st = DecodeInSteps(s, 1 + rng.Uniform(20000), reference);
    ASSERT_EQ(st.ok(), ref_ok) << "round " << round << ": " << st.ToString();
    if (!st.ok()) ++failed;
  }
  EXPECT_GT(failed, 0u);
}

// ---------------------------------------------------------------------------
// Randomized round-trip property tests: many independent seeds per codec,
// with shape (empty / single value / runs / adversarial widths) drawn from
// the rng itself. The seed is reported on failure so a counterexample can be
// replayed by hand.
// ---------------------------------------------------------------------------

TEST(RlePropertyTest, RandomVectorsRoundTripAtEveryWidth) {
  // Every supported width (rle.cc CHECKs 0..32) is covered deterministically;
  // the vector shape is randomized per (width, round).
  for (int width = 0; width <= 32; ++width) {
    for (uint64_t round = 0; round < 2; ++round) {
      const uint64_t seed = static_cast<uint64_t>(width) * 2 + round;
      Rng rng(seed * 7919 + 1);
      const uint64_t mask = WidthMask(width);
      // Shapes: empty, single value, one long run, or mixed runs + noise.
      std::vector<uint64_t> values;
      switch ((seed + rng.Uniform(2)) % 4) {
        case 0:
          break;  // empty input
        case 1:
          values.push_back(rng.Next() & mask);  // single value
          break;
        case 2: {  // one maximal run
          const size_t run_len = rng.Uniform(2000) + 1;
          values.assign(run_len, rng.Next() & mask);
          break;
        }
        default:  // interleaved runs and noise
          while (values.size() < 500) {
            if (rng.Bernoulli(0.5)) {
              const size_t run_len = rng.Uniform(100) + 1;
              values.insert(values.end(), run_len, rng.Next() & mask);
            } else {
              for (int i = 0; i < 16; ++i) values.push_back(rng.Next() & mask);
            }
          }
      }
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " width=" + std::to_string(width) +
                   " n=" + std::to_string(values.size()));
      RoundTripRle(values, width);
    }
  }
}

TEST(BitPackPropertyTest, RandomLengthsAndWidthsRoundTrip) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 6361 + 3);
    const int width = static_cast<int>(rng.Uniform(65));
    // Half the seeds pin n to a word-boundary count so the partial-final-
    // word paths are guaranteed coverage; the rest draw random lengths.
    static constexpr size_t kBoundaryLengths[] = {0, 1, 63, 64, 65, 127, 128};
    const size_t n = (seed % 2 == 0)
                         ? kBoundaryLengths[seed / 2 % std::size(kBoundaryLengths)]
                         : rng.Uniform(200);
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.Next() & WidthMask(width);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " width=" + std::to_string(width) + " n=" + std::to_string(n));
    RoundTripBitPack(values, width);
  }
}

TEST(DeltaPropertyTest, RandomVectorsRoundTrip) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 2741 + 5);
    std::vector<int64_t> values;
    const size_t n = rng.Uniform(300);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(4)) {
        case 0:  // full-range values force max-width delta blocks
          values.push_back(static_cast<int64_t>(rng.Next()));
          break;
        case 1:  // extremes stress the zig-zag/overflow arithmetic
          values.push_back(rng.Bernoulli(0.5)
                               ? std::numeric_limits<int64_t>::min()
                               : std::numeric_limits<int64_t>::max());
          break;
        case 2: {  // near-monotone, small strides (wrap-safe: previous
                   // entries may be INT64_MAX/MIN, so add in uint64)
          const uint64_t prev =
              static_cast<uint64_t>(values.empty() ? 0 : values.back());
          const uint64_t stride =
              static_cast<uint64_t>(rng.UniformRange(-3, 16));
          values.push_back(static_cast<int64_t>(prev + stride));
          break;
        }
        default:  // repeated value (zero deltas)
          values.push_back(values.empty() ? 42 : values.back());
      }
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
    RoundTripDelta(values);
  }
}

void RoundTripStrings(const std::vector<std::string>& values) {
  DeltaLengthStringEncoder plain;
  DeltaStringEncoder front;
  for (const auto& v : values) {
    plain.Add(Slice(v));
    front.Add(Slice(v));
  }
  Buffer plain_out, front_out;
  plain.FinishInto(&plain_out);
  front.FinishInto(&front_out);

  DeltaLengthStringDecoder plain_dec;
  ASSERT_TRUE(plain_dec.Init(plain_out.slice()).ok());
  ASSERT_EQ(plain_dec.value_count(), values.size());
  DeltaStringDecoder front_dec;
  ASSERT_TRUE(front_dec.Init(front_out.slice()).ok());
  ASSERT_EQ(front_dec.value_count(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    Slice got;
    ASSERT_TRUE(plain_dec.Next(&got).ok()) << i;
    EXPECT_EQ(got.ToString(), values[i]) << i;
    ASSERT_TRUE(front_dec.Next(&got).ok()) << i;
    EXPECT_EQ(got.ToString(), values[i]) << i;
  }
  // Both streams must be exhausted: no extra trailing values.
  Slice extra;
  EXPECT_FALSE(plain_dec.Next(&extra).ok());
  EXPECT_EQ(front_dec.remaining(), 0u);
  EXPECT_FALSE(front_dec.Next(&extra).ok());
}

TEST(StringCodecPropertyTest, RandomVectorsRoundTripBothCodecs) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 104729 + 11);
    std::vector<std::string> values;
    switch (rng.Uniform(4)) {
      case 0:
        break;  // empty input
      case 1:
        values.push_back(rng.Word(0, 64));  // single entry (possibly "")
        break;
      case 2:  // dictionary-ish: few distinct values, long repeated runs
      {
        std::vector<std::string> dict;
        for (int i = 0; i < 8; ++i) dict.push_back(rng.Word(0, 12));
        for (int i = 0; i < 400; ++i) values.push_back(dict[rng.Uniform(8)]);
        break;
      }
      default:  // shared prefixes + a max-length outlier
        for (int i = 0; i < 200; ++i) {
          values.push_back("prefix/" + rng.Word(0, 24));
        }
        values.push_back(std::string(64 * 1024, 'M'));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " n=" + std::to_string(values.size()));
    RoundTripStrings(values);
  }
}

// ----------------------------------------------------- batch decode APIs

// A stream with RLE runs, bit-packed noise, and run boundaries landing
// both on and off typical batch sizes.
std::vector<uint64_t> MixedRleStream() {
  std::vector<uint64_t> values;
  values.insert(values.end(), 100, 3);          // RLE run
  for (int i = 0; i < 37; ++i) values.push_back(i % 5);  // bit-packed
  values.insert(values.end(), 1000, 6);         // long RLE run
  values.push_back(1);                          // singleton
  values.insert(values.end(), 20, 0);           // RLE run
  return values;
}

Buffer EncodeRle(const std::vector<uint64_t>& values, int width) {
  RleEncoder enc(width);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  return out;
}

TEST(RleBatchTest, DecodeBatchMatchesNextAcrossRunBoundaries) {
  const std::vector<uint64_t> values = MixedRleStream();
  Buffer encoded = EncodeRle(values, 3);
  // Batch sizes chosen so encoded runs straddle every batch boundary.
  for (size_t batch : {1ul, 7ul, 64ul, 333ul, values.size(), 100000ul}) {
    RleDecoder dec;
    ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
    std::vector<uint64_t> decoded;
    std::vector<uint64_t> scratch(batch);
    while (dec.remaining() > 0) {
      size_t got = 0;
      ASSERT_TRUE(dec.DecodeBatch(batch, scratch.data(), &got).ok());
      ASSERT_GT(got, 0u);
      decoded.insert(decoded.end(), scratch.begin(), scratch.begin() + got);
    }
    EXPECT_EQ(decoded, values) << "batch=" << batch;
    // Exhausted decoder yields empty batches, not errors.
    size_t got = 1;
    ASSERT_TRUE(dec.DecodeBatch(batch, scratch.data(), &got).ok());
    EXPECT_EQ(got, 0u);
  }
}

TEST(RleBatchTest, DecodeBatchInterleavesWithNextAndSkip) {
  const std::vector<uint64_t> values = MixedRleStream();
  Buffer encoded = EncodeRle(values, 3);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
  std::vector<uint64_t> scratch(50);
  size_t got = 0;
  ASSERT_TRUE(dec.DecodeBatch(50, scratch.data(), &got).ok());
  uint64_t v = 0;
  ASSERT_TRUE(dec.Next(&v).ok());
  EXPECT_EQ(v, values[50]);
  ASSERT_TRUE(dec.Skip(60).ok());  // crosses into the bit-packed region
  ASSERT_TRUE(dec.DecodeBatch(10, scratch.data(), &got).ok());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(scratch[i], values[111 + i]);
}

TEST(RleBatchTest, VisitRunsSurfacesRunStructure) {
  // RLE runs arrive whole, bit-packed values as arrays; together they are
  // the stream in order.
  std::vector<uint64_t> values;
  values.insert(values.end(), 80, 2);
  values.insert(values.end(), 30, 5);
  values.insert(values.end(), {1, 3, 1, 4});
  values.insert(values.end(), 40, 6);
  Buffer encoded = EncodeRle(values, 3);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
  std::vector<std::pair<uint64_t, size_t>> runs;
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(dec.VisitRuns(
                     values.size(),
                     [&](uint64_t value, size_t count) {
                       runs.emplace_back(value, count);
                       decoded.insert(decoded.end(), count, value);
                     },
                     [&](const uint64_t* packed, size_t count) {
                       decoded.insert(decoded.end(), packed, packed + count);
                     })
                  .ok());
  EXPECT_EQ(decoded, values);
  ASSERT_GE(runs.size(), 3u);
  EXPECT_EQ(runs[0], std::make_pair(uint64_t{2}, size_t{80}));
  EXPECT_EQ(runs[1].first, 5u);
  EXPECT_EQ(runs.back().first, 6u);
  EXPECT_EQ(dec.remaining(), 0u);

  const std::vector<uint64_t> mixed = MixedRleStream();
  Buffer mixed_encoded = EncodeRle(mixed, 3);
  ASSERT_TRUE(dec.Init(mixed_encoded.slice(), 3).ok());
  decoded.clear();
  size_t calls = 0;
  while (dec.remaining() > 0) {
    ASSERT_TRUE(dec.VisitRuns(
                       37,
                       [&](uint64_t value, size_t count) {
                         ++calls;
                         decoded.insert(decoded.end(), count, value);
                       },
                       [&](const uint64_t* packed, size_t count) {
                         ++calls;
                         decoded.insert(decoded.end(), packed,
                                        packed + count);
                       })
                    .ok());
  }
  EXPECT_EQ(decoded, mixed);
  EXPECT_LT(calls, mixed.size());
}

TEST(RleBatchTest, VisitRunsHonorsCountMidRun) {
  std::vector<uint64_t> values(100, 7);
  Buffer encoded = EncodeRle(values, 3);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
  std::vector<std::pair<uint64_t, size_t>> runs;
  auto on_run = [&](uint64_t value, size_t count) {
    runs.emplace_back(value, count);
  };
  auto on_packed = [&](const uint64_t*, size_t) { ADD_FAILURE(); };
  ASSERT_TRUE(dec.VisitRuns(30, on_run, on_packed).ok());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(uint64_t{7}, size_t{30}));
  ASSERT_TRUE(dec.VisitRuns(1000, on_run, on_packed).ok());  // resumes
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1], std::make_pair(uint64_t{7}, size_t{70}));
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(RleBatchTest, SkipAndCountCountsTargetRunGranular) {
  const std::vector<uint64_t> values = MixedRleStream();
  Buffer encoded = EncodeRle(values, 3);
  for (uint64_t target : {0ull, 3ull, 6ull}) {
    RleDecoder dec;
    ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
    size_t count = 0;
    const size_t n = 700;
    ASSERT_TRUE(dec.SkipAndCount(n, target, &count).ok());
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) expected += values[i] == target ? 1 : 0;
    EXPECT_EQ(count, expected) << "target=" << target;
    // The decoder continues correctly after the counted skip.
    uint64_t v = 0;
    ASSERT_TRUE(dec.Next(&v).ok());
    EXPECT_EQ(v, values[n]);
  }
}

TEST(DeltaBatchTest, DecodeBatchMatchesNextAcrossBlockBoundaries) {
  Rng rng(7);
  std::vector<int64_t> values;
  int64_t acc = 0;
  for (int i = 0; i < 1000; ++i) {  // > 15 blocks of 64
    acc += static_cast<int64_t>(rng.Uniform(1000)) - 500;
    values.push_back(acc);
  }
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer encoded;
  enc.FinishInto(&encoded);
  for (size_t batch : {1ul, 63ul, 64ul, 65ul, 500ul, 1000ul}) {
    DeltaInt64Decoder dec;
    ASSERT_TRUE(dec.Init(encoded.slice()).ok());
    std::vector<int64_t> decoded;
    std::vector<int64_t> scratch(batch);
    while (dec.remaining() > 0) {
      size_t got = 0;
      ASSERT_TRUE(dec.DecodeBatch(batch, scratch.data(), &got).ok());
      decoded.insert(decoded.end(), scratch.begin(), scratch.begin() + got);
    }
    EXPECT_EQ(decoded, values) << "batch=" << batch;
  }
}

TEST(DeltaBatchTest, BlockGranularSkipInterleavesWithBatches) {
  std::vector<int64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(i * 3);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaInt64Decoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  ASSERT_TRUE(dec.Skip(129).ok());  // two full blocks + 1 (plus first value)
  std::vector<int64_t> scratch(100);
  size_t got = 0;
  ASSERT_TRUE(dec.DecodeBatch(100, scratch.data(), &got).ok());
  ASSERT_EQ(got, 100u);
  for (size_t i = 0; i < got; ++i) EXPECT_EQ(scratch[i], values[129 + i]);
  ASSERT_TRUE(dec.Skip(dec.remaining()).ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(DeltaBatchTest, SingleValueAndEmptyBatches) {
  DeltaInt64Encoder enc;
  enc.Add(42);
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaInt64Decoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  int64_t out[2] = {0, 0};
  size_t got = 0;
  ASSERT_TRUE(dec.DecodeBatch(2, out, &got).ok());
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(out[0], 42);
  ASSERT_TRUE(dec.DecodeBatch(2, out, &got).ok());
  EXPECT_EQ(got, 0u);
}

TEST(StringBatchTest, NextBatchRawReturnsContiguousPayload) {
  DeltaLengthStringEncoder enc;
  enc.Add(Slice("alpha"));
  enc.Add(Slice(""));
  enc.Add(Slice("bc"));
  enc.Add(Slice("delta"));
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  const int64_t* lengths = nullptr;
  Slice payload;
  ASSERT_TRUE(dec.NextBatchRaw(3, &lengths, &payload).ok());
  EXPECT_EQ(lengths[0], 5);
  EXPECT_EQ(lengths[1], 0);
  EXPECT_EQ(lengths[2], 2);
  EXPECT_EQ(payload.ToString(), "alphabc");
  Slice last;
  ASSERT_TRUE(dec.Next(&last).ok());
  EXPECT_EQ(last.ToString(), "delta");
  EXPECT_FALSE(dec.NextBatchRaw(1, &lengths, &payload).ok());
}

TEST(StringBatchTest, NextBatchSlicesInterleaveWithSkip) {
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) values.push_back("v" + std::to_string(i));
  DeltaLengthStringEncoder enc;
  for (const auto& v : values) enc.Add(Slice(v));
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  ASSERT_TRUE(dec.Skip(57).ok());
  std::vector<Slice> out(1000);
  size_t got = 0;
  ASSERT_TRUE(dec.NextBatch(1000, out.data(), &got).ok());  // clamped
  ASSERT_EQ(got, values.size() - 57);
  for (size_t i = 0; i < got; ++i) {
    EXPECT_EQ(out[i].ToString(), values[57 + i]) << i;
  }
}

}  // namespace
}  // namespace lsmcol

// Seeded mutation test for the AMAX megapage decoders: every megapage a
// column read decodes goes through ParseAmaxMegapage (string min/max
// prefix, LZ), then ColumnChunkReader::Init, NextEntryBatch, and the
// whole-chunk DecodeRecords and DecodeValues behind a cursor's RecordSpan.
// Real megapages of sensors and tweet_2 leaves, compressed and not, are fed
// whole, cut at every length and with seeded byte flips; each step must
// return OK or Corruption, and ASan/UBSan catch anything that reads out
// of bounds. A libFuzzer-free companion of tests/fuzz/: it runs wherever
// the tests do.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/layouts/amax.h"

namespace lsmcol {
namespace {

constexpr size_t kPageSize = 32 * 1024;
// Entries walked per input: a flipped header may claim 2^40 entries of an
// RLE run that decodes cleanly, which is slow, not wrong.
constexpr size_t kMaxEntries = 1 << 16;
constexpr size_t kBatch = 4096;
// Megapages mutated: per leaf, the largest of each column shape up to
// this size, so every truncation stays cheap under sanitizers.
constexpr size_t kMaxMegapageBytes = 4000;
constexpr int kFlipsPerMegapage = 1000;

struct Megapage {
  std::string raw;  // as stored: string prefix, then the (LZ) chunk
  ColumnInfo info;
};

// The megapages of AMAX leaves over generated `workload` documents, cut
// at several batch sizes (anti-matter included), keeping per leaf the
// largest of each (type, array depth) shape.
std::vector<Megapage> RealMegapages(Workload workload, bool compress) {
  const std::string path = testing::TempDir() + "/megapage_mutation_" +
                           WorkloadName(workload) +
                           (compress ? "_lz" : "_raw");
  RemoveFileIfExists(path);
  BufferCache cache(64 * kPageSize, kPageSize);
  Schema schema("id");
  {
    auto writer = ComponentWriter::Create(path, &cache, kPageSize);
    LSMCOL_CHECK_OK(writer.status());
    ColumnWriterSet writers(&schema);
    RecordShredder shredder(&schema, &writers);
    AmaxOptions options;
    options.page_size = kPageSize;
    options.compress = compress;
    Rng rng(11);
    int64_t id = 0;
    for (int batch : {7, 60, 200}) {
      for (int i = 0; i < batch; ++i, ++id) {
        LSMCOL_CHECK_OK(id % 13 == 4
                            ? shredder.ShredAntiMatter(id)
                            : shredder.Shred(MakeRecord(workload, id, &rng)));
      }
      LSMCOL_CHECK_OK(EmitAmaxLeaf(&writers, writer->get(), options));
    }
    LSMCOL_CHECK_OK((*writer)->Finish(Slice("")));
  }
  auto reader = ComponentReader::Open(path, &cache, kPageSize);
  LSMCOL_CHECK_OK(reader.status());
  std::map<std::tuple<size_t, int, int>, Megapage> chosen;
  for (size_t leaf = 0; leaf < (*reader)->leaves().size(); ++leaf) {
    Buffer payload;
    LSMCOL_CHECK_OK((*reader)->ReadLeaf(leaf, &payload));
    AmaxPageZero page0;
    LSMCOL_CHECK_OK(page0.Parse(payload.slice()));
    for (uint32_t c = 1; c < page0.column_count(); ++c) {
      const AmaxColumnExtent extent = page0.extent(static_cast<int>(c));
      if (extent.size == 0 || extent.size > kMaxMegapageBytes) continue;
      const ColumnInfo& info = schema.column(static_cast<int>(c));
      const auto shape = std::make_tuple(leaf, static_cast<int>(info.type),
                                         info.array_count());
      auto it = chosen.find(shape);
      if (it != chosen.end() && it->second.raw.size() >= extent.size) {
        continue;
      }
      chosen[shape] = {payload.slice().SubSlice(extent.offset, extent.size)
                           .ToString(),
                       info};
    }
  }
  LSMCOL_CHECK_OK((*reader)->Destroy());
  std::vector<Megapage> out;
  for (auto& [shape, megapage] : chosen) out.push_back(std::move(megapage));
  return out;
}

bool OkOrCorruption(const Status& st) { return st.ok() || st.IsCorruption(); }

// The whole-chunk decode behind a cursor's RecordSpan, values after the
// def levels; false once a step fails. Its status must be OK or
// Corruption, and a decode that succeeds must split into spans inside the
// entries, with value indices inside the values.
bool DecodeWhole(Slice chunk, const ColumnInfo& info) {
  ColumnChunkReader reader;
  Status st = reader.Init(chunk, info);
  EXPECT_TRUE(st.ok()) << st.ToString();  // it read once already
  ColumnEntryBatch batch;
  std::vector<uint32_t> starts;
  size_t values = 0;
  st = reader.DecodeRecords(&batch, &starts, &values);
  EXPECT_TRUE(OkOrCorruption(st)) << st.ToString();
  if (!st.ok()) return false;
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), batch.entry_count());
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
  for (const int32_t vi : batch.value_index) {
    EXPECT_GE(vi, -1);
    EXPECT_LT(vi, static_cast<int64_t>(values));
  }
  st = reader.DecodeValues(values, &batch);
  EXPECT_TRUE(OkOrCorruption(st)) << st.ToString();
  if (!st.ok()) return false;
  const size_t decoded = batch.ints.size() + batch.bools.size() +
                         batch.doubles.size() + batch.strings.size();
  EXPECT_EQ(decoded, values);
  return true;
}

// Decode `raw` as a column read does; false once a step fails. Every
// step's status must be OK or Corruption.
bool Decode(Slice raw, const ColumnInfo& info, bool compressed) {
  Buffer chunk;
  std::string lo, hi;
  Status st = ParseAmaxMegapage(raw, info, compressed, &chunk, &lo, &hi);
  EXPECT_TRUE(OkOrCorruption(st)) << st.ToString();
  if (!st.ok()) return false;
  ColumnChunkReader reader;
  st = reader.Init(chunk.slice(), info);
  EXPECT_TRUE(OkOrCorruption(st)) << st.ToString();
  if (!st.ok()) return false;
  // Both reads run whatever the other returns.
  const bool whole = reader.entry_count() > kMaxEntries ||
                     DecodeWhole(chunk.slice(), info);
  ColumnEntryBatch batch;
  size_t walked = 0;
  while (!reader.AtEnd() && walked < kMaxEntries) {
    st = reader.NextEntryBatch(kBatch, &batch);
    EXPECT_TRUE(OkOrCorruption(st)) << st.ToString();
    if (!st.ok()) return false;
    walked += batch.entry_count();
  }
  return whole;
}

class MegapageMutationTest
    : public ::testing::TestWithParam<std::pair<Workload, bool>> {};

TEST_P(MegapageMutationTest, TruncationsAndByteFlipsAreOkOrCorruption) {
  const auto [workload, compressed] = GetParam();
  const std::vector<Megapage> megapages = RealMegapages(workload, compressed);
  ASSERT_GE(megapages.size(), 10u);  // several column shapes per leaf
  Rng rng(static_cast<uint64_t>(workload) * 2 + (compressed ? 1 : 0));
  size_t rejected = 0, inputs = 0;
  for (const Megapage& megapage : megapages) {
    SCOPED_TRACE(megapage.info.path);
    const Slice whole(megapage.raw);
    ASSERT_TRUE(Decode(whole, megapage.info, compressed));
    for (size_t n = 0; n < whole.size(); ++n) {
      rejected += Decode(whole.SubSlice(0, n), megapage.info, compressed)
                      ? 0
                      : 1;
      ++inputs;
    }
    for (int i = 0; i < kFlipsPerMegapage; ++i) {
      std::string mutated = megapage.raw;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.Uniform(mutated.size())] ^=
            static_cast<char>(1 + rng.Uniform(255));
      }
      rejected += Decode(Slice(mutated), megapage.info, compressed) ? 0 : 1;
      ++inputs;
    }
    if (HasFailure()) return;
  }
  // The decoders do check: most damaged inputs are refused.
  EXPECT_GT(rejected, inputs / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Megapages, MegapageMutationTest,
    ::testing::Values(std::make_pair(Workload::kSensors, true),
                      std::make_pair(Workload::kSensors, false),
                      std::make_pair(Workload::kTweet2, true),
                      std::make_pair(Workload::kTweet2, false)),
    [](const auto& info) {
      return std::string(WorkloadName(info.param.first)) +
             (info.param.second ? "_lz" : "_raw");
    });

}  // namespace
}  // namespace lsmcol

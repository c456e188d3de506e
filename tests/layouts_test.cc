// Direct tests for the leaf layouts: APAX page structure and zone stats,
// AMAX mega-leaf layout (Page 0 contents, size-ordered megapages,
// empty-page tolerance, zone-filter prefixes), and row leaves. Zone maps
// are read as every reader reads them, through Component::ColumnZone.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <unistd.h>

#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/encoding/lz.h"
#include "src/json/parser.h"
#include "src/layouts/amax.h"
#include "src/layouts/apax.h"
#include "src/layouts/row_leaf.h"
#include "src/lsm/component.h"
#include "src/lsm/scan_predicate.h"

#include <sys/resource.h>

namespace lsmcol {
namespace {

constexpr size_t kPage = 4096;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/layouts_" + name;
}

// Builds chunk writers over simple records: {"id", "num", "txt"}.
struct Shredded {
  Schema schema{"id"};
  std::unique_ptr<ColumnWriterSet> writers;
  std::unique_ptr<RecordShredder> shredder;

  Shredded() {
    writers = std::make_unique<ColumnWriterSet>(&schema);
    shredder = std::make_unique<RecordShredder>(&schema, writers.get());
  }

  void Add(int64_t id, int64_t num, const std::string& txt) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(id));
    v.Set("num", Value::Int(num));
    v.Set("txt", Value::String(txt));
    LSMCOL_CHECK_OK(shredder->Shred(v));
  }
};

// Finish `writer` as a component of `layout` over `schema` and open it.
std::unique_ptr<Component> FinishComponent(ComponentWriter* writer,
                                           const std::string& path,
                                           LayoutKind layout, bool compressed,
                                           const Schema& schema,
                                           BufferCache* cache) {
  ComponentMeta meta;
  meta.layout = layout;
  meta.compressed = compressed;
  Buffer blob;
  meta.SerializeTo(&blob, &schema);
  LSMCOL_CHECK_OK(writer->Finish(blob.slice()));
  auto component = Component::Open(path, cache, kPage);
  LSMCOL_CHECK_OK(component.status());
  return std::move(*component);
}

// Leaf 0's zone map of `column_id`.
ZoneMap LeafZone(const Component& component, int column_id) {
  ColumnarLeaf leaf;
  LSMCOL_CHECK_OK(component.OpenColumnarLeaf(0, &leaf, CacheUse::kInstall));
  CacheHandle unit;
  ZoneMap zone;
  LSMCOL_CHECK_OK(component.ColumnZone(&leaf, column_id, &unit, &zone));
  return zone;
}

// Whether a predicate lo <= column <= hi (Missing: unbounded) may match
// a record of the zone.
bool ZoneOverlaps(const ZoneMap& zone, const ColumnInfo& info, Value lo,
                  Value hi) {
  ScanPredicate pred;
  pred.lower = std::move(lo);
  pred.upper = std::move(hi);
  return CompileScanPredicate(pred, info).OverlapsZone(zone);
}

TEST(ApaxLeafTest, HeaderAndChunksRoundTrip) {
  RemoveFileIfExists(TempPath("apax"));
  BufferCache cache(64 * kPage, kPage);
  auto writer = ComponentWriter::Create(TempPath("apax"), &cache, kPage);
  ASSERT_TRUE(writer.ok());
  Shredded data;
  for (int64_t i = 10; i < 50; ++i) data.Add(i, i * 7, "t" + std::to_string(i));
  ASSERT_TRUE(EmitApaxLeaf(data.writers.get(), writer->get(), true).ok());
  ASSERT_TRUE((*writer)->Finish(Slice("")).ok());

  auto reader = ComponentReader::Open(TempPath("apax"), &cache, kPage);
  ASSERT_TRUE(reader.ok());
  Buffer payload;
  ASSERT_TRUE((*reader)->ReadLeaf(0, &payload).ok());
  ApaxLeaf leaf;
  ASSERT_TRUE(leaf.Init(payload.slice(), true).ok());
  EXPECT_EQ(leaf.record_count(), 40u);
  EXPECT_EQ(leaf.column_count(), 3u);
  EXPECT_EQ(leaf.min_key(), 10);  // B+-tree ops read keys from the header
  EXPECT_EQ(leaf.max_key(), 49);
  // Every chunk decodes with the schema's column info.
  for (int c = 0; c < 3; ++c) {
    ColumnChunkReader chunk_reader;
    ASSERT_TRUE(
        chunk_reader.Init(leaf.chunk(c), data.schema.column(c)).ok());
    ColumnRecord rec;
    ASSERT_TRUE(chunk_reader.NextRecord(&rec).ok());
  }
  // Absent column id -> empty chunk.
  EXPECT_TRUE(leaf.chunk(7).empty());
  RemoveFileIfExists(TempPath("apax"));
}

// A compressed APAX leaf is decoded only as far as its reads reach: the
// head (stats and PK chunk) opens without decoding the chunks behind it,
// and a tail that passes its page checksums but does not LZ-decode fails
// the first read that reaches it, which quarantines the component.
TEST(ApaxLeafTest, UndecodableTailFailsTheFirstReadThatReachesIt) {
  const std::string path = TempPath("apax_tail");
  RemoveFileIfExists(path);
  BufferCache cache(64 * kPage, kPage);
  Shredded data;
  for (int64_t i = 0; i < 200; ++i) {
    data.Add(i, i * 3, "text " + std::to_string(i * 7919 % 1000));
  }
  // The leaf as stored: the uncompressed payload, LZ-compressed, with its
  // stream cut short. Page checksums cover the cut stream.
  Buffer payload;
  {
    auto raw = ComponentWriter::Create(path, &cache, kPage);
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(EmitApaxLeaf(data.writers.get(), raw->get(), false).ok());
    ASSERT_TRUE((*raw)->Finish(Slice("")).ok());
    auto reader = ComponentReader::Open(path, &cache, kPage);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE((*reader)->ReadLeaf(0, &payload).ok());
  }
  ApaxLeaf whole;
  ASSERT_TRUE(whole.Open(payload.slice(), false).ok());
  Buffer stream;
  LzCompress(payload.slice(), &stream);
  const Slice cut = stream.slice().SubSlice(0, stream.size() - 3);
  RemoveFileIfExists(path);
  auto writer = ComponentWriter::Create(path, &cache, kPage);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendLeaf(cut, 0, 199, 200).ok());
  auto component = FinishComponent(writer->get(), path, LayoutKind::kApax,
                                   true, data.schema, &cache);

  ApaxLeaf head_only;
  ASSERT_TRUE(head_only.Open(cut, true).ok());
  EXPECT_EQ(head_only.column_count(), 3u);
  Slice chunk;
  EXPECT_TRUE(head_only.Chunk(1, &chunk).ok());
  EXPECT_EQ(chunk, whole.chunk(1));  // pointers differ, bytes agree
  EXPECT_TRUE(head_only.Chunk(2, &chunk).IsCorruption());
  ApaxLeaf all;
  EXPECT_TRUE(all.Init(cut, true).IsCorruption());

  ColumnarLeaf leaf;
  ASSERT_TRUE(component->OpenColumnarLeaf(0, &leaf, CacheUse::kOneShot).ok());
  CacheHandle unit;
  ASSERT_TRUE(component->ColumnChunk(&leaf, 1, &unit, &chunk).ok());
  EXPECT_FALSE(component->quarantined());
  EXPECT_TRUE(component->ColumnChunk(&leaf, 2, &unit, &chunk).IsCorruption());
  EXPECT_TRUE(component->quarantined());
  RemoveFileIfExists(path);
}

// Open checks every zone-stats entry but decodes none; a column's zone
// map decodes its entry from the column's unit.
TEST(ApaxLeafTest, StatsCheckedAtParseReadAsColumnZones) {
  RemoveFileIfExists(TempPath("apax_stats"));
  BufferCache cache(64 * kPage, kPage);
  auto writer = ComponentWriter::Create(TempPath("apax_stats"), &cache, kPage);
  ASSERT_TRUE(writer.ok());
  Shredded data;
  for (int64_t i = 10; i < 50; ++i) data.Add(i, i * 7, "t" + std::to_string(i));
  ASSERT_TRUE(EmitApaxLeaf(data.writers.get(), writer->get(), false).ok());
  // A field first seen after the leaf was cut: a column it predates.
  Value later = Value::MakeObject();
  later.Set("id", Value::Int(50));
  later.Set("later", Value::Int(1));
  ASSERT_TRUE(data.shredder->Shred(later).ok());
  ASSERT_EQ(data.schema.column_count(), 4);
  auto component =
      FinishComponent(writer->get(), TempPath("apax_stats"), LayoutKind::kApax,
                      false, data.schema, &cache);

  const ZoneMap num = LeafZone(*component, 1);
  EXPECT_TRUE(num.has_values);
  EXPECT_EQ(num.type, AtomicType::kInt64);
  EXPECT_EQ(num.min_int, 70);
  EXPECT_EQ(num.max_int, 343);
  const ColumnInfo& num_info = data.schema.column(1);
  EXPECT_TRUE(ZoneOverlaps(num, num_info, Value::Int(343), Value::Missing()));
  EXPECT_FALSE(ZoneOverlaps(num, num_info, Value::Int(344), Value::Missing()));
  EXPECT_FALSE(ZoneOverlaps(num, num_info, Value::Missing(), Value::Int(69)));
  const ZoneMap txt = LeafZone(*component, 2);
  EXPECT_EQ(txt.type, AtomicType::kString);
  EXPECT_FALSE(txt.string_prefixes);  // APAX keeps the full values
  EXPECT_EQ(txt.min_string, "t10");
  EXPECT_EQ(txt.max_string, "t49");
  const ColumnInfo& txt_info = data.schema.column(2);
  EXPECT_TRUE(ZoneOverlaps(txt, txt_info, Value::String("t49"),
                           Value::String("t49")));
  EXPECT_FALSE(ZoneOverlaps(txt, txt_info, Value::String("t490"),
                            Value::Missing()));
  EXPECT_FALSE(LeafZone(*component, 3).has_values);  // predates the column

  // The unit a zone read pins serves the column's chunk without a fetch.
  ColumnarLeaf leaf;
  ASSERT_TRUE(component->OpenColumnarLeaf(0, &leaf, CacheUse::kInstall).ok());
  CacheHandle unit;
  ZoneMap zone;
  ASSERT_TRUE(component->ColumnZone(&leaf, 1, &unit, &zone).ok());
  ASSERT_TRUE(unit.valid());
  const uint64_t hits = cache.stats().hits;
  const uint64_t misses = cache.stats().misses;
  Slice chunk;
  ASSERT_TRUE(component->ColumnChunk(&leaf, 1, &unit, &chunk).ok());
  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().misses, misses);
  Buffer payload;
  ASSERT_TRUE(component->ReadLeaf(0, &payload).ok());
  ApaxLeaf parsed;
  ASSERT_TRUE(parsed.Open(payload.slice(), false).ok());
  EXPECT_EQ(chunk, parsed.chunk(1));

  // Every truncation is Corruption.
  for (size_t n = 0; n < payload.size(); ++n) {
    ApaxLeaf cut;
    EXPECT_TRUE(cut.Open(Slice(payload.data(), n), false).IsCorruption()) << n;
  }
  // So is a bad type byte in any entry, the first one here: the stats
  // table follows the header and the chunk sizes.
  Buffer header;
  header.AppendVarint64(40);
  header.AppendVarint64(3);
  header.AppendSignedVarint64(10);
  header.AppendSignedVarint64(49);
  for (int c = 0; c < 3; ++c) header.AppendVarint64(parsed.chunk(c).size());
  Buffer bad;
  bad.Append(payload.slice());
  ASSERT_EQ(bad.data()[header.size()], 1);  // column 0 has stats
  bad.mutable_data()[header.size() + 1] = 9;
  ApaxLeaf rejected;
  EXPECT_TRUE(rejected.Open(bad.slice(), false).IsCorruption());
  RemoveFileIfExists(TempPath("apax_stats"));
}

TEST(AmaxLeafTest, PageZeroLayoutAndMegapageOrdering) {
  RemoveFileIfExists(TempPath("amax"));
  BufferCache cache(256 * kPage, kPage);
  auto writer = ComponentWriter::Create(TempPath("amax"), &cache, kPage);
  ASSERT_TRUE(writer.ok());
  Shredded data;
  Rng rng(1);
  for (int64_t i = 0; i < 400; ++i) {
    // txt is much fatter than num, so its megapage must come first.
    data.Add(i, 1000 + (i % 50), rng.Word(40, 60));
  }
  AmaxOptions options;
  options.page_size = kPage;
  options.compress = false;
  ASSERT_TRUE(EmitAmaxLeaf(data.writers.get(), writer->get(), options).ok());
  auto component =
      FinishComponent(writer->get(), TempPath("amax"), LayoutKind::kAmax,
                      false, data.schema, &cache);

  auto reader = ComponentReader::Open(TempPath("amax"), &cache, kPage);
  ASSERT_TRUE(reader.ok());
  Buffer page0_bytes;
  ASSERT_TRUE((*reader)->ReadLeafRange(0, 0, kPage, &page0_bytes).ok());
  AmaxPageZero page0;
  ASSERT_TRUE(page0.Init(page0_bytes.slice()).ok());
  EXPECT_EQ(page0.record_count(), 400u);
  EXPECT_EQ(page0.column_count(), 3u);
  EXPECT_EQ(page0.min_key(), 0);
  EXPECT_EQ(page0.max_key(), 399);

  const AmaxColumnExtent& num = page0.extent(1);
  const AmaxColumnExtent& txt = page0.extent(2);
  ASSERT_GT(num.size, 0u);
  ASSERT_GT(txt.size, 0u);
  // Megapages start after Page 0; larger (txt) placed first (§4.3).
  EXPECT_GE(txt.offset, kPage);
  EXPECT_GT(txt.size, num.size);
  EXPECT_GT(num.offset, txt.offset);

  // Zone maps from the Page-0 prefixes: num values are 1000..1049.
  const ZoneMap num_zone = LeafZone(*component, 1);
  const ColumnInfo& num_info = data.schema.column(1);
  EXPECT_TRUE(
      ZoneOverlaps(num_zone, num_info, Value::Int(1049), Value::Int(2000)));
  EXPECT_TRUE(
      ZoneOverlaps(num_zone, num_info, Value::Int(900), Value::Int(1000)));
  EXPECT_FALSE(
      ZoneOverlaps(num_zone, num_info, Value::Int(0), Value::Int(999)));
  EXPECT_FALSE(
      ZoneOverlaps(num_zone, num_info, Value::Int(1050), Value::Int(9999)));

  // The txt megapage decodes after stripping its full min/max prefix.
  Buffer raw;
  ASSERT_TRUE((*reader)->ReadLeafRange(0, txt.offset, txt.size, &raw).ok());
  Buffer chunk;
  std::string lo, hi;
  ASSERT_TRUE(ParseAmaxMegapage(raw.slice(), data.schema.column(2), false,
                                &chunk, &lo, &hi)
                  .ok());
  EXPECT_FALSE(lo.empty());
  EXPECT_LE(lo, hi);
  ColumnChunkReader txt_reader;
  ASSERT_TRUE(txt_reader.Init(chunk.slice(), data.schema.column(2)).ok());
  ColumnRecord rec;
  ASSERT_TRUE(txt_reader.NextRecord(&rec).ok());
  EXPECT_EQ(rec.values.size(), 1u);

  // String zones hold 8-byte prefixes: a bound past the max but sharing
  // its first 8 bytes may match; one past them may not.
  const ZoneMap txt_zone = LeafZone(*component, 2);
  const ColumnInfo& txt_info = data.schema.column(2);
  EXPECT_TRUE(txt_zone.string_prefixes);
  EXPECT_EQ(txt_zone.min_string, lo.substr(0, 8));
  EXPECT_EQ(txt_zone.max_string, hi.substr(0, 8));
  EXPECT_TRUE(ZoneOverlaps(txt_zone, txt_info, Value::String(lo),
                           Value::String(lo)));
  EXPECT_TRUE(ZoneOverlaps(txt_zone, txt_info, Value::String(hi + "~"),
                           Value::Missing()));
  EXPECT_FALSE(ZoneOverlaps(txt_zone, txt_info,
                            Value::String(hi.substr(0, 7) + "~"),
                            Value::Missing()));
  EXPECT_FALSE(ZoneOverlaps(txt_zone, txt_info, Value::Missing(),
                            Value::String("")));
  component.reset();
  RemoveFileIfExists(TempPath("amax"));
}

class AmaxToleranceTest : public ::testing::TestWithParam<double> {};

TEST_P(AmaxToleranceTest, ExtentsNeverOverlapAndRespectTolerance) {
  const double tolerance = GetParam();
  RemoveFileIfExists(TempPath("tol"));
  BufferCache cache(256 * kPage, kPage);
  auto writer = ComponentWriter::Create(TempPath("tol"), &cache, kPage);
  ASSERT_TRUE(writer.ok());
  // Many columns of varying sizes.
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  Rng rng(2);
  for (int64_t i = 0; i < 300; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    for (int f = 0; f < 6; ++f) {
      v.Set("f" + std::to_string(f),
            Value::String(rng.Word(5 * (f + 1), 8 * (f + 1))));
    }
    ASSERT_TRUE(shredder.Shred(v).ok());
  }
  AmaxOptions options;
  options.page_size = kPage;
  options.compress = false;
  options.empty_page_tolerance = tolerance;
  ASSERT_TRUE(EmitAmaxLeaf(&writers, writer->get(), options).ok());
  ASSERT_TRUE((*writer)->Finish(Slice("")).ok());

  auto reader = ComponentReader::Open(TempPath("tol"), &cache, kPage);
  ASSERT_TRUE(reader.ok());
  Buffer page0_bytes;
  ASSERT_TRUE((*reader)->ReadLeafRange(0, 0, kPage, &page0_bytes).ok());
  AmaxPageZero page0;
  ASSERT_TRUE(page0.Init(page0_bytes.slice()).ok());
  // Collect extents, check pairwise disjointness and in-bounds.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (uint32_t c = 1; c < page0.column_count(); ++c) {
    const AmaxColumnExtent& e = page0.extent(static_cast<int>(c));
    if (e.size == 0) continue;
    EXPECT_GE(e.offset, kPage);
    EXPECT_LE(e.offset + e.size, (*reader)->leaves()[0].payload_size);
    ranges.emplace_back(e.offset, e.offset + e.size);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i - 1].second, ranges[i].first);
  }
  RemoveFileIfExists(TempPath("tol"));
}

INSTANTIATE_TEST_SUITE_P(Tolerances, AmaxToleranceTest,
                         ::testing::Values(0.0, 0.125, 0.5, 1.0));

TEST(AmaxLeafTest, Page0OverflowIsReportedNotCorrupted) {
  RemoveFileIfExists(TempPath("ovf"));
  BufferCache cache(64 * kPage, kPage);
  auto writer = ComponentWriter::Create(TempPath("ovf"), &cache, kPage);
  ASSERT_TRUE(writer.ok());
  Shredded data;
  // 4 KiB pages cannot hold ~20k PKs in Page 0.
  for (int64_t i = 0; i < 20000; ++i) {
    data.Add(i * 1000003 % 777777, i, "x");  // non-monotone keys, wide delta
  }
  AmaxOptions options;
  options.page_size = kPage;
  Status st = EmitAmaxLeaf(data.writers.get(), writer->get(), options);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  RemoveFileIfExists(TempPath("ovf"));
}

// A Page 0 header (record count, column count, key range, PK chunk size)
// followed by `tail` zero bytes.
Buffer Page0Header(uint32_t column_count, size_t tail) {
  Buffer page0;
  page0.AppendFixed32(1);
  page0.AppendFixed32(column_count);
  page0.AppendFixed64(0);
  page0.AppendFixed64(0);
  page0.AppendFixed32(0);
  page0.AppendZeros(tail);
  return page0;
}

// Caps the address space at its current size plus `bytes`, so a runaway
// allocation fails at once instead of taking the machine's memory.
bool LimitAddressSpaceGrowth(uint64_t bytes) {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  if (!(statm >> pages)) return false;
  const uint64_t limit =
      pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) + bytes;
  const rlimit rl{limit, limit};
  return setrlimit(RLIMIT_AS, &rl) == 0;
}

TEST(AmaxLeafTest, ColumnTableBeyondThePageIsCorruption) {
  // 32 bytes per non-PK column: one fits in 32 bytes, two do not.
  AmaxPageZero page0;
  EXPECT_TRUE(page0.Init(Page0Header(2, 32).slice()).ok());
  EXPECT_TRUE(page0.Init(Page0Header(3, 32).slice()).IsCorruption());
  // A 44-byte Page 0 declaring ~2^32 columns must be rejected before the
  // table is sized by it (~128 GiB of extents). Run in a child whose
  // address space may grow by 1 GiB only.
  const Buffer huge = Page0Header(0xFFFFFFF0u, 16);
  ASSERT_EQ(huge.size(), 44u);
  EXPECT_EXIT(
      {
        if (!LimitAddressSpaceGrowth(1ull << 30)) std::_Exit(2);
        AmaxPageZero parsed;
        const Status st = parsed.Init(huge.slice());
        std::_Exit(st.IsCorruption() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(RowLeafTest, BuilderSplitsAtPageBudget) {
  RemoveFileIfExists(TempPath("rows"));
  BufferCache cache(64 * kPage, kPage);
  auto writer = ComponentWriter::Create(TempPath("rows"), &cache, kPage);
  ASSERT_TRUE(writer.ok());
  RowLeafBuilder builder(writer->get(), kPage, /*compress=*/false);
  const std::string row(600, 'r');
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(builder.Add(i, false, Slice(row)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE((*writer)->Finish(Slice("")).ok());
  auto reader = ComponentReader::Open(TempPath("rows"), &cache, kPage);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT((*reader)->leaves().size(), 4u);  // 50*600B over 4KiB pages
  uint32_t total = 0;
  int64_t expected_key = 0;
  for (size_t leaf = 0; leaf < (*reader)->leaves().size(); ++leaf) {
    Buffer payload;
    ASSERT_TRUE((*reader)->ReadLeaf(leaf, &payload).ok());
    RowLeafReader leaf_reader;
    ASSERT_TRUE(leaf_reader.Init(payload.slice()).ok());
    while (!leaf_reader.AtEnd()) {
      int64_t key = 0;
      bool anti = false;
      Slice r;
      ASSERT_TRUE(leaf_reader.Next(&key, &anti, &r).ok());
      EXPECT_EQ(key, expected_key++);
      EXPECT_EQ(r.size(), row.size());
      ++total;
    }
  }
  EXPECT_EQ(total, 50u);
  RemoveFileIfExists(TempPath("rows"));
}

}  // namespace
}  // namespace lsmcol

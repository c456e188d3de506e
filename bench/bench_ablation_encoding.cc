// Ablation A1 (§4.1 design choice): per-encoding size and speed on the
// column value distributions the workloads produce. Uses google-benchmark
// for the micro timings, then prints a size comparison table.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/encoding/delta.h"
#include "src/encoding/lz.h"
#include "src/encoding/rle.h"
#include "src/encoding/strings.h"
#include "src/layouts/apax.h"
#include "src/storage/component_file.h"
#include "src/storage/file.h"

namespace lsmcol {
namespace {

std::vector<int64_t> MonotoneInts(size_t n) {
  Rng rng(1);
  std::vector<int64_t> v;
  int64_t x = 1460000000000;
  for (size_t i = 0; i < n; ++i) {
    x += static_cast<int64_t>(rng.Uniform(2000));
    v.push_back(x);
  }
  return v;
}

std::vector<int64_t> RandomInts(size_t n) {
  Rng rng(2);
  std::vector<int64_t> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<int64_t>(rng.Next()));
  }
  return v;
}

std::vector<std::string> Texts(size_t n) {
  Rng rng(3);
  std::vector<std::string> v;
  for (size_t i = 0; i < n; ++i) v.push_back(SyntheticText(&rng, 5, 30));
  return v;
}

void BM_DeltaEncodeMonotone(benchmark::State& state) {
  auto values = MonotoneInts(10000);
  for (auto _ : state) {
    DeltaInt64Encoder enc;
    for (int64_t v : values) enc.Add(v);
    Buffer out;
    enc.FinishInto(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DeltaEncodeMonotone);

void BM_DeltaDecodeMonotone(benchmark::State& state) {
  auto values = MonotoneInts(10000);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer encoded;
  enc.FinishInto(&encoded);
  for (auto _ : state) {
    DeltaInt64Decoder dec;
    LSMCOL_CHECK_OK(dec.Init(encoded.slice()));
    std::vector<int64_t> out;
    LSMCOL_CHECK_OK(dec.DecodeAll(&out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DeltaDecodeMonotone);

void BM_RleEncodeDefLevels(benchmark::State& state) {
  // Typical def-level stream: mostly-present values with runs of nulls.
  Rng rng(4);
  std::vector<uint64_t> levels;
  for (int i = 0; i < 10000; ++i) {
    levels.push_back(rng.Bernoulli(0.9) ? 3 : rng.Uniform(3));
  }
  for (auto _ : state) {
    RleEncoder enc(2);
    for (uint64_t v : levels) enc.Add(v);
    Buffer out;
    enc.FinishInto(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_RleEncodeDefLevels);

void BM_StringDeltaLengthEncode(benchmark::State& state) {
  auto texts = Texts(2000);
  for (auto _ : state) {
    DeltaLengthStringEncoder enc;
    for (const auto& t : texts) enc.Add(Slice(t));
    Buffer out;
    enc.FinishInto(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_StringDeltaLengthEncode);

// The page-trailer check over one 128 KiB page: PageChecksum (the v4
// trailer, 4 lanes of 64-bit words) against the byte-serial FNV-1a that
// v3 trailers used and WAL frames and manifests still use.
std::string ChecksumPage() {
  Rng rng(4);
  std::string page(kDefaultPageSize, '\0');
  for (char& c : page) c = static_cast<char>(rng.Next());
  return page;
}

void BM_PageChecksum(benchmark::State& state) {
  const std::string page = ChecksumPage();
  uint64_t page_no = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageChecksum(Slice(page), page_no++));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_PageChecksum);

void BM_Fnv1a32Page(benchmark::State& state) {
  const std::string page = ChecksumPage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a32(Slice(page)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Fnv1a32Page);

void BM_LzCompressTextPage(benchmark::State& state) {
  Rng rng(5);
  std::string page;
  while (page.size() < 128 * 1024) {
    page += SyntheticText(&rng, 20, 40);
    page.push_back('\n');
  }
  for (auto _ : state) {
    Buffer out;
    LzCompress(Slice(page), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_LzCompressTextPage);

void BM_LzDecompressTextPage(benchmark::State& state) {
  Rng rng(5);
  std::string page;
  while (page.size() < 128 * 1024) {
    page += SyntheticText(&rng, 20, 40);
    page.push_back('\n');
  }
  Buffer compressed;
  LzCompress(Slice(page), &compressed);
  for (auto _ : state) {
    Buffer out;
    LSMCOL_CHECK_OK(LzDecompress(compressed.slice(), &out));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_LzDecompressTextPage);

// Megapage-shaped LZ inputs. tweet_2's AMAX column megapages (~34 KB each)
// compress into short matches: about 1.1M match tokens averaging ~6 bytes
// and 0.2M literal tokens per 9 MB. Here 256 recurring 4-9-byte values
// follow each other, with a short literal run every tenth value or so.
std::string ShortMatchMegapage() {
  Rng rng(6);
  std::vector<std::string> values(256);
  for (auto& v : values) {
    const size_t len = 4 + rng.Uniform(6);
    for (size_t i = 0; i < len; ++i) v.push_back(static_cast<char>(rng.Next()));
  }
  std::string page;
  while (page.size() < 34 * 1024) {
    if (rng.Bernoulli(0.1)) {
      const size_t run = 1 + rng.Uniform(23);
      for (size_t i = 0; i < run; ++i) {
        page.push_back(static_cast<char>(rng.Next()));
      }
    } else {
      page += values[rng.Uniform(values.size())];
    }
  }
  return page;
}

// sensors' `readings` megapages: random doubles, ~143 KB, which LZ leaves
// as 127-byte literal runs.
std::string DoublesMegapage() {
  Rng rng(7);
  std::string page;
  while (page.size() < 143 * 1024) {
    const double v = -40.0 + 100.0 * rng.NextDouble();
    page.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return page;
}

// Per-MB token counts and mean match length of an LZ stream, reported as
// counters so the inputs' shape sits next to their speed.
void SetLzShapeCounters(benchmark::State& state, Slice stream, size_t raw) {
  BufferReader r(stream);
  uint64_t len = 0;
  LSMCOL_CHECK_OK(r.ReadVarint64(&len));
  double matches = 0, literals = 0, match_bytes = 0;
  while (!r.empty()) {
    uint8_t tag = 0;
    LSMCOL_CHECK_OK(r.ReadByte(&tag));
    if ((tag & 1) == 0) {
      ++literals;
      LSMCOL_CHECK_OK(r.Skip(tag >> 1));
    } else {
      uint64_t offset = 0;
      LSMCOL_CHECK_OK(r.ReadVarint64(&offset));
      ++matches;
      match_bytes += (tag >> 1) + 4;
    }
  }
  const double mb = static_cast<double>(raw) / (1 << 20);
  state.counters["match_tokens_per_MB"] = matches / mb;
  state.counters["literal_tokens_per_MB"] = literals / mb;
  state.counters["mean_match_B"] = matches > 0 ? match_bytes / matches : 0;
  state.counters["ratio"] =
      static_cast<double>(raw) / static_cast<double>(stream.size());
}

void LzCompressBench(benchmark::State& state, const std::string& page) {
  Buffer out;
  for (auto _ : state) {
    out = Buffer();
    LzCompress(Slice(page), &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
  SetLzShapeCounters(state, out.slice(), page.size());
}

void LzDecompressBench(benchmark::State& state, const std::string& page) {
  Buffer compressed;
  LzCompress(Slice(page), &compressed);
  // One reused buffer, as the readers reuse their megapage buffers.
  Buffer out;
  for (auto _ : state) {
    out.clear();
    LSMCOL_CHECK_OK(LzDecompress(compressed.slice(), &out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
  SetLzShapeCounters(state, compressed.slice(), page.size());
}

void BM_LzCompressShortMatchMegapage(benchmark::State& state) {
  LzCompressBench(state, ShortMatchMegapage());
}
BENCHMARK(BM_LzCompressShortMatchMegapage);

void BM_LzDecompressShortMatchMegapage(benchmark::State& state) {
  LzDecompressBench(state, ShortMatchMegapage());
}
BENCHMARK(BM_LzDecompressShortMatchMegapage);

void BM_LzCompressDoublesMegapage(benchmark::State& state) {
  LzCompressBench(state, DoublesMegapage());
}
BENCHMARK(BM_LzCompressDoublesMegapage);

void BM_LzDecompressDoublesMegapage(benchmark::State& state) {
  LzDecompressBench(state, DoublesMegapage());
}
BENCHMARK(BM_LzDecompressDoublesMegapage);

// Real payloads, uncompressed, as the write path hands them to LZ.

// One wos APAX leaf: generated documents shredded until the pending
// chunks fill a 128 KiB page, the flush's cut rule.
std::string WosApaxLeafPayload() {
  constexpr size_t kPage = 128u << 10;
  const std::string path =
      (std::filesystem::temp_directory_path() / "lsmcol_bench_wos_leaf")
          .string();
  BufferCache cache(8 * kPage, kPage);
  auto writer = ComponentWriter::Create(path, &cache, kPage);
  LSMCOL_CHECK_OK(writer.status());
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  Rng rng(8);
  for (int64_t id = 0; writers.EstimatedTotalSize() < kPage; ++id) {
    LSMCOL_CHECK_OK(shredder.Shred(MakeRecord(Workload::kWos, id, &rng)));
  }
  LSMCOL_CHECK_OK(EmitApaxLeaf(&writers, writer->get(), /*compress=*/false));
  LSMCOL_CHECK_OK((*writer)->Finish(Slice("")));
  auto reader = ComponentReader::Open(path, &cache, kPage);
  LSMCOL_CHECK_OK(reader.status());
  Buffer payload;
  LSMCOL_CHECK_OK((*reader)->ReadLeaf(0, &payload));
  RemoveFileIfExists(path);
  return payload.slice().ToString();
}

// The largest column chunk of a tweet_2 AMAX leaf of 2,000 documents,
// about what a 1 MiB memtable flush holds.
std::string Tweet2AmaxMegapage() {
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  Rng rng(9);
  for (int64_t id = 0; id < 2000; ++id) {
    LSMCOL_CHECK_OK(shredder.Shred(MakeRecord(Workload::kTweet2, id, &rng)));
  }
  std::string largest;
  for (size_t c = 1; c < writers.column_count(); ++c) {
    Buffer chunk;
    writers.writer(static_cast<int>(c)).FinishInto(&chunk);
    if (chunk.size() > largest.size()) largest = chunk.slice().ToString();
  }
  return largest;
}

void BM_LzCompressWosApaxLeaf(benchmark::State& state) {
  LzCompressBench(state, WosApaxLeafPayload());
}
BENCHMARK(BM_LzCompressWosApaxLeaf);

void BM_LzDecompressWosApaxLeaf(benchmark::State& state) {
  LzDecompressBench(state, WosApaxLeafPayload());
}
BENCHMARK(BM_LzDecompressWosApaxLeaf);

void BM_LzCompressTweet2AmaxMegapage(benchmark::State& state) {
  LzCompressBench(state, Tweet2AmaxMegapage());
}
BENCHMARK(BM_LzCompressTweet2AmaxMegapage);

void BM_LzDecompressTweet2AmaxMegapage(benchmark::State& state) {
  LzDecompressBench(state, Tweet2AmaxMegapage());
}
BENCHMARK(BM_LzDecompressTweet2AmaxMegapage);

void PrintSizeTable() {
  std::printf("\n==== Ablation A1: encoded sizes (10k values) ====\n");
  std::printf("%-28s %12s %12s %8s\n", "encoding / distribution", "raw",
              "encoded", "ratio");
  auto report = [](const char* name, size_t raw, size_t encoded) {
    std::printf("%-28s %12zu %12zu %7.2fx\n", name, raw, encoded,
                static_cast<double>(raw) / static_cast<double>(encoded));
  };
  {
    auto values = MonotoneInts(10000);
    DeltaInt64Encoder enc;
    for (int64_t v : values) enc.Add(v);
    Buffer out;
    enc.FinishInto(&out);
    report("delta int64 / monotone", values.size() * 8, out.size());
  }
  {
    auto values = RandomInts(10000);
    DeltaInt64Encoder enc;
    for (int64_t v : values) enc.Add(v);
    Buffer out;
    enc.FinishInto(&out);
    report("delta int64 / random", values.size() * 8, out.size());
  }
  {
    Rng rng(4);
    RleEncoder enc(2);
    for (int i = 0; i < 10000; ++i) {
      enc.Add(rng.Bernoulli(0.9) ? 3 : rng.Uniform(3));
    }
    Buffer out;
    enc.FinishInto(&out);
    report("RLE hybrid / def levels", 10000, out.size());
  }
  {
    auto texts = Texts(10000);
    size_t raw = 0;
    DeltaLengthStringEncoder enc;
    for (const auto& t : texts) {
      raw += t.size() + 4;
      enc.Add(Slice(t));
    }
    Buffer out;
    enc.FinishInto(&out);
    report("delta-length / text", raw, out.size());
    Buffer lz;
    LzCompress(out.slice(), &lz);
    report("  + LZ page compression", raw, lz.size());
  }
  {
    std::vector<std::string> ids;
    for (int i = 0; i < 10000; ++i) {
      ids.push_back("user_prefix_" + std::to_string(1000000 + i));
    }
    size_t raw = 0;
    DeltaLengthStringEncoder plain;
    for (const auto& s : ids) {
      raw += s.size() + 4;
      plain.Add(Slice(s));
    }
    Buffer p;
    plain.FinishInto(&p);
    report("delta-length / sorted ids", raw, p.size());
  }
}

}  // namespace
}  // namespace lsmcol

int main(int argc, char** argv) {
  lsmcol::PrintSizeTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

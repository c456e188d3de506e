// Figure 13a: ingestion time per dataset per layout. Insert-only for
// cell/sensors/tweet_1/wos; update-intensive (50% uniform updates of
// previously ingested records) with a timestamp secondary index and a
// primary-key index for tweet_2, as in §6.3.2.
//
// Expected shape (paper): VB fastest (single-pass record construction);
// Open slower (recursive leaf-to-root copying); APAX worst on tweet_1
// (hundreds of per-page temporary buffers); AMAX ~ Open on tweet_1;
// update-intensive tweet_2: APAX/AMAX ~24%/~35% slower than Open (point
// lookups decode columnar keys linearly).
//
// Usage: bench_fig13_ingestion [--json PATH] [--threads N]
//   --json PATH  record per-cell results as a JSON array.
//   --threads N  concurrent-client mode: for every insert-only workload
//                and layout, ingest once on the synchronous path (the
//                single writer runs every flush and merge task — the
//                paper's setup) and once with N writer threads over a
//                FlushMergeScheduler (background flush/merge off the
//                write path), reporting both times and the speedup. Both
//                runs end fully flushed with the merge policy satisfied.
//                The update-intensive tweet_2 row is skipped in this
//                mode (secondary-index maintenance is single-writer).

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/lsm/memtable.h"
#include "src/lsm/scheduler.h"

namespace lsmcol::bench {
namespace {

/// Memtable budget for the sync-vs-concurrent comparison: ~1/12 of the
/// estimated ingest volume (sampled row encodings), clamped to [256 KiB,
/// 12 MiB — the paper-configured budget]. Both legs use the same value,
/// so each run rotates the memtable enough times for background flushing
/// to matter regardless of LSMCOL_BENCH_SCALE.
size_t ComparisonMemtableBytes(Workload w, uint64_t records) {
  Rng rng(7);
  const RowCodec& codec = GetRowCodec(LayoutKind::kVb);
  size_t sampled = 0;
  constexpr int kSamples = 64;
  for (int i = 0; i < kSamples; ++i) {
    Buffer row;
    codec.Encode(MakeRecord(w, i, &rng), &row);
    sampled += row.size() + MemTable::kEntryOverhead;
  }
  if (const char* env = std::getenv("LSMCOL_BENCH_MEMTABLE")) {
    return static_cast<size_t>(std::atoll(env));  // experiments only
  }
  const double estimated_total =
      static_cast<double>(sampled) / kSamples * static_cast<double>(records);
  const double budget = estimated_total / 12.0;
  if (budget < 256.0 * 1024) return 256u * 1024;
  if (budget > 12.0 * 1024 * 1024) return 12u << 20;
  return static_cast<size_t>(budget);
}

DatasetOptions ComparisonOptions(const Workspace& ws, Workload w,
                                 LayoutKind layout, uint64_t records,
                                 const char* suffix) {
  auto options = BenchOptions(ws, layout,
                              std::string(WorkloadName(w)) + "_" +
                                  LayoutKindName(layout) + suffix);
  options.amax_max_records = BenchAmaxMaxRecords(records);
  options.memtable_bytes = ComparisonMemtableBytes(w, records);
  return options;
}

/// Synchronous leg: one writer that runs its own flush and merge tasks
/// (the dataset's zero-worker scheduler).
double BuildSync(Workspace* ws, Workload w, LayoutKind layout,
                 uint64_t records) {
  auto ds = Dataset::Open(ComparisonOptions(*ws, w, layout, records, "_sy"),
                          ws->cache.get());
  LSMCOL_CHECK(ds.ok());
  Rng rng(42);
  Timer timer;
  for (uint64_t i = 0; i < records; ++i) {
    Value v = MakeRecord(w, static_cast<int64_t>(i), &rng);
    LSMCOL_CHECK_OK((*ds)->Insert(v));
  }
  LSMCOL_CHECK_OK((*ds)->Flush());
  const double seconds = timer.Seconds();
  if (std::getenv("LSMCOL_BENCH_DEBUG") != nullptr) {
    const DatasetStats stats = (*ds)->stats();
    std::fprintf(stderr, "[debug] %s/%s sync=%.2fs flushes=%llu merges=%llu\n",
                 WorkloadName(w), LayoutKindName(layout), seconds,
                 static_cast<unsigned long long>(stats.flushes),
                 static_cast<unsigned long long>(stats.merges));
  }
  return seconds;
}

/// Concurrent leg: `threads` writers over disjoint contiguous key
/// stripes, 2 background workers flushing/merging, timed until all data
/// is flushed and the merge policy is satisfied (comparable to the sync
/// leg, which does the same work inline).
double BuildConcurrent(Workspace* ws, Workload w, LayoutKind layout,
                       uint64_t records, int threads) {
  // As many background workers as clients: sealed memtables build into
  // components in parallel (ordered publication), merges take one more.
  FlushMergeScheduler scheduler(threads);
  auto options = ComparisonOptions(*ws, w, layout, records, "_mt");
  options.scheduler = &scheduler;
  auto ds = Dataset::Open(options, ws->cache.get());
  LSMCOL_CHECK(ds.ok());
  Timer timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(42 + static_cast<uint64_t>(t));
      const uint64_t begin = records * static_cast<uint64_t>(t) /
                             static_cast<uint64_t>(threads);
      const uint64_t end = records * (static_cast<uint64_t>(t) + 1) /
                           static_cast<uint64_t>(threads);
      for (uint64_t i = begin; i < end; ++i) {
        Value v = MakeRecord(w, static_cast<int64_t>(i), &rng);
        LSMCOL_CHECK_OK((*ds)->Insert(v));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double ingest_seconds = timer.Seconds();
  LSMCOL_CHECK_OK((*ds)->Flush());
  LSMCOL_CHECK_OK((*ds)->WaitForBackgroundWork());
  const double seconds = timer.Seconds();
  if (std::getenv("LSMCOL_BENCH_DEBUG") != nullptr) {
    const DatasetStats stats = (*ds)->stats();
    std::fprintf(stderr,
                 "[debug] %s/%s ingest=%.2fs drain_tail=%.2fs flushes=%llu "
                 "merges=%llu stalls=%llu\n",
                 WorkloadName(w), LayoutKindName(layout), ingest_seconds,
                 seconds - ingest_seconds,
                 static_cast<unsigned long long>(stats.flushes),
                 static_cast<unsigned long long>(stats.merges),
                 static_cast<unsigned long long>(stats.write_stalls));
  }
  ds->reset();  // before the scheduler dies
  return seconds;
}

void AddJsonRow(BenchJson* json, Workload w, LayoutKind layout,
                const char* mode, int threads, uint64_t records,
                double seconds, double speedup) {
  BenchJson::Obj obj;
  obj.Str("figure", "fig13_ingestion")
      .Str("dataset", WorkloadName(w))
      .Str("layout", LayoutKindName(layout))
      .Str("mode", mode)
      .Int("threads", static_cast<uint64_t>(threads))
      .Int("hardware_threads", std::thread::hardware_concurrency())
      .Int("records", records)
      .Num("seconds", seconds)
      .Num("krecords_per_sec",
           seconds > 0 ? static_cast<double>(records) / seconds / 1000.0 : 0);
  if (speedup > 0) obj.Num("speedup_vs_sync", speedup);
  json->Add(obj);
}

void RunConcurrent(int threads, BenchJson* json) {
  PrintHeader("Figure 13a: ingestion, synchronous vs " +
              std::to_string(threads) + " concurrent writers (seconds)");
  std::printf("%-10s %-6s %10s %10s %8s\n", "dataset", "layout", "sync",
              "conc", "speedup");
  for (Workload w :
       {Workload::kCell, Workload::kSensors, Workload::kTweet1,
        Workload::kWos}) {
    const uint64_t records = ScaledRecords(w);
    for (LayoutKind layout : kAllLayouts) {
      Workspace sync_ws(std::string("fig13s_") + WorkloadName(w) + "_" +
                        LayoutKindName(layout));
      const double sync_seconds = BuildSync(&sync_ws, w, layout, records);
      Workspace conc_ws(std::string("fig13c_") + WorkloadName(w) + "_" +
                        LayoutKindName(layout));
      const double conc_seconds =
          BuildConcurrent(&conc_ws, w, layout, records, threads);
      const double speedup =
          conc_seconds > 0 ? sync_seconds / conc_seconds : 0;
      std::printf("%-10s %-6s %10.2f %10.2f %7.2fx\n", WorkloadName(w),
                  LayoutKindName(layout), sync_seconds, conc_seconds,
                  speedup);
      std::fflush(stdout);
      AddJsonRow(json, w, layout, "sync", 1, records, sync_seconds, 0);
      AddJsonRow(json, w, layout, "concurrent", threads, records,
                 conc_seconds, speedup);
    }
  }
}

void Run(BenchJson* json) {
  PrintHeader("Figure 13a: ingestion time (seconds)");
  std::printf("%-10s", "dataset");
  for (LayoutKind layout : kAllLayouts) {
    std::printf(" %10s", LayoutKindName(layout));
  }
  std::printf("\n");

  for (Workload w :
       {Workload::kCell, Workload::kSensors, Workload::kTweet1,
        Workload::kWos}) {
    const uint64_t records = ScaledRecords(w);
    std::printf("%-10s", WorkloadName(w));
    std::fflush(stdout);
    for (LayoutKind layout : kAllLayouts) {
      Workspace ws(std::string("fig13_") + WorkloadName(w) + "_" +
                   LayoutKindName(layout));
      double seconds = 0;
      auto ds = BuildDataset(&ws, w, layout, records, &seconds);
      (void)ds;
      std::printf(" %10.2f", seconds);
      std::fflush(stdout);
      AddJsonRow(json, w, layout, "sync", 1, records, seconds, 0);
    }
    std::printf("\n");
  }

  // tweet_2: insert all, then update a random 50% (uniform), with the two
  // indexes declared up front.
  const uint64_t records = ScaledRecords(Workload::kTweet2);
  std::printf("%-10s", "tweet_2*");
  std::fflush(stdout);
  for (LayoutKind layout : kAllLayouts) {
    Workspace ws(std::string("fig13_tweet2_") + LayoutKindName(layout));
    auto options = BenchOptions(ws, layout, "tweet2");
    auto ds = IndexedDataset::Create(options, ws.cache.get());
    LSMCOL_CHECK(ds.ok());
    LSMCOL_CHECK_OK((*ds)->DeclarePrimaryKeyIndex());
    LSMCOL_CHECK_OK((*ds)->DeclareIndex("ts", {"timestamp"}));
    Rng rng(42);
    Timer timer;
    for (uint64_t i = 0; i < records; ++i) {
      LSMCOL_CHECK_OK((*ds)->Insert(
          MakeRecord(Workload::kTweet2, static_cast<int64_t>(i), &rng)));
    }
    // 50% updates, uniformly distributed over the ingested keys.
    for (uint64_t u = 0; u < records / 2; ++u) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(records));
      LSMCOL_CHECK_OK((*ds)->Insert(MakeTweet2Record(
          key, 1460000000000 + static_cast<int64_t>(records + u) * 1000,
          &rng)));
    }
    LSMCOL_CHECK_OK((*ds)->Flush());
    const double seconds = timer.Seconds();
    std::printf(" %10.2f", seconds);
    std::fflush(stdout);
    AddJsonRow(json, Workload::kTweet2, layout, "update_intensive", 1,
               records + records / 2, seconds, 0);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace lsmcol::bench

int main(int argc, char** argv) {
  std::string json_path;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--threads N]\n", argv[0]);
      return 2;
    }
  }
  lsmcol::bench::BenchJson json(json_path);
  if (threads > 0) {
    lsmcol::bench::RunConcurrent(threads, &json);
  } else {
    lsmcol::bench::Run(&json);
  }
  if (!json.Finish()) return 1;
  return 0;
}

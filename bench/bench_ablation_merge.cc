// Ablation A3 (§4.5.3, §6.3): columnar merge throughput — the vertical
// merge (batched PK plan, run-copy column stitching, whole-leaf adoption)
// on APAX and AMAX, for two component shapes:
//
//   sequential   append-style ingest: each component covers a disjoint
//                key range — the survivor plan collapses to a few runs and
//                most leaves are adopted without decoding;
//   interleaved  worst case: components' keys interleave record by record
//                (stride K), so no run exceeds one record and nothing can
//                be adopted — measures the batched floor, not the fast
//                path.
//
// Expected shape: `sequential` an order of magnitude faster than
// `interleaved` (splice-through). Merge throughput is CPU-bound, so the
// numbers are meaningful on a single-core container.
//
// Usage: bench_ablation_merge [--json PATH] [--verify]
//   --json PATH  record per-row results as a JSON array.
//   --verify     exit 1 unless, for every scenario, the merged dataset is
//                query-equivalent to the unmerged one (scanned via the
//                LSM reconciliation) and the merge wrote every record:
//                both scenarios insert unique keys and delete none.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/json/parser.h"

namespace lsmcol::bench {
namespace {

constexpr int kComponents = 5;

struct Scenario {
  const char* name;
  /// Key of record i within component c (n = records per component).
  int64_t (*key)(int64_t c, int64_t i, int64_t n);
};

const Scenario kScenarios[] = {
    {"sequential", [](int64_t c, int64_t i, int64_t n) { return c * n + i; }},
    {"interleaved",
     [](int64_t c, int64_t i, int64_t n) {
       (void)n;
       return i * kComponents + c;
     }},
};

/// Order-deterministic digest of a full scan (scans stream in key order):
/// record count plus a combined hash of (key, record-JSON) pairs.
struct ScanDigest {
  uint64_t count = 0;
  uint64_t hash = 0;

  bool operator==(const ScanDigest& other) const {
    return count == other.count && hash == other.hash;
  }
};

ScanDigest DigestScan(Dataset* ds) {
  ScanDigest digest;
  auto cursor = ds->Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  const std::hash<std::string> hasher;
  while (true) {
    auto ok = (*cursor)->Next();
    LSMCOL_CHECK(ok.ok());
    if (!*ok) break;
    Value v;
    LSMCOL_CHECK_OK((*cursor)->Record(&v));
    const uint64_t h =
        hasher(std::to_string((*cursor)->key()) + ":" + ToJson(v));
    digest.hash = digest.hash * 1099511628211ull + h;  // FNV-style chain
    ++digest.count;
  }
  return digest;
}

std::unique_ptr<Dataset> BuildComponents(Workspace* ws, LayoutKind layout,
                                         const Scenario& scenario,
                                         uint64_t records) {
  auto options = BenchOptions(
      *ws, layout,
      std::string("merge_") + scenario.name + "_" + LayoutKindName(layout));
  options.amax_max_records = BenchAmaxMaxRecords(records);
  options.auto_merge = false;      // exactly kComponents flushed components
  options.memtable_bytes = 1u << 30;  // components cut by manual Flush only
  auto ds = Dataset::Open(options, ws->cache.get());
  LSMCOL_CHECK(ds.ok());
  Rng rng(42);
  const int64_t per_component =
      static_cast<int64_t>(records) / kComponents;
  for (int64_t c = 0; c < kComponents; ++c) {
    for (int64_t i = 0; i < per_component; ++i) {
      const int64_t key = scenario.key(c, i, per_component);
      LSMCOL_CHECK_OK((*ds)->Insert(MakeRecord(Workload::kSensors, key, &rng)));
    }
    LSMCOL_CHECK_OK((*ds)->Flush());
  }
  LSMCOL_CHECK((*ds)->component_count() == kComponents);
  return std::move(*ds);
}

bool Run(bool verify, BenchJson* json) {
  const uint64_t records =
      std::max<uint64_t>(500, ScaledRecords(Workload::kSensors) * 5);
  PrintHeader("Ablation A3: columnar merge throughput");
  std::printf("dataset: sensors, %llu records across %d components\n",
              static_cast<unsigned long long>(records), kComponents);
  std::printf("%-8s %-13s %10s %14s %8s %9s\n", "layout", "scenario",
              "seconds", "records/s", "runs", "adopted");

  bool ok = true;
  for (LayoutKind layout : {LayoutKind::kApax, LayoutKind::kAmax}) {
    for (const Scenario& scenario : kScenarios) {
      Workspace ws(std::string("ablation_merge_") + scenario.name + "_" +
                   LayoutKindName(layout));
      auto ds = BuildComponents(&ws, layout, scenario, records);
      ScanDigest before;
      if (verify) before = DigestScan(ds.get());
      Timer timer;
      LSMCOL_CHECK_OK(ds->MergeAll());
      const double seconds = timer.Seconds();
      const DatasetStats stats = ds->stats();
      const double rps = static_cast<double>(stats.merge_records_in) /
                         (seconds > 0 ? seconds : 1e-9);
      if (verify) {
        if (!(before == DigestScan(ds.get()))) {
          std::fprintf(stderr,
                       "VERIFY FAIL: %s/%s: merge changed query results\n",
                       LayoutKindName(layout), scenario.name);
          ok = false;
        }
        if (stats.merge_records_out != records) {
          std::fprintf(stderr,
                       "VERIFY FAIL: %s/%s: merge wrote %llu of %llu "
                       "records\n",
                       LayoutKindName(layout), scenario.name,
                       static_cast<unsigned long long>(
                           stats.merge_records_out),
                       static_cast<unsigned long long>(records));
          ok = false;
        }
      }
      std::printf("%-8s %-13s %10.3f %10.0f r/s %8llu %9llu\n",
                  LayoutKindName(layout), scenario.name, seconds, rps,
                  static_cast<unsigned long long>(stats.merge_runs_copied),
                  static_cast<unsigned long long>(
                      stats.merge_leaves_adopted));
      if (json != nullptr && json->enabled()) {
        BenchJson::Obj obj;
        obj.Str("bench", "ablation_merge")
            .Str("layout", LayoutKindName(layout))
            .Str("scenario", scenario.name)
            .Int("records", records)
            .Int("components", kComponents)
            .Num("run_level_seconds", seconds)
            .Num("run_level_records_per_sec", rps)
            .Int("merge_records_in", stats.merge_records_in)
            .Int("merge_records_out", stats.merge_records_out)
            .Int("merge_runs_copied", stats.merge_runs_copied)
            .Int("merge_leaves_adopted", stats.merge_leaves_adopted)
            .Int("verified", verify ? 1 : 0)
            .Int("hardware_threads", std::thread::hardware_concurrency());
        json->Add(obj);
      }
    }
  }
  return ok;
}

}  // namespace
}  // namespace lsmcol::bench

int main(int argc, char** argv) {
  using namespace lsmcol::bench;
  bool verify = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  BenchJson json(json_path);
  bool ok = Run(verify, &json);
  if (!json.Finish()) ok = false;
  return ok ? 0 : 1;
}

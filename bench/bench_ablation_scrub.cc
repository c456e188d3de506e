// Ablation A6: what continuous integrity scrubbing costs the foreground.
//
// The background scrubber re-reads every component leaf uncached and
// verifies its checksums, throttled to a bytes/sec budget. This bench
// measures the tax that verification puts on a read-heavy foreground at
// several budgets, against a scrub-off baseline:
//
//   off        no scrubber — the foreground ceiling.
//   8 MiB/s    a conservative production budget (a 1 TB store fully
//              verified every ~36 hours).
//   32 MiB/s   an aggressive budget.
//   128 MiB/s  near-unthrottled — an upper bound on the interference a
//              runaway scrubber could cause.
//
// Expected shape: the slowdown tracks the budget roughly linearly, and
// at the conservative budget the foreground tax is a few percent — the
// scrubber's slices are small (default 4 MiB) and run on the low lane
// of the flush/merge scheduler, so they never delay a flush.
//
// Layout is fixed to VB: scrubbing reads raw leaf pages and checksums
// them, so its cost is layout-independent.
//
// Usage: bench_ablation_scrub [--json PATH]

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/store/store.h"

namespace lsmcol::bench {
namespace {

struct Mode {
  const char* name;
  uint64_t bytes_per_sec;  // 0 = scrubber off
};

const Mode kModes[] = {
    {"off", 0},
    {"8MiB/s", 8ull << 20},
    {"32MiB/s", 32ull << 20},
    {"128MiB/s", 128ull << 20},
};

Value ScrubBenchRecord(int64_t id, Rng* rng) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("name", Value::String("user_" + std::to_string(id)));
  v.Set("score", Value::Double(static_cast<double>(rng->Next() % 100000)));
  v.Set("pad", Value::String(std::to_string(rng->Next())));
  return v;
}

uint64_t CountRecords(Dataset* ds) {
  auto cursor = ds->Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  uint64_t n = 0;
  while (true) {
    auto ok = (*cursor)->Next();
    LSMCOL_CHECK(ok.ok());
    if (!*ok) break;
    ++n;
  }
  return n;
}

int Run(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  BenchJson json(json_path);

  const uint64_t records =
      std::max<uint64_t>(20000, static_cast<uint64_t>(150000 * Scale()));
  const int scan_reps = 12;

  PrintHeader("Ablation A6: scrub-overhead vs rate budget (layout VB)");
  std::printf("%-10s %10s %10s %10s %14s %12s\n", "scrub", "ingest s",
              "scans s", "slowdown", "verified", "achieved/s");

  double baseline_scan = 0;
  for (const Mode& mode : kModes) {
    const std::string dir =
        std::string("/tmp/lsmcol_bench_scrub_") + mode.name;
    std::filesystem::remove_all(dir);

    StoreOptions options;
    options.dir = dir;
    options.page_size = 8192;
    options.cache_bytes = 64u << 20;
    options.background_threads = 1;
    if (mode.bytes_per_sec > 0) {
      options.scrub.enabled = true;
      options.scrub.bytes_per_sec = mode.bytes_per_sec;
      options.scrub.interval_ms = 1;  // continuous: worst-case pressure
      options.scrub.max_slice_bytes = 4u << 20;
    }
    auto store = Store::Open(options);
    LSMCOL_CHECK(store.ok());
    DatasetOptions doc;
    doc.layout = LayoutKind::kVb;
    doc.memtable_bytes = 4u << 20;  // several components to scrub
    auto ds_or = (*store)->OpenDataset("docs", doc);
    LSMCOL_CHECK(ds_or.ok());
    Dataset* ds = *ds_or;

    Rng rng(42);
    Timer ingest_timer;
    for (uint64_t i = 0; i < records; ++i) {
      LSMCOL_CHECK_OK(ds->Insert(ScrubBenchRecord(static_cast<int64_t>(i),
                                                  &rng)));
    }
    LSMCOL_CHECK_OK(ds->Flush());
    const double ingest_s = ingest_timer.Seconds();

    // Read-heavy foreground phase with the scrubber live underneath.
    Timer scan_timer;
    for (int rep = 0; rep < scan_reps; ++rep) {
      LSMCOL_CHECK(CountRecords(ds) == records);
    }
    const double scans_s = scan_timer.Seconds();
    if (mode.bytes_per_sec == 0) baseline_scan = scans_s;
    const double slowdown =
        baseline_scan > 0 ? scans_s / baseline_scan : 1.0;

    const auto health = (*store)->Health();
    LSMCOL_CHECK(health.size() == 1);
    const uint64_t verified = health[0].stats.scrub_bytes;
    const double achieved =
        scans_s + ingest_s > 0
            ? static_cast<double>(verified) / (scans_s + ingest_s)
            : 0.0;
    LSMCOL_CHECK(health[0].stats.scrub_damage_found == 0);

    std::printf("%-10s %10.2f %10.2f %9.2fx %14s %12s\n", mode.name,
                ingest_s, scans_s, slowdown, HumanBytes(verified).c_str(),
                HumanBytes(static_cast<uint64_t>(achieved)).c_str());

    BenchJson::Obj row;
    row.Str("bench", "ablation_scrub")
        .Str("mode", mode.name)
        .Int("records", records)
        .Num("ingest_seconds", ingest_s)
        .Num("scan_seconds", scans_s)
        .Num("slowdown", slowdown)
        .Int("scrub_bytes_verified", verified)
        .Int("scrub_passes", health[0].stats.scrub_passes);
    json.Add(row);

    LSMCOL_CHECK_OK((*store)->Close());
    std::filesystem::remove_all(dir);
  }
  return json.Finish() ? 0 : 1;
}

}  // namespace
}  // namespace lsmcol::bench

int main(int argc, char** argv) { return lsmcol::bench::Run(argc, argv); }

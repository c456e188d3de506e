// Ablation A2: the two AMAX shaping knobs (§4.3, §4.5.2) — the empty-page
// tolerance and the Page-0 record cap. Reports on-disk size, single-column
// scan I/O, and point-lookup latency for each setting.
//
// Expected: a larger record cap improves scans (fewer Page 0s) but makes
// point lookups slower (longer linear key search, §4.5.2); higher
// tolerance pads more (slightly larger files) but reads fewer pages per
// column.

#include <cstdio>

#include "bench/bench_util.h"

namespace lsmcol::bench {
namespace {

void Run() {
  const Workload w = Workload::kTweet2;
  const uint64_t records = ScaledRecords(w);
  PrintHeader("Ablation A2: AMAX record cap and empty-page tolerance");
  std::printf("%-10s %-10s %12s %12s %12s %12s\n", "cap", "tolerance",
              "size", "scan 1 col", "scan(read)", "lookup/rec");

  struct Setting {
    size_t cap;
    double tolerance;
  };
  const Setting settings[] = {
      {1000, 0.125}, {5000, 0.125},  {15000, 0.125},
      {15000, 0.0},  {15000, 0.5},
  };
  for (const Setting& setting : settings) {
    Workspace ws("ablation_amax");
    auto options = BenchOptions(ws, LayoutKind::kAmax, "tweet2");
    options.amax_max_records = setting.cap;
    options.amax_empty_page_tolerance = setting.tolerance;
    auto ds = Dataset::Open(options, ws.cache.get());
    LSMCOL_CHECK(ds.ok());
    Rng rng(42);
    for (uint64_t i = 0; i < records; ++i) {
      LSMCOL_CHECK_OK((*ds)->Insert(
          MakeRecord(w, static_cast<int64_t>(i), &rng)));
    }
    LSMCOL_CHECK_OK((*ds)->Flush());

    // Scan of one column.
    QueryPlan plan;
    plan.aggregates.push_back(AggSpec::Count(Expr::Field({"lang"})));
    uint64_t bytes = 0;
    double scan_seconds = TimeQuery(ds->get(), plan, true, &bytes);

    // Random point lookups.
    ws.cache->Clear();
    Rng lookup_rng(7);
    constexpr int kLookups = 200;
    Timer timer;
    for (int i = 0; i < kLookups; ++i) {
      Value out;
      LSMCOL_CHECK_OK((*ds)->Lookup(
          static_cast<int64_t>(lookup_rng.Uniform(records)), &out));
    }
    const double lookup_seconds = timer.Seconds() / kLookups;

    std::printf("%-10zu %-10.3f %12s %11.3fs %12s %10.2fus\n", setting.cap,
                setting.tolerance, HumanBytes((*ds)->OnDiskBytes()).c_str(),
                scan_seconds, HumanBytes(bytes).c_str(),
                lookup_seconds * 1e6);
  }
}

}  // namespace
}  // namespace lsmcol::bench

int main() {
  lsmcol::bench::Run();
  return 0;
}

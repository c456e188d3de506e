// Figure 15: range COUNT queries on tweet_2's timestamp, with and without
// the secondary index, at low (0.001%-0.1%) and high (1%, 10%)
// selectivities, across all four layouts.
//
// Expected shape (paper): all layouts comparable and sub-second at low
// selectivity with the index; at high selectivity the index-based plan
// loses to AMAX's own full scan (a count touches only Page 0s).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/queries.h"

namespace lsmcol::bench {
namespace {

void Run() {
  const uint64_t records = ScaledRecords(Workload::kTweet2);
  const int64_t ts_base = 1460000000000;
  const int64_t ts_span = static_cast<int64_t>(records) * 1000;
  PrintHeader("Figure 15: timestamp-range COUNT via secondary index vs scan");
  std::printf("tweet_2, %llu records\n",
              static_cast<unsigned long long>(records));

  std::vector<std::unique_ptr<Workspace>> workspaces;
  std::vector<std::unique_ptr<IndexedDataset>> datasets;
  for (LayoutKind layout : kAllLayouts) {
    workspaces.push_back(std::make_unique<Workspace>(
        std::string("fig15_") + LayoutKindName(layout)));
    auto options = BenchOptions(*workspaces.back(), layout, "tweet2");
    auto ds = IndexedDataset::Create(options, workspaces.back()->cache.get());
    LSMCOL_CHECK(ds.ok());
    LSMCOL_CHECK_OK((*ds)->DeclarePrimaryKeyIndex());
    LSMCOL_CHECK_OK((*ds)->DeclareIndex("ts", {"timestamp"}));
    Rng rng(42);
    for (uint64_t i = 0; i < records; ++i) {
      LSMCOL_CHECK_OK((*ds)->Insert(
          MakeRecord(Workload::kTweet2, static_cast<int64_t>(i), &rng)));
    }
    LSMCOL_CHECK_OK((*ds)->Flush());
    datasets.push_back(std::move(*ds));
  }

  const double selectivities[] = {0.00001, 0.0001, 0.001, 0.01, 0.10};
  std::printf("\n%-12s %-8s", "selectivity", "plan");
  for (LayoutKind layout : kAllLayouts) {
    std::printf(" %10s", LayoutKindName(layout));
  }
  std::printf("\n");
  Rng range_rng(7);
  for (double sel : selectivities) {
    const int64_t width = static_cast<int64_t>(sel * static_cast<double>(ts_span));
    // Average over a few different range predicates, as in the paper.
    constexpr int kRanges = 3;
    int64_t los[kRanges];
    for (int r = 0; r < kRanges; ++r) {
      los[r] = ts_base + static_cast<int64_t>(
                   range_rng.Uniform(static_cast<uint64_t>(ts_span - width)));
    }
    // Index-based.
    std::printf("%10.3f%% %-8s", sel * 100, "index");
    for (size_t i = 0; i < datasets.size(); ++i) {
      datasets[i]->dataset()->cache()->Clear();
      Timer timer;
      for (int r = 0; r < kRanges; ++r) {
        auto count = datasets[i]->IndexCount("ts", los[r], los[r] + width);
        LSMCOL_CHECK(count.ok());
      }
      std::printf(" %9.4fs", timer.Seconds() / kRanges);
    }
    std::printf("\n");
    // Full scan.
    std::printf("%10.3f%% %-8s", sel * 100, "scan");
    for (size_t i = 0; i < datasets.size(); ++i) {
      datasets[i]->dataset()->cache()->Clear();
      Timer timer;
      for (int r = 0; r < kRanges; ++r) {
        QueryPlan plan;
        plan.pre_filter = Expr::And(
            Expr::Compare(Expr::CmpOp::kGe, Expr::Field({"timestamp"}),
                          Expr::Int(los[r])),
            Expr::Compare(Expr::CmpOp::kLe, Expr::Field({"timestamp"}),
                          Expr::Int(los[r] + width)));
        plan.aggregates.push_back(AggSpec::CountStar());
        auto result =
            RunCompiled(*datasets[i]->dataset()->GetSnapshot(), plan);
        LSMCOL_CHECK(result.ok());
      }
      std::printf(" %9.4fs", timer.Seconds() / kRanges);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace lsmcol::bench

int main() {
  lsmcol::bench::Run();
  return 0;
}

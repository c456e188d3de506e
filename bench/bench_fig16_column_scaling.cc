// Figure 16: impact of the number of columns a query accesses, APAX vs
// AMAX. (a) scan-based queries counting the non-NULL values of 1..10
// columns; (b-d) the same access pattern through the timestamp secondary
// index at 0.001%-1% selectivity.
//
// Expected shape (paper): AMAX scan time grows with the column count
// (~10x from 1 to 10 columns) while APAX stays flat (it always reads whole
// pages); AMAX still wins overall; index-based execution flattens the
// column sensitivity for both layouts.
//
// Usage: bench_fig16_column_scaling [--json PATH] [--verify]
//   --json PATH  record one row per (part, columns, layout[, selectivity]):
//                scan rows carry the cold time and bytes read and the
//                average of 3 warm runs; index rows the cold time.
//   --verify     fail (exit 1) unless every scan's per-column counts equal
//                the counts taken from a Projection::All() scan of the
//                same dataset.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/queries.h"

namespace lsmcol::bench {
namespace {

// Ten tweet_2 columns of different types and sizes (§6.4.5 picks columns
// at random; we fix a representative spread for reproducibility).
const std::vector<std::vector<std::string>> kColumns = {
    {"text"},
    {"retweet_count"},
    {"user", "description"},
    {"user", "followers"},
    {"lang"},
    {"user", "name"},
    {"user", "verified"},
    {"favorite_count"},
    {"user", "screen_name"},
    {"user", "location"},
};

QueryPlan CountColumnsPlan(int n) {
  QueryPlan plan;
  for (int i = 0; i < n; ++i) {
    plan.aggregates.push_back(
        AggSpec::Count(Expr::Field(kColumns[static_cast<size_t>(i)])));
  }
  return plan;
}

// Per column of kColumns: the records whose value there is neither MISSING
// nor NULL, counted over a Projection::All() scan.
std::vector<int64_t> ReferenceCounts(Dataset* ds) {
  std::vector<int64_t> counts(kColumns.size(), 0);
  auto cursor = ds->Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  while (true) {
    auto next = (*cursor)->Next();
    LSMCOL_CHECK(next.ok());
    if (!*next) break;
    Value record;
    LSMCOL_CHECK_OK((*cursor)->Record(&record));
    for (size_t i = 0; i < kColumns.size(); ++i) {
      const Value v = WalkValuePath(record, kColumns[i]);
      if (!v.is_missing() && !v.is_null()) ++counts[i];
    }
  }
  return counts;
}

// Returns false on a verification failure.
bool Run(bool verify, BenchJson* json) {
  bool ok = true;
  const uint64_t records = ScaledRecords(Workload::kTweet2);
  const int64_t ts_base = 1460000000000;
  const int64_t ts_span = static_cast<int64_t>(records) * 1000;
  PrintHeader("Figure 16: impact of number of columns accessed (tweet_2)");

  std::vector<std::unique_ptr<Workspace>> workspaces;
  std::vector<std::unique_ptr<IndexedDataset>> datasets;
  const LayoutKind layouts[] = {LayoutKind::kApax, LayoutKind::kAmax};
  for (LayoutKind layout : layouts) {
    workspaces.push_back(std::make_unique<Workspace>(
        std::string("fig16_") + LayoutKindName(layout)));
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

  std::vector<std::vector<int64_t>> reference;
  if (verify) {
    for (auto& ds : datasets) {
      reference.push_back(ReferenceCounts(ds->dataset()));
    }
  }

  std::printf("\n(a) scan-based: count non-NULLs of N columns\n");
  std::printf("%-8s %10s %12s %10s %12s\n", "columns", "APAX", "(read)",
              "AMAX", "(read)");
  for (int n = 1; n <= 10; ++n) {
    QueryPlan plan = CountColumnsPlan(n);
    std::printf("%-8d", n);
    for (size_t d = 0; d < datasets.size(); ++d) {
      Dataset* ds = datasets[d]->dataset();
      uint64_t bytes = 0;
      QueryResult result;
      double seconds =
          TimeQuery(ds, plan, /*compiled=*/true, &bytes, &result);
      std::printf(" %9.3fs %12s", seconds, HumanBytes(bytes).c_str());
      if (verify) {
        bool match = result.rows.size() == 1 &&
                     result.rows[0].size() == static_cast<size_t>(n);
        for (int i = 0; match && i < n; ++i) {
          const Value& count = result.rows[0][static_cast<size_t>(i)];
          match = count.is_int() &&
                  count.int_value() == reference[d][static_cast<size_t>(i)];
        }
        if (!match) {
          std::fprintf(stderr,
                       "VERIFY FAIL: %d columns on %s: scan counts differ "
                       "from a full-record scan\n",
                       n, LayoutKindName(layouts[d]));
          ok = false;
        }
      }
      if (json->enabled()) {
        const double warm =
            TimeQueryAvg(ds, plan, /*compiled=*/true, 3, nullptr);
        BenchJson::Obj obj;
        obj.Str("dataset", "tweet_2")
            .Str("part", "scan")
            .Int("columns", static_cast<uint64_t>(n))
            .Str("layout", LayoutKindName(layouts[d]))
            .Str("engine", "compiled")
            .Num("seconds_cold", seconds)
            .Num("seconds_warm_avg", warm)
            .Int("bytes_read_cold", bytes);
        json->Add(obj);
      }
    }
    std::printf("\n");
  }

  std::printf("\n(b-d) index-based: same columns via the timestamp index\n");
  std::printf("%-12s %-8s %10s %10s\n", "selectivity", "columns", "APAX",
              "AMAX");
  Rng range_rng(11);
  for (double sel : {0.00001, 0.0001, 0.001, 0.01}) {
    const int64_t width =
        static_cast<int64_t>(sel * static_cast<double>(ts_span));
    const int64_t lo = ts_base + static_cast<int64_t>(range_rng.Uniform(
                           static_cast<uint64_t>(ts_span - width)));
    for (int n : {1, 2, 10}) {
      std::vector<std::vector<std::string>> paths(
          kColumns.begin(), kColumns.begin() + n);
      Projection projection = Projection::Of(paths);
      std::printf("%10.3f%% %-8d", sel * 100, n);
      for (size_t d = 0; d < datasets.size(); ++d) {
        IndexedDataset* ds = datasets[d].get();
        ds->dataset()->cache()->Clear();
        Timer timer;
        uint64_t non_null = 0;
        LSMCOL_CHECK_OK(ds->IndexScan(
            "ts", lo, lo + width, projection,
            [&](int64_t, const Value& record) {
              for (const auto& path : paths) {
                if (!WalkValuePath(record, path).is_missing()) ++non_null;
              }
            }));
        const double seconds = timer.Seconds();
        std::printf(" %9.4fs", seconds);
        BenchJson::Obj obj;
        obj.Str("dataset", "tweet_2")
            .Str("part", "index")
            .Num("selectivity", sel)
            .Int("columns", static_cast<uint64_t>(n))
            .Str("layout", LayoutKindName(layouts[d]))
            .Num("seconds_cold", seconds)
            .Int("non_null", non_null);
        json->Add(obj);
      }
      std::printf("\n");
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
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--verify]\n", argv[0]);
      return 2;
    }
  }
  BenchJson json(json_path);
  bool ok = Run(verify, &json);
  if (!json.Finish()) ok = false;
  return ok ? 0 : 1;
}

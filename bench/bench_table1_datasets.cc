// Table 1: dataset summary — type, size, number of records, average
// record size, number of inferred columns, dominant type. Regenerates the
// table over the synthetic workloads (scaled; see docs/BENCHMARKS.md).

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/json/parser.h"
#include "src/schema/schema.h"

namespace lsmcol::bench {
namespace {

void Run() {
  PrintHeader("Table 1: Datasets summary (synthetic, scaled)");
  std::printf("%-10s %10s %12s %14s %10s %-10s\n", "dataset", "records",
              "size", "avg record", "columns", "dominant");
  for (Workload w :
       {Workload::kCell, Workload::kSensors, Workload::kTweet1, Workload::kWos,
        Workload::kTweet2}) {
    const uint64_t records = ScaledRecords(w);
    Rng rng(42);
    Schema schema("id");
    uint64_t total_bytes = 0;
    std::map<AtomicType, int> type_histogram;
    for (uint64_t i = 0; i < records; ++i) {
      Value v = MakeRecord(w, static_cast<int64_t>(i), &rng);
      total_bytes += ToJson(v).size();
      LSMCOL_CHECK_OK(schema.MergeRecord(v));
    }
    for (const ColumnInfo& column : schema.columns()) {
      ++type_histogram[column.type];
    }
    AtomicType dominant = AtomicType::kInt64;
    int best = -1;
    for (const auto& [type, count] : type_histogram) {
      if (count > best) {
        best = count;
        dominant = type;
      }
    }
    const bool mixed = 2 * best < schema.column_count();  // no majority
    std::printf("%-10s %10llu %12s %11llu B %10d %-10s\n", WorkloadName(w),
                static_cast<unsigned long long>(records),
                HumanBytes(total_bytes).c_str(),
                static_cast<unsigned long long>(total_bytes / records),
                schema.column_count(),
                mixed ? "Mix" : AtomicTypeName(dominant));
  }
  std::printf(
      "\n(Paper, Table 1: cell 1.43B recs/141B/7 cols/Mix; sensors 40M/"
      "3.8KB/16/Integer;\n tweet_1 17M/5.3KB/933/String; wos 48M/6.2KB/296/"
      "String; tweet_2 77.2M/2.7KB/275/String)\n");
}

}  // namespace
}  // namespace lsmcol::bench

int main() {
  lsmcol::bench::Run();
  return 0;
}

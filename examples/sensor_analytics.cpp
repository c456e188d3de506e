// Sensor analytics: the paper's motivating analytical workload. Ingests a
// numeric, nested IoT dataset into a row layout (VB) and a columnar layout
// (AMAX), then compares storage size, bytes read, and query time for the
// sensors queries (§6.4.2).
//
//   ./examples/sensor_analytics [records]

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/datagen/datagen.h"
#include "src/query/engine.h"
#include "src/store/store.h"

using namespace lsmcol;

namespace {

Dataset* Ingest(Store* store, LayoutKind layout, uint64_t records) {
  DatasetOptions options;
  options.layout = layout;
  options.memtable_bytes = 8u << 20;
  auto dataset = store->OpenDataset(
      std::string("sensors_") + LayoutKindName(layout), options);
  LSMCOL_CHECK(dataset.ok());
  Rng rng(42);
  for (uint64_t i = 0; i < records; ++i) {
    LSMCOL_CHECK_OK((*dataset)->Insert(
        MakeRecord(Workload::kSensors, static_cast<int64_t>(i), &rng)));
  }
  LSMCOL_CHECK_OK((*dataset)->Flush());
  return *dataset;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t records = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                    : 3000;
  const std::string dir = "/tmp/lsmcol_sensor_analytics";
  std::filesystem::remove_all(dir);

  // One store, one shared cache, two named datasets — same documents in a
  // row layout (VB) and the columnar mega-leaf layout (AMAX).
  StoreOptions store_options;
  store_options.dir = dir;
  store_options.cache_bytes = 512u << 20;
  auto store_or = Store::Open(store_options);
  LSMCOL_CHECK(store_or.ok());
  Store* store = store_or->get();
  BufferCache& cache = *store->cache();

  Dataset* vb = Ingest(store, LayoutKind::kVb, records);
  Dataset* amax = Ingest(store, LayoutKind::kAmax, records);
  std::printf("storage:  VB %.2f MiB   AMAX %.2f MiB\n",
              vb->OnDiskBytes() / 1048576.0, amax->OnDiskBytes() / 1048576.0);

  // Q3 of the sensors suite: top-10 sensors by max temperature.
  QueryPlan plan;
  plan.unnests.push_back({Expr::Field({"readings"}), "r"});
  plan.group_keys.push_back(Expr::Field({"sensor_id"}));
  plan.aggregates.push_back(AggSpec::Max(Expr::VarPath("r", {"temp"})));
  plan.order_by = 1;
  plan.order_desc = true;
  plan.limit = 10;

  for (Dataset* dataset : {vb, amax}) {
    cache.Clear();
    cache.ResetStats();
    auto result = RunCompiled(*dataset->GetSnapshot(), plan);
    LSMCOL_CHECK(result.ok());
    std::printf("\n%s: read %.2f MiB for top-10 max temperatures:\n",
                LayoutKindName(dataset->layout()),
                cache.stats().bytes_read / 1048576.0);
    for (const auto& row : result->rows) {
      std::printf("  sensor %lld -> %.2f C\n",
                  static_cast<long long>(row[0].int_value()),
                  row[1].as_double());
    }
  }
  std::filesystem::remove_all(dir);
  return 0;
}

// End-to-end validation of the paper's headline *shapes* at test scale:
// storage orderings (Fig. 12a), I/O selectivity of AMAX (Fig. 14/16),
// engine equivalence plus pipeline behaviour (Fig. 10), and robustness
// against corrupted component files.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/datagen/datagen.h"
#include <fstream>
#include "src/lsm/dataset.h"
#include "src/query/engine.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 32 * 1024;

struct BuiltDataset {
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<Dataset> dataset;
};

BuiltDataset Build(const std::string& dir, Workload w, LayoutKind layout,
                   uint64_t records) {
  std::filesystem::create_directories(dir);
  BuiltDataset out;
  out.cache = std::make_unique<BufferCache>(4096 * kPage, kPage);
  DatasetOptions options;
  options.layout = layout;
  options.dir = dir;
  options.name = std::string(WorkloadName(w)) + LayoutKindName(layout);
  options.page_size = kPage;
  options.memtable_bytes = 1u << 20;
  options.amax_max_records = 2000;
  auto ds = Dataset::Open(options, out.cache.get());
  LSMCOL_CHECK(ds.ok());
  out.dataset = std::move(*ds);
  Rng rng(42);
  for (uint64_t i = 0; i < records; ++i) {
    LSMCOL_CHECK_OK(
        out.dataset->Insert(MakeRecord(w, static_cast<int64_t>(i), &rng)));
  }
  LSMCOL_CHECK_OK(out.dataset->Flush());
  return out;
}

class ShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/shapes_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ShapeTest, SensorsStorageOrderingMatchesFig12) {
  // Numeric data: Open > VB > APAX >= AMAX, with a sizable columnar win.
  const uint64_t n = 600;
  auto open = Build(dir_, Workload::kSensors, LayoutKind::kOpen, n);
  auto vb = Build(dir_, Workload::kSensors, LayoutKind::kVb, n);
  auto apax = Build(dir_, Workload::kSensors, LayoutKind::kApax, n);
  auto amax = Build(dir_, Workload::kSensors, LayoutKind::kAmax, n);
  EXPECT_GT(open.dataset->OnDiskBytes(), vb.dataset->OnDiskBytes());
  EXPECT_GT(vb.dataset->OnDiskBytes(), apax.dataset->OnDiskBytes());
  EXPECT_GE(apax.dataset->OnDiskBytes() * 5, amax.dataset->OnDiskBytes() * 4);
  // Columnar at least 2x smaller than Open on numeric data.
  EXPECT_GT(open.dataset->OnDiskBytes(), 2 * amax.dataset->OnDiskBytes());
}

TEST_F(ShapeTest, AmaxCountStarReadsOnlyPageZeros) {
  const uint64_t n = 4000;
  auto amax = Build(dir_, Workload::kTweet2, LayoutKind::kAmax, n);
  QueryPlan count = [] {
    QueryPlan p;
    p.aggregates.push_back(AggSpec::CountStar());
    return p;
  }();
  amax.cache->Clear();
  amax.cache->ResetStats();
  auto result = RunCompiled(*amax.dataset->GetSnapshot(), count);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), static_cast<int64_t>(n));
  const uint64_t count_bytes = amax.cache->stats().bytes_read;

  // A text-column query must read strictly more.
  QueryPlan text_query;
  text_query.aggregates.push_back(AggSpec::Count(Expr::Field({"text"})));
  amax.cache->Clear();
  amax.cache->ResetStats();
  ASSERT_TRUE(RunCompiled(*amax.dataset->GetSnapshot(), text_query).ok());
  EXPECT_GT(amax.cache->stats().bytes_read, 2 * count_bytes);

  // APAX reads everything either way (whole leaf pages).
  auto apax = Build(dir_, Workload::kTweet2, LayoutKind::kApax, n);
  apax.cache->Clear();
  apax.cache->ResetStats();
  ASSERT_TRUE(RunCompiled(*apax.dataset->GetSnapshot(), count).ok());
  const uint64_t apax_count_bytes = apax.cache->stats().bytes_read;
  EXPECT_GT(apax_count_bytes, 4 * count_bytes);
}

TEST_F(ShapeTest, EnginesAgreeOnEveryWorkload) {
  for (Workload w : {Workload::kCell, Workload::kSensors, Workload::kWos}) {
    auto built = Build(dir_ + "/" + WorkloadName(w), w, LayoutKind::kAmax, 300);
    QueryPlan plan;
    plan.aggregates.push_back(AggSpec::CountStar());
    auto interp = RunInterpreted(*built.dataset->GetSnapshot(), plan);
    auto comp = RunCompiled(*built.dataset->GetSnapshot(), plan);
    ASSERT_TRUE(interp.ok());
    ASSERT_TRUE(comp.ok());
    EXPECT_EQ(interp->rows[0][0].int_value(), 300);
    EXPECT_EQ(comp->rows[0][0].int_value(), 300);
  }
}

TEST_F(ShapeTest, WosUnionQueriesAgreeAcrossLayouts) {
  // The wos Q3 pattern over all four layouts must produce identical rows.
  std::vector<std::vector<std::vector<Value>>> all_rows;
  for (LayoutKind layout : {LayoutKind::kOpen, LayoutKind::kVb,
                            LayoutKind::kApax, LayoutKind::kAmax}) {
    auto built = Build(dir_ + "/" + LayoutKindName(layout), Workload::kWos, layout,
                       400);
    std::vector<std::string> country_path = {
        "static_data", "fullrecord_metadata", "addresses", "address_name",
        "address_spec", "country"};
    std::vector<std::string> addr_path = {
        "static_data", "fullrecord_metadata", "addresses", "address_name"};
    QueryPlan plan;
    plan.pre_filter = Expr::And(
        Expr::IsArray(Expr::Field(addr_path)),
        Expr::ArrayContains(Expr::ArrayDistinct(Expr::Field(country_path)),
                            Expr::Str("USA")));
    plan.unnests.push_back(
        {Expr::ArrayDistinct(Expr::Field(country_path)), "c"});
    plan.filter =
        Expr::Compare(Expr::CmpOp::kNe, Expr::Var("c"), Expr::Str("USA"));
    plan.group_keys.push_back(Expr::Var("c"));
    plan.aggregates.push_back(AggSpec::CountStar());
    plan.order_by = 1;
    plan.limit = 10;
    auto result = RunCompiled(*built.dataset->GetSnapshot(), plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->rows.size(), 0u);
    all_rows.push_back(result->rows);
  }
  for (size_t i = 1; i < all_rows.size(); ++i) {
    ASSERT_EQ(all_rows[i].size(), all_rows[0].size()) << i;
    for (size_t r = 0; r < all_rows[0].size(); ++r) {
      EXPECT_TRUE(ValueEquivalent(all_rows[i][r][0], all_rows[0][r][0]));
      EXPECT_TRUE(all_rows[i][r][1].Equals(all_rows[0][r][1]));
    }
  }
}

TEST_F(ShapeTest, CorruptComponentFileIsRejectedNotCrashed) {
  auto built = Build(dir_, Workload::kCell, LayoutKind::kAmax, 500);
  ASSERT_GE(built.dataset->component_count(), 1u);
  const std::string path = built.dataset->component(0).path();
  built.dataset.reset();  // release the file

  // Flip bytes in the footer page.
  {
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - kPage);
  }
  BufferCache cache(64 * kPage, kPage);
  auto reopened = Component::Open(path, &cache, kPage);
  EXPECT_FALSE(reopened.ok());
}

TEST_F(ShapeTest, TruncatedLeafPayloadSurfacesCorruption) {
  // A valid footer but a mangled leaf body must fail with Corruption when
  // the leaf is read, not crash.
  auto built = Build(dir_, Workload::kCell, LayoutKind::kVb, 2000);
  const std::string path = built.dataset->component(0).path();
  built.dataset.reset();
  {
    // Zero the first leaf page (offset 0), leaving the index/footer valid.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    std::vector<char> zeros(kPage, 0);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  BufferCache cache(64 * kPage, kPage);
  auto component = Component::Open(path, &cache, kPage);
  ASSERT_TRUE(component.ok());  // metadata intact
  RowComponentCursor cursor(component->get());
  auto ok = cursor.Next();
  EXPECT_FALSE(ok.ok());  // decompression/decoding fails cleanly
}

}  // namespace
}  // namespace lsmcol

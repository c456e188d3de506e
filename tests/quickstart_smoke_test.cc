// End-to-end smoke test mirroring examples/quickstart.cpp: ingest the
// paper's Figure 4 documents, flush, scan, run the Figure 11 query with
// both engines, and exercise lookup/upsert/delete — across all four
// layouts, so the public API path is covered for each LayoutKind.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "src/json/parser.h"
#include "src/lsm/dataset.h"
#include "src/query/engine.h"

namespace lsmcol {
namespace {

class QuickstartSmokeTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    // Unique per test run (TempDir + pid) so concurrent ctest invocations
    // from different build trees cannot clobber each other's files.
    dir_ = ::testing::TempDir() + "lsmcol_quickstart_smoke_" +
           std::to_string(::getpid()) + "_" + LayoutKindName(GetParam());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(QuickstartSmokeTest, IngestFlushQueryBothEngines) {
  BufferCache cache(/*capacity_bytes=*/64u << 20,
                    /*page_size=*/kDefaultPageSize);

  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir_;
  options.name = "gamers";
  options.pk_field = "id";
  auto dataset = Dataset::Open(options, &cache);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  const char* documents[] = {
      R"({"id": 0, "games": [{"title": "NFL"}]})",
      R"({"id": 1, "name": {"last": "Brown"},
          "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]})",
      R"({"id": 2, "name": {"first": "John", "last": "Smith"},
          "games": [{"title": "NBA", "consoles": ["PS4", "PC"]},
                    {"title": "NFL", "consoles": ["XBOX"]}]})",
      R"({"id": 3})",
  };
  for (const char* doc : documents) {
    ASSERT_TRUE((*dataset)->InsertJson(doc).ok()) << doc;
  }
  ASSERT_TRUE((*dataset)->Flush().ok());

  // Full reconciled scan returns every record.
  auto cursor = (*dataset)->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  int scanned = 0;
  while (true) {
    auto more = (*cursor)->Next();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    Value record;
    ASSERT_TRUE((*cursor)->Record(&record).ok());
    ++scanned;
  }
  EXPECT_EQ(scanned, 4);

  // Figure 11 query: unnest games, count per title — both engines must
  // agree: NFL appears twice, FIFA and NBA once each.
  QueryPlan plan;
  plan.unnests.push_back({Expr::Field({"games"}), "g"});
  plan.group_keys.push_back(Expr::VarPath("g", {"title"}));
  plan.aggregates.push_back(AggSpec::CountStar());
  plan.order_by = 1;
  plan.order_desc = true;
  for (bool compiled : {false, true}) {
    auto result = RunQuery(*(*dataset)->GetSnapshot(), plan, compiled);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 3u)
        << (compiled ? "compiled" : "interpreted");
    EXPECT_EQ(result->rows[0][0].string_value(), "NFL");
    EXPECT_EQ(result->rows[0][1].int_value(), 2);
    EXPECT_EQ(result->rows[1][1].int_value(), 1);
    EXPECT_EQ(result->rows[2][1].int_value(), 1);
  }

  // Point lookup, upsert, delete survive a second flush.
  Value record;
  ASSERT_TRUE((*dataset)->Lookup(2, &record).ok());
  ASSERT_TRUE(
      (*dataset)->InsertJson(R"({"id": 2, "name": "replaced"})").ok());
  ASSERT_TRUE((*dataset)->Delete(0).ok());
  ASSERT_TRUE((*dataset)->Flush().ok());
  EXPECT_TRUE((*dataset)->Lookup(0, &record).IsNotFound());
  ASSERT_TRUE((*dataset)->Lookup(2, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "replaced");

  EXPECT_GT((*dataset)->OnDiskBytes(), 0u);
  EXPECT_GE((*dataset)->component_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, QuickstartSmokeTest,
    ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb, LayoutKind::kApax,
                      LayoutKind::kAmax),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return LayoutKindName(info.param);
    });

}  // namespace
}  // namespace lsmcol

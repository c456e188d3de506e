// Integration tests for consistent hot backup and restore: roundtrips
// across all four layouts (unflushed writes included, WAL on or off),
// backups concurrent with ingest + flush + merge, incremental reuse,
// restore-over-existing refusal, refusal of retired catalog kinds,
// quarantine refusal, and crash images of the backup directory itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/storage/backup_manifest.h"
#include "src/storage/fault_injection_fs.h"
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

/// Full-scan digest: every surviving (key, record-as-json) pair in order.
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

/// A seeded write history that ends with unflushed writes: a flushed
/// base of keys 0..199, then (never flushed) upserts of old and new keys
/// and deletes of flushed and unflushed keys.
void WriteSeededHistory(Dataset* ds, uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  for (int i = 0; i < 60; ++i) {
    const int64_t key = rng.UniformRange(0, 400);
    ASSERT_TRUE(ds->Insert(MakeRecord(key)).ok());
  }
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(ds->Delete(rng.UniformRange(0, 400)).ok());
  }
}

class BackupTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    const std::string base =
        testing::TempDir() + "/backup_" +
        std::string(LayoutKindName(GetParam())) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = base + "/store";
    backup_dir_ = base + "/backup";
    restore_dir_ = base + "/restored";
    std::filesystem::remove_all(base);
  }
  void TearDown() override {
    std::filesystem::remove_all(
        std::filesystem::path(dir_).parent_path());
  }

  StoreOptions Options(FileSystem* fs = nullptr, bool wal = false) {
    StoreOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.cache_bytes = 512 * kPage;
    options.fs = fs;
    options.wal.enabled = wal;
    return options;
  }

  DatasetOptions DocOptions() {
    DatasetOptions options;
    options.layout = GetParam();
    options.auto_merge = false;
    return options;
  }

  /// Open the restored directory and return its docs digest.
  std::vector<std::pair<int64_t, std::string>> RestoredDigest(
      FileSystem* fs = nullptr, bool wal = false) {
    StoreOptions options;
    options.dir = restore_dir_;
    options.page_size = kPage;
    options.cache_bytes = 512 * kPage;
    options.fs = fs;
    options.wal.enabled = wal;
    auto store = Store::Open(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return {};
    auto ds = (*store)->OpenDataset("docs", DocOptions());
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    if (!ds.ok()) return {};
    return ScanDigest(*ds);
  }

  std::string dir_;
  std::string backup_dir_;
  std::string restore_dir_;
};

// Tentpole: backup of a WAL-enabled store captures flushed components
// AND the acked-but-unflushed tail, which CreateBackup flushes first.
TEST_P(BackupTest, RoundtripIncludesWalTail) {
  auto store = Store::Open(Options(nullptr, /*wal=*/true));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  // Acked but never flushed: only the WAL carries these.
  for (int64_t i = 2000; i < 2050; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Delete(5).ok());  // anti-matter rides the WAL too

  const auto want = ScanDigest(ds);
  ASSERT_EQ(want.size(), 120u + 50u - 1u);
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  // The live store keeps moving after the pin; the backup must not.
  ASSERT_TRUE(ds->Insert(MakeRecord(9999)).ok());
  ASSERT_TRUE(ds->Flush().ok());

  ASSERT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
  EXPECT_EQ(RestoredDigest(nullptr, /*wal=*/true), want);
}

// Tentpole: CreateBackup concurrent with ingest, flushes, and merges.
// Snapshot pinning keeps merged-away components alive for the copy, and
// the restored store is exactly the pinned view: a contiguous prefix of
// the sequentially-inserted keys, bit-identical records.
TEST_P(BackupTest, ConcurrentWithIngestAndMerge) {
  StoreOptions options = Options(nullptr, /*wal=*/true);
  options.background_threads = 2;
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions doc;
  doc.layout = GetParam();
  doc.auto_merge = true;           // merges fire behind the backup
  doc.memtable_bytes = 32 * 1024;  // frequent flushes
  auto ds_or = (*store)->OpenDataset("docs", doc);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;

  std::atomic<int64_t> acked{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int64_t i = 0; i < 20000 && !stop.load(); ++i) {
      Status st = ds->Insert(MakeRecord(i));
      if (!st.ok()) break;
      acked.store(i + 1, std::memory_order_release);
    }
  });
  // Let flushes/merges get going, then back up mid-flight.
  while (acked.load(std::memory_order_acquire) < 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t acked_before_pin = acked.load(std::memory_order_acquire);
  Status backup = (*store)->CreateBackup(backup_dir_);
  stop = true;
  writer.join();
  ASSERT_TRUE(backup.ok()) << backup.ToString();
  ASSERT_TRUE((*store)->Close().ok());

  ASSERT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
  const auto restored = RestoredDigest(nullptr, /*wal=*/true);
  // Consistency: exactly the keys 0..M-1 for some M — no holes, no
  // partial records — and the pin happened at or after the last insert
  // acked before CreateBackup was called.
  ASSERT_GE(static_cast<int64_t>(restored.size()), acked_before_pin);
  for (size_t i = 0; i < restored.size(); ++i) {
    ASSERT_EQ(restored[i].first, static_cast<int64_t>(i));
    ASSERT_EQ(restored[i].second, ToJson(MakeRecord(restored[i].first)));
  }
}

// Satellite: a second backup into the same directory reuses unchanged
// component files (they are not rewritten) and restores the new state.
TEST_P(BackupTest, IncrementalBackupReusesComponents) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());
  auto first = ReadBackupManifest(backup_dir_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->sequence, 1u);

  // Identify the first generation's component copy and its mtime.
  std::string reused_path;
  for (const BackupFileEntry& f : first->files) {
    if (f.kind == BackupFileKind::kComponent) {
      reused_path = backup_dir_ + "/" + f.rel_path;
      break;
    }
  }
  ASSERT_FALSE(reused_path.empty());
  const auto mtime_before = std::filesystem::last_write_time(reused_path);

  for (int64_t i = 1000; i < 1100; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  const auto want = ScanDigest(ds);
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  auto second = ReadBackupManifest(backup_dir_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->sequence, 2u);
  size_t components = 0;
  for (const BackupFileEntry& f : second->files) {
    if (f.kind == BackupFileKind::kComponent) ++components;
  }
  EXPECT_EQ(components, 2u);
  // The unchanged component was reused, not re-copied.
  EXPECT_EQ(std::filesystem::last_write_time(reused_path), mtime_before);

  ASSERT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
  EXPECT_EQ(RestoredDigest(), want);
}

// Regression: with the WAL off, the backup still holds writes that were
// acknowledged but never flushed, because CreateBackup flushes first.
TEST_P(BackupTest, WalOffBackupKeepsUnflushedWrites) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  ASSERT_NO_FATAL_FAILURE(WriteSeededHistory(ds, 11));
  const auto want = ScanDigest(ds);
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  ASSERT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
  EXPECT_EQ(RestoredDigest(), want);
}

// Regression: a backup of a store with the WAL on copies components and
// the manifest only; the restored dataset has no log to replay.
TEST_P(BackupTest, WalOnBackupCopiesNoLog) {
  auto store = Store::Open(Options(nullptr, /*wal=*/true));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  ASSERT_NO_FATAL_FAILURE(WriteSeededHistory(ds, 23));
  const auto want = ScanDigest(ds);
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  for (const auto& entry :
       std::filesystem::directory_iterator(backup_dir_ + "/docs")) {
    EXPECT_NE(entry.path().extension(), ".walbk") << entry.path();
  }
  ASSERT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
  StoreOptions options;
  options.dir = restore_dir_;
  options.page_size = kPage;
  options.cache_bytes = 512 * kPage;
  options.wal.enabled = true;
  auto restored = Store::Open(options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rds = (*restored)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(rds.ok()) << rds.status().ToString();
  EXPECT_EQ((*rds)->stats().wal_replayed_records, 0u);
  EXPECT_EQ(ScanDigest(*rds), want);
}

// Regression: a catalog that lists a WAL segment copy (kind 2, written by
// older versions) is refused rather than restored as a component; a new
// backup into the same directory replaces it.
TEST_P(BackupTest, RestoreRejectsWalSegmentCatalogKind) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  ASSERT_NO_FATAL_FAILURE(WriteSeededHistory(ds, 37));
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  auto catalog = ReadBackupManifest(backup_dir_);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  BackupFileEntry wal_copy;
  wal_copy.kind = static_cast<BackupFileKind>(2);
  wal_copy.dataset = "docs";
  wal_copy.rel_path = "docs/docs_1.1.walbk";
  wal_copy.id = 1;
  { std::ofstream(backup_dir_ + "/" + wal_copy.rel_path) << "old log copy"; }
  ASSERT_TRUE(HashFile(backup_dir_ + "/" + wal_copy.rel_path, &wal_copy.size,
                       &wal_copy.checksum)
                  .ok());
  catalog->files.insert(catalog->files.begin(), wal_copy);
  ASSERT_TRUE(WriteBackupManifest(backup_dir_, *catalog).ok());

  Status refused = Store::RestoreFromBackup(backup_dir_, restore_dir_);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("kind 2"), std::string::npos)
      << refused.ToString();
  EXPECT_FALSE(std::filesystem::exists(restore_dir_ + "/docs"));

  const auto want = ScanDigest(ds);
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());
  EXPECT_FALSE(
      std::filesystem::exists(backup_dir_ + "/" + wal_copy.rel_path));
  ASSERT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
  EXPECT_EQ(RestoredDigest(), want);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, BackupTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// ------------------------------------------------- non-parameterized

class BackupFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        testing::TempDir() + "/backupfs_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = base + "/store";
    backup_dir_ = base + "/backup";
    restore_dir_ = base + "/restored";
    std::filesystem::remove_all(base);
  }
  void TearDown() override {
    std::filesystem::remove_all(
        std::filesystem::path(dir_).parent_path());
  }

  StoreOptions Options(FileSystem* fs = nullptr) {
    StoreOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.cache_bytes = 256 * kPage;
    options.fs = fs;
    return options;
  }

  std::string dir_;
  std::string backup_dir_;
  std::string restore_dir_;
};

// Satellite: restoring over anything that already holds files refuses.
TEST_F(BackupFsTest, RestoreRefusesNonEmptyTarget) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds = (*store)->OpenDataset("docs");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  // Over the live store root: refused.
  EXPECT_EQ(Store::RestoreFromBackup(backup_dir_, dir_).code(),
            StatusCode::kAlreadyExists);
  // Over a directory with an unrelated file: refused.
  std::filesystem::create_directories(restore_dir_);
  { std::ofstream(restore_dir_ + "/keep.me") << "x"; }
  EXPECT_EQ(Store::RestoreFromBackup(backup_dir_, restore_dir_).code(),
            StatusCode::kAlreadyExists);
  // A fresh directory: fine.
  std::filesystem::remove_all(restore_dir_);
  EXPECT_TRUE(Store::RestoreFromBackup(backup_dir_, restore_dir_).ok());
}

// Satellite: a quarantined component refuses the backup (back up clean
// data; repair damage first), naming the component.
TEST_F(BackupFsTest, QuarantineRefusesBackup) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs");
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  // Corrupt the single component on disk and let a scrub find it.
  std::string victim;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/docs")) {
    if (entry.path().extension() == ".cmp") victim = entry.path().string();
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    f.put('\x7f');
  }
  auto pass = (*store)->ScrubNow();
  ASSERT_TRUE(pass.ok());
  ASSERT_EQ(pass->damaged, 1u);

  Status refused = (*store)->CreateBackup(backup_dir_);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("quarantined"), std::string::npos)
      << refused.ToString();
  EXPECT_FALSE(std::filesystem::exists(backup_dir_ + "/BACKUP.MANIFEST"));
}

// Tentpole: the backup directory itself is crash-consistent. A crash
// image (synced content only) taken after CreateBackup returns restores
// bit-identically; an image of an *aborted* second backup still restores
// the first backup — the catalog-written-last protocol at work.
TEST_F(BackupFsTest, BackupDirectorySurvivesCrashImages) {
  FaultInjectionFs fault_fs;
  fault_fs.SetTrackUnsynced(true);
  auto store = Store::Open(Options(&fault_fs));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs");
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  const auto want_first = ScanDigest(ds);
  ASSERT_TRUE((*store)->CreateBackup(backup_dir_).ok());

  // CopySyncedSnapshot is single-directory; image the backup root and
  // its per-dataset subdirectory separately.
  auto image_backup = [&](const std::string& image) {
    ASSERT_TRUE(fault_fs.CopySyncedSnapshot(backup_dir_, image).ok());
    ASSERT_TRUE(
        fault_fs.CopySyncedSnapshot(backup_dir_ + "/docs", image + "/docs")
            .ok());
  };

  // Crash image right after success: everything the catalog references
  // was synced before the catalog landed.
  const std::string image1 = restore_dir_ + "_img1";
  image_backup(image1);
  {
    Status restored =
        Store::RestoreFromBackup(image1, restore_dir_ + "_r1", &fault_fs);
    ASSERT_TRUE(restored.ok()) << restored.ToString();
  }
  {
    StoreOptions roptions;
    roptions.dir = restore_dir_ + "_r1";
    roptions.page_size = kPage;
    roptions.cache_bytes = 256 * kPage;
    roptions.fs = &fault_fs;
    auto rstore = Store::Open(roptions);
    ASSERT_TRUE(rstore.ok());
    auto rds = (*rstore)->OpenDataset("docs");
    ASSERT_TRUE(rds.ok());
    EXPECT_EQ(ScanDigest(*rds), want_first);
  }

  // Second backup dies mid-write (every new catalog/manifest write
  // fails); the directory's authoritative content must remain the first
  // backup, even through a crash image.
  for (int64_t i = 500; i < 560; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  FaultRule rule;
  rule.path_substring = "BACKUP.MANIFEST";
  rule.op = FaultOp::kWrite;
  rule.max_failures = -1;
  fault_fs.AddRule(rule);
  EXPECT_FALSE((*store)->CreateBackup(backup_dir_).ok());
  fault_fs.ClearRules();

  const std::string image2 = restore_dir_ + "_img2";
  image_backup(image2);
  ASSERT_TRUE(
      Store::RestoreFromBackup(image2, restore_dir_ + "_r2", &fault_fs).ok());
  StoreOptions roptions;
  roptions.dir = restore_dir_ + "_r2";
  roptions.page_size = kPage;
  roptions.cache_bytes = 256 * kPage;
  roptions.fs = &fault_fs;
  auto rstore = Store::Open(roptions);
  ASSERT_TRUE(rstore.ok());
  auto rds = (*rstore)->OpenDataset("docs");
  ASSERT_TRUE(rds.ok());
  EXPECT_EQ(ScanDigest(*rds), want_first);  // still the FIRST backup
}

}  // namespace
}  // namespace lsmcol

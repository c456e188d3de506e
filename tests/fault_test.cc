// Integration tests for end-to-end I/O fault tolerance: ENOSPC mid-flush
// cleanup and resume, transient-error retry, bit-flip detection +
// component quarantine across all four layouts (including under the
// decoded-unit cache), quarantines persisted in the manifest across
// flushes, repairs, merges and reopens, and the Store::Health() accessor.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/component_file.h"
#include "src/storage/fault_injection_fs.h"
#include "src/storage/file.h"
#include "src/storage/manifest.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

class FaultTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/fault_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  StoreOptions Options(FileSystem* fs = nullptr) {
    StoreOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.cache_bytes = 512 * kPage;
    options.fs = fs;
    return options;
  }

  DatasetOptions DocOptions() {
    DatasetOptions options;
    options.layout = GetParam();
    options.auto_merge = false;  // tests control merging explicitly
    return options;
  }

  static Value MakeRecord(int64_t id) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(id));
    v.Set("name", Value::String("user_" + std::to_string(id)));
    v.Set("score", Value::Double(static_cast<double>(id) * 0.5));
    return v;
  }

  std::vector<std::string> TempComponentFiles() const {
    std::vector<std::string> out;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ + "/docs")) {
      const std::string name = entry.path().filename().string();
      if (name.size() >= 8 && name.rfind(".cmp.tmp") == name.size() - 8) {
        out.push_back(name);
      }
    }
    return out;
  }

  /// Final component files (*.cmp), sorted so the newest (largest id,
  /// names share a fixed "docs_" prefix and zero-free numbering sorts
  /// short-before-long) can be picked deterministically.
  std::vector<std::string> ComponentFiles() const {
    std::vector<std::string> out;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ + "/docs")) {
      if (entry.path().extension() == ".cmp") {
        out.push_back(entry.path().string());
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.size() != b.size() ? a.size() < b.size() : a < b;
    });
    return out;
  }

  static void FlipByteOnDisk(const std::string& path, std::streamoff off) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(off);
    char c = 0;
    f.get(c);
    f.seekp(off);
    f.put(static_cast<char>(c ^ 0x04));
  }

  std::string dir_;
};

// Satellite: a bit flip in a component leaf — whichever layout wrote it —
// surfaces as ChecksumMismatch (never a silent wrong result), quarantines
// exactly the affected component, and leaves the rest of the dataset
// readable and writable. Store::Health() reports the damage.
TEST_P(FaultTest, BitFlipQuarantinesOnlyAffectedComponent) {
  {
    auto store = Store::Open(Options());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int64_t i = 0; i < 80; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());  // component A: keys 0..79
    for (int64_t i = 1000; i < 1080; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());  // component B: keys 1000..1079
    ASSERT_EQ((*ds)->component_count(), 2u);
  }  // close: all handles released, cache dies with the store

  // Flip one bit in the oldest component's first leaf page, underneath
  // the engine.
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 2u);
  const std::string& victim = components.front();
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << victim;
    f.seekg(16);
    char c = 0;
    f.get(c);
    f.seekp(16);
    f.put(static_cast<char>(c ^ 0x04));
  }

  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;

  // A full scan must hit the damaged leaf and fail loudly.
  Status scan_error;
  auto cursor = ds->Scan(Projection::All());
  if (!cursor.ok()) {
    scan_error = cursor.status();
  } else {
    while (true) {
      auto ok = (*cursor)->Next();
      if (!ok.ok()) {
        scan_error = ok.status();
        break;
      }
      if (!*ok) break;
      Value v;
      Status st = (*cursor)->Record(&v);
      if (!st.ok()) {
        scan_error = st;
        break;
      }
    }
  }
  ASSERT_TRUE(scan_error.IsChecksumMismatch()) << scan_error.ToString();
  EXPECT_NE(scan_error.ToString().find(victim), std::string::npos)
      << scan_error.ToString();

  // Exactly the damaged component is quarantined; its reads now fail
  // fast with the original reason.
  DatasetStats stats = ds->stats();
  EXPECT_GE(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.quarantined_components, 1u);
  Value record;
  EXPECT_TRUE(ds->Lookup(10, &record).IsChecksumMismatch());
  // Keys the quarantined component provably cannot hold (its key range
  // ends at 79) still resolve from the clean component...
  ASSERT_TRUE(ds->Lookup(1000, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "user_1000");
  // ...and the dataset stays writable: new data flushes into new
  // components.
  ASSERT_TRUE(ds->Insert(MakeRecord(5000)).ok());
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_TRUE(ds->Lookup(5000, &record).ok());
  EXPECT_EQ(ds->component_count(), 3u);
  // Merging is suspended (a merge would read — and then delete — the
  // damaged file); the dataset reports no background error.
  ASSERT_TRUE(ds->MaybeMerge().ok());
  EXPECT_EQ(ds->component_count(), 3u);
  EXPECT_TRUE(ds->background_error().ok());

  // The store-level health report names the damage.
  const auto health = (*store)->Health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].name, "docs");
  EXPECT_FALSE(health[0].has_background_error);
  EXPECT_EQ(health[0].quarantined_components, 1u);
  EXPECT_GE(health[0].stats.checksum_failures, 1u);
}

// Decoded-unit cache: damage under a unit nobody has read yet surfaces
// on the first read that decodes it — a row or APAX leaf, or an AMAX
// column megapage past Page 0 — and quarantines the component there.
TEST_P(FaultTest, DamagedUnitQuarantinesOnFirstRead) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 1u);
  // The leaf's first page; for AMAX the page after Page 0, where the
  // megapages start.
  const std::streamoff page = GetParam() == LayoutKind::kAmax ? 1 : 0;
  FlipByteOnDisk(components.front(),
                 page * static_cast<std::streamoff>(kPage + kPageTrailerBytes) +
                     16);

  Value record;
  Status st = ds->Lookup(10, &record);
  EXPECT_TRUE(st.IsDataDamage()) << st.ToString();
  const DatasetStats stats = ds->stats();
  EXPECT_EQ(stats.quarantined_components, 1u);
  EXPECT_GE(stats.checksum_failures, 1u);
  // Later reads fail fast with the first reason, without new I/O.
  const uint64_t pages_read = ds->cache()->stats().pages_read;
  EXPECT_EQ(ds->Lookup(20, &record).ToString(), st.ToString());
  EXPECT_EQ(ds->cache()->stats().pages_read, pages_read);
}

// Decoded-unit cache: quarantine is checked before a cached unit is
// served, so decay found under a warm cache (here by the scrubber, which
// reads around the cache) stops reads that the cache could still answer.
TEST_P(FaultTest, QuarantinedComponentServesNoCachedUnit) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());

  Value record;
  ASSERT_TRUE(ds->Lookup(10, &record).ok());  // decodes and caches units
  const CacheStats cold = ds->cache()->stats();
  ASSERT_TRUE(ds->Lookup(10, &record).ok());
  const CacheStats warm = ds->cache()->stats();
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_EQ(warm.misses, cold.misses);  // served from cached units only
  EXPECT_EQ(warm.pages_read, cold.pages_read);

  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 1u);
  FlipByteOnDisk(components.front(), 16);
  auto pass = (*store)->ScrubNow();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  ASSERT_EQ(pass->damaged, 1u);
  ASSERT_EQ(ds->stats().quarantined_components, 1u);

  Status st = ds->Lookup(10, &record);
  EXPECT_TRUE(st.IsDataDamage()) << st.ToString();
  EXPECT_EQ(ds->cache()->stats().hits, warm.hits);
}

// --------------------------------------------- damage persistence
//
// A quarantine is durable: the manifest lists each quarantined component
// the dataset still holds, with its reason, and a reopen re-applies it.
// Damage is injected with read-side bit flips, so the files at rest stay
// clean and only the manifest can carry the quarantine across a reopen.

class DamagePersistenceTest : public FaultTest {
 protected:
  /// Insert `count` records from `first` and flush them into a component.
  static void FlushRange(Dataset* ds, int64_t first, int64_t count) {
    for (int64_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
    }
    ASSERT_TRUE(ds->Flush().ok());
  }

  /// Every read of the component file at `path` returns flipped bytes.
  static void DecayOnRead(FaultInjectionFs* fs, const std::string& path) {
    FaultRule rule;
    rule.path_substring =
        "/" + std::filesystem::path(path).filename().string();
    rule.op = FaultOp::kRead;
    rule.flip_bit = true;
    fs->AddRule(rule);
  }

  /// Drain a full scan of `snapshot`; the first error, or OK.
  static Status ScanAll(const Snapshot& snapshot) {
    auto cursor = snapshot.Scan(Projection::All());
    if (!cursor.ok()) return cursor.status();
    while (true) {
      auto more = (*cursor)->Next();
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      Value record;
      LSMCOL_RETURN_NOT_OK((*cursor)->Record(&record));
    }
  }

  /// The damage section of the manifest on disk.
  std::vector<ManifestDamageEntry> ManifestDamage() const {
    auto manifest = ReadManifest(ManifestPath(dir_ + "/docs", "docs"));
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    if (!manifest.ok()) return {};
    return manifest->damaged;
  }

  /// The quarantine list of a freshly reopened store.
  std::vector<std::pair<uint64_t, Status>> ReopenedQuarantine() {
    auto store = Store::Open(Options());
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return {};
    auto ds = (*store)->OpenDataset("docs", DocOptions());
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    if (!ds.ok()) return {};
    return (*ds)->QuarantineList();
  }

  /// Damage found by a lookup, optionally persisted by a Flush, then
  /// repaired from a backup taken before it; checked after a reopen.
  void RepairThenReopen(bool flush_before_repair) {
    const std::string backup_dir = dir_ + "_backup";
    std::filesystem::remove_all(backup_dir);
    FaultInjectionFs fault_fs;
    {
      auto store = Store::Open(Options(&fault_fs));
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto ds_or = (*store)->OpenDataset("docs", DocOptions());
      ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
      Dataset* ds = *ds_or;
      FlushRange(ds, 0, 80);
      ASSERT_TRUE((*store)->CreateBackup(backup_dir).ok());
      const auto components = ComponentFiles();
      ASSERT_EQ(components.size(), 1u);

      DecayOnRead(&fault_fs, components[0]);
      Value record;
      EXPECT_TRUE(ds->Lookup(10, &record).IsDataDamage());
      fault_fs.ClearRules();
      if (flush_before_repair) {
        ASSERT_TRUE(ds->Flush().ok());
        EXPECT_EQ(ManifestDamage().size(), 1u);
      }
      ASSERT_TRUE(ds->RepairQuarantined(backup_dir).ok());
      EXPECT_TRUE(ds->QuarantineList().empty());
      EXPECT_TRUE(ManifestDamage().empty());
    }
    EXPECT_TRUE(ReopenedQuarantine().empty());
    EXPECT_TRUE(ManifestDamage().empty());
    std::filesystem::remove_all(backup_dir);
  }

  static std::vector<std::pair<uint64_t, Status>> SortedById(
      std::vector<std::pair<uint64_t, Status>> list) {
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    return list;
  }
};

// Damage found by a lookup and by a scan reaches the manifest at the
// next Flush, sorted by component id, and a reopen restores both
// quarantines with the same code and reason.
TEST_P(DamagePersistenceTest, ReadDamageSurvivesFlushAndReopen) {
  FaultInjectionFs fault_fs;
  std::vector<std::pair<uint64_t, Status>> found;
  {
    auto store = Store::Open(Options(&fault_fs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds_or = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
    Dataset* ds = *ds_or;
    FlushRange(ds, 0, 80);
    FlushRange(ds, 1000, 80);
    FlushRange(ds, 2000, 80);
    const auto components = ComponentFiles();  // oldest first
    ASSERT_EQ(components.size(), 3u);

    // A scan stops at its first damaged source: decay only the newest.
    DecayOnRead(&fault_fs, components[2]);
    EXPECT_TRUE(ScanAll(*ds->GetSnapshot()).IsDataDamage());
    // The newer components' key fences exclude key 10: the lookup reads
    // only the oldest.
    DecayOnRead(&fault_fs, components[0]);
    Value record;
    EXPECT_TRUE(ds->Lookup(10, &record).IsDataDamage());
    fault_fs.ClearRules();

    found = SortedById(ds->QuarantineList());
    ASSERT_EQ(found.size(), 2u);
    ASSERT_TRUE(ds->Flush().ok());
  }
  const auto damage = ManifestDamage();
  ASSERT_EQ(damage.size(), 2u);
  for (size_t i = 0; i < damage.size(); ++i) {
    EXPECT_EQ(damage[i].component_id, found[i].first);
    EXPECT_EQ(damage[i].status_code,
              static_cast<uint8_t>(found[i].second.code()));
    EXPECT_EQ(damage[i].reason, found[i].second.message());
  }
  const auto reopened = SortedById(ReopenedQuarantine());
  ASSERT_EQ(reopened.size(), 2u);
  for (size_t i = 0; i < reopened.size(); ++i) {
    EXPECT_EQ(reopened[i].first, found[i].first);
    EXPECT_EQ(reopened[i].second.ToString(), found[i].second.ToString());
  }
}

// A component repaired from a backup is healthy after a reopen, and the
// manifest holds no record for it.
TEST_P(DamagePersistenceTest, RepairedComponentStaysHealthyAfterReopen) {
  RepairThenReopen(/*flush_before_repair=*/true);
}

// Likewise when the repair comes before any rewrite persisted the damage:
// the repair's own rewrite must not record it for the repaired file.
TEST_P(DamagePersistenceTest, RepairOfUnpersistedDamageLeavesNoRecord) {
  RepairThenReopen(/*flush_before_repair=*/false);
}

// A merged-away component that only a snapshot still pins is not in the
// dataset: damage found through the snapshot quarantines it there but
// never reaches the manifest.
TEST_P(DamagePersistenceTest, MergedAwayDamageStaysOutOfManifest) {
  FaultInjectionFs fault_fs;
  {
    auto store = Store::Open(Options(&fault_fs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds_or = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
    Dataset* ds = *ds_or;
    FlushRange(ds, 0, 80);
    FlushRange(ds, 1000, 80);
    const auto inputs = ComponentFiles();
    ASSERT_EQ(inputs.size(), 2u);
    const Snapshot::Ref pinned = ds->GetSnapshot();
    ASSERT_TRUE(ds->MergeAll().ok());
    ASSERT_EQ(ds->component_count(), 1u);

    DecayOnRead(&fault_fs, inputs[0]);
    Value record;
    EXPECT_TRUE(pinned->Lookup(10, &record).IsDataDamage());
    fault_fs.ClearRules();
    EXPECT_GE(ds->stats().checksum_failures, 1u);
    EXPECT_TRUE(ds->QuarantineList().empty());
    ASSERT_TRUE(ds->Flush().ok());
    EXPECT_TRUE(ManifestDamage().empty());
    ASSERT_TRUE(ds->Lookup(10, &record).ok());
  }
  EXPECT_TRUE(ManifestDamage().empty());
  EXPECT_TRUE(ReopenedQuarantine().empty());
}

// A manifest rewrite that fails leaves the damage pending: the next
// Flush retries the rewrite and persists it.
TEST_P(DamagePersistenceTest, FailedRewriteRetriedByFlush) {
  FaultInjectionFs fault_fs;
  std::vector<std::pair<uint64_t, Status>> found;
  {
    StoreOptions options = Options(&fault_fs);
    options.io_retry.max_retries = 0;
    auto store = Store::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds_or = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
    Dataset* ds = *ds_or;
    FlushRange(ds, 0, 80);
    const auto components = ComponentFiles();
    ASSERT_EQ(components.size(), 1u);

    DecayOnRead(&fault_fs, components[0]);
    Value record;
    EXPECT_TRUE(ds->Lookup(10, &record).IsDataDamage());
    found = ds->QuarantineList();
    ASSERT_EQ(found.size(), 1u);
    FaultRule full;
    full.path_substring = ".MANIFEST";
    full.op = FaultOp::kWrite;
    full.error_code = ENOSPC;
    fault_fs.AddRule(full);
    const uint64_t sequence = ds->manifest_sequence();
    EXPECT_FALSE(ds->Flush().ok());
    EXPECT_EQ(ds->manifest_sequence(), sequence);
    EXPECT_TRUE(ManifestDamage().empty());

    fault_fs.ClearRules();
    ASSERT_TRUE(ds->Flush().ok());
    EXPECT_EQ(ds->manifest_sequence(), sequence + 1);
    const auto damage = ManifestDamage();
    ASSERT_EQ(damage.size(), 1u);
    EXPECT_EQ(damage[0].component_id, found[0].first);
    // Nothing is pending any more: a further Flush writes nothing.
    ASSERT_TRUE(ds->Flush().ok());
    EXPECT_EQ(ds->manifest_sequence(), sequence + 1);
  }
  const auto reopened = ReopenedQuarantine();
  ASSERT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened[0].first, found[0].first);
  EXPECT_EQ(reopened[0].second.ToString(), found[0].second.ToString());
}

// A merge whose manifest rewrite fails leaves its inputs listed on disk.
// The next successful rewrite, here a Flush with nothing to flush, drops
// them from the manifest and deletes their files: afterwards the
// directory holds exactly the merged component.
TEST_P(DamagePersistenceTest, FailedMergeRewriteRetiresInputsOnNextRewrite) {
  FaultInjectionFs fault_fs;
  StoreOptions options = Options(&fault_fs);
  options.io_retry.max_retries = 0;
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  FlushRange(ds, 0, 80);
  FlushRange(ds, 1000, 80);
  ASSERT_EQ(ComponentFiles().size(), 2u);

  FaultRule full;
  full.path_substring = ".MANIFEST";
  full.op = FaultOp::kWrite;
  full.error_code = ENOSPC;
  fault_fs.AddRule(full);
  EXPECT_FALSE(ds->MergeAll().ok());
  fault_fs.ClearRules();
  ASSERT_TRUE(ds->Flush().ok());

  auto manifest = ReadManifest(ManifestPath(dir_ + "/docs", "docs"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->components.size(), 1u);
  EXPECT_EQ(ComponentFiles(),
            std::vector<std::string>{dir_ + "/docs/" +
                                     manifest->components[0].file});
  Value record;
  EXPECT_TRUE(ds->Lookup(1010, &record).ok());
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, DamagePersistenceTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

INSTANTIATE_TEST_SUITE_P(AllLayouts, FaultTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// A multi-page leaf (an AMAX mega leaf, an APAX leaf whose record batch
// overflows a page) is read with one read for all its pages, each page
// verified in place. Damage in the leaf's *last* page must still surface
// as ChecksumMismatch naming exactly that page, and quarantine only the
// damaged component.
class MultiPageLeafFaultTest : public FaultTest {};

TEST_P(MultiPageLeafFaultTest, FlipInLastPageNamesThatPage) {
  {
    auto store = Store::Open(Options());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Rng rng(11);
    for (int64_t i = 0; i < 40; ++i) {
      // Random letters: LZ leaves the leaf several pages long. With one
      // column beside the key, an AMAX leaf's last page belongs to that
      // column's megapage, which one read covers from Page 0 on.
      std::string blob(3 * kPage, ' ');
      for (char& c : blob) c = static_cast<char>('a' + rng.Uniform(26));
      Value v = Value::MakeObject();
      v.Set("id", Value::Int(i));
      v.Set("blob", Value::String(blob));
      ASSERT_TRUE((*ds)->Insert(v).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());  // component A: keys 0..39
    for (int64_t i = 1000; i < 1040; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());  // component B: keys 1000..1039
  }
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 2u);
  const std::string& victim = components.front();
  uint64_t last_page = 0;
  {
    BufferCache cache(64 * kPage, kPage);
    auto reader = ComponentReader::Open(victim, &cache, kPage);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const LeafEntry& leaf : (*reader)->leaves()) {
      if (leaf.page_count >= 2) {
        last_page = leaf.first_page + leaf.page_count - 1;
        break;
      }
    }
  }
  ASSERT_GT(last_page, 0u) << "no multi-page leaf in " << victim;
  FlipByteOnDisk(victim, static_cast<std::streamoff>(
                             last_page * (kPage + kPageTrailerBytes) + 16));

  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  Status scan_error;
  auto cursor = ds->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  while (scan_error.ok()) {
    auto more = (*cursor)->Next();
    if (!more.ok()) {
      scan_error = more.status();
    } else if (!*more) {
      break;
    } else {
      Value v;
      scan_error = (*cursor)->Record(&v);
    }
  }
  ASSERT_TRUE(scan_error.IsChecksumMismatch()) << scan_error.ToString();
  const std::string message = scan_error.ToString();
  const std::string named = victim + " page " + std::to_string(last_page);
  ASSERT_GE(message.size(), named.size());
  EXPECT_EQ(message.substr(message.size() - named.size()), named) << message;
  EXPECT_EQ(ds->stats().quarantined_components, 1u);
  Value record;
  EXPECT_TRUE(ds->Lookup(10, &record).IsChecksumMismatch());
  ASSERT_TRUE(ds->Lookup(1000, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "user_1000");
}

INSTANTIATE_TEST_SUITE_P(ColumnarLayouts, MultiPageLeafFaultTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// Column units: damage found under a warm projected scan's cache. A read
// of a column that scan did not cache misses (APAX re-reads the whole
// leaf to build the unit, AMAX reads the column's megapage), surfaces
// the damage and quarantines the component; the units already cached are
// not served afterwards, to scans or lookups.
class ColumnUnitFaultTest : public FaultTest {};

TEST_P(ColumnUnitFaultTest, UncachedColumnReadQuarantines) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  auto scan = [&](const Projection& projection) {
    auto cursor = ds->Scan(projection);
    if (!cursor.ok()) return cursor.status();
    while (true) {
      Result<bool> more = (*cursor)->Next();
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      Value v;
      LSMCOL_RETURN_NOT_OK((*cursor)->Record(&v));
    }
  };
  const Projection names = Projection::Of({{"name"}});
  ASSERT_TRUE(scan(names).ok());
  const CacheStats cold = ds->cache()->stats();
  ASSERT_TRUE(scan(names).ok());
  const CacheStats warm = ds->cache()->stats();
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_EQ(warm.misses, cold.misses);  // served from cached units only
  EXPECT_EQ(warm.pages_read, cold.pages_read);

  // Damage every page of every leaf: whatever pages the uncached column's
  // unit is built from.
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 1u);
  std::vector<uint64_t> pages;
  {
    BufferCache cache(64 * kPage, kPage);
    auto reader = ComponentReader::Open(components.front(), &cache, kPage);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const LeafEntry& leaf : (*reader)->leaves()) {
      for (uint32_t p = 0; p < leaf.page_count; ++p) {
        pages.push_back(leaf.first_page + p);
      }
    }
  }
  for (uint64_t page : pages) {
    FlipByteOnDisk(components.front(),
                   static_cast<std::streamoff>(
                       page * (kPage + kPageTrailerBytes) + 16));
  }

  Status st = scan(Projection::Of({{"score"}}));
  EXPECT_TRUE(st.IsDataDamage()) << st.ToString();
  EXPECT_EQ(ds->stats().quarantined_components, 1u);
  const CacheStats damaged = ds->cache()->stats();
  EXPECT_TRUE(scan(names).IsDataDamage());
  Value record;
  EXPECT_TRUE(ds->Lookup(10, names, &record).IsDataDamage());
  EXPECT_EQ(ds->cache()->stats().hits, damaged.hits);
  EXPECT_EQ(ds->cache()->stats().pages_read, damaged.pages_read);
}

INSTANTIATE_TEST_SUITE_P(ColumnarLayouts, ColumnUnitFaultTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// ------------------------------------------------- non-parameterized

class FaultFsStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/fault_fs_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> TempComponentFiles() const {
    std::vector<std::string> out;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ + "/docs")) {
      const std::string name = entry.path().filename().string();
      if (name.size() >= 8 && name.rfind(".cmp.tmp") == name.size() - 8) {
        out.push_back(name);
      }
    }
    return out;
  }

  std::string dir_;
};

// Satellite: ENOSPC in the middle of a flush fails the flush, unlinks the
// half-written .cmp.tmp immediately (so the space comes back without
// waiting for the next open's sweep), and once space frees, the same
// sealed memtable flushes successfully. A reopen finds no orphans.
TEST_F(FaultFsStoreTest, EnospcMidFlushCleansTempAndResumes) {
  FaultInjectionFs fault_fs;
  StoreOptions store_options;
  store_options.dir = dir_;
  store_options.page_size = kPage;
  store_options.cache_bytes = 512 * kPage;
  store_options.fs = &fault_fs;
  store_options.io_retry.max_retries = 1;  // ENOSPC persists; fail fast
  store_options.io_retry.initial_backoff_micros = 100;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions options;
  options.layout = LayoutKind::kVb;
  options.auto_merge = false;
  auto ds_or = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 200; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    v.Set("payload", Value::String(std::string(200, 'x')));
    ASSERT_TRUE(ds->Insert(v).ok());
  }

  // The volume fills mid-flush: one physical page fits, the next write
  // gets ENOSPC.
  fault_fs.SetByteQuota(kPage + kPageTrailerBytes);
  Status st = ds->Flush();
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_GT(fault_fs.injected_errors(), 0u);
  EXPECT_TRUE(TempComponentFiles().empty()) << "orphan .cmp.tmp left behind";

  // Space frees (a reclaimer ran); the retried flush drains the same
  // sealed memtable — no acked write is lost.
  fault_fs.ClearByteQuota();
  ASSERT_TRUE(ds->Flush().ok());
  EXPECT_GE(ds->stats().io_retries, 1u);  // the capped retry did run
  Value record;
  ASSERT_TRUE(ds->Lookup(0, &record).ok());
  ASSERT_TRUE(ds->Lookup(199, &record).ok());

  // Same story mid-merge: the merge output tmp is unlinked on failure and
  // the inputs stay live.
  for (int64_t i = 1000; i < 1200; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    v.Set("payload", Value::String(std::string(200, 'y')));
    ASSERT_TRUE(ds->Insert(v).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_GE(ds->component_count(), 2u);
  const size_t components_before = ds->component_count();
  fault_fs.SetByteQuota(kPage + kPageTrailerBytes);
  st = ds->MergeAll();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(TempComponentFiles().empty()) << "orphan merge tmp left behind";
  EXPECT_EQ(ds->component_count(), components_before);
  ASSERT_TRUE(ds->Lookup(1100, &record).ok());
  fault_fs.ClearByteQuota();
  ASSERT_TRUE(ds->MergeAll().ok());
  EXPECT_EQ(ds->component_count(), 1u);

  // A fresh open over the real filesystem sees every acked write and no
  // leftovers.
  store->reset();
  StoreOptions plain = store_options;
  plain.fs = nullptr;
  auto reopened = Store::Open(plain);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(TempComponentFiles().empty());
  auto ds2 = (*reopened)->OpenDataset("docs", options);
  ASSERT_TRUE(ds2.ok()) << ds2.status().ToString();
  ASSERT_TRUE((*ds2)->Lookup(0, &record).ok());
  ASSERT_TRUE((*ds2)->Lookup(199, &record).ok());
  ASSERT_TRUE((*ds2)->Lookup(1199, &record).ok());
}

// Transient EIO blips during a flush are retried with backoff and
// succeed without poisoning the dataset; the retries are visible in
// DatasetStats.
TEST_F(FaultFsStoreTest, TransientEioRetriesSucceed) {
  FaultInjectionFs fault_fs;
  StoreOptions store_options;
  store_options.dir = dir_;
  store_options.page_size = kPage;
  store_options.cache_bytes = 512 * kPage;
  store_options.fs = &fault_fs;
  store_options.io_retry.max_retries = 4;
  store_options.io_retry.initial_backoff_micros = 100;
  store_options.io_retry.max_backoff_micros = 1000;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions options;
  options.layout = LayoutKind::kApax;
  options.auto_merge = false;
  auto ds_or = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 100; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    v.Set("name", Value::String("r" + std::to_string(i)));
    ASSERT_TRUE(ds->Insert(v).ok());
  }

  // Two EIO blips against the component build; attempts 1 and 2 die,
  // attempt 3 goes through.
  FaultRule rule;
  rule.path_substring = ".cmp.tmp";
  rule.op = FaultOp::kWrite;
  rule.fail_after = 1;
  rule.max_failures = 2;
  fault_fs.AddRule(rule);
  ASSERT_TRUE(ds->Flush().ok());
  EXPECT_EQ(fault_fs.injected_errors(), 2u);
  DatasetStats stats = ds->stats();
  EXPECT_EQ(stats.io_retries, 2u);
  EXPECT_GT(stats.io_retry_backoff_micros, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_TRUE(ds->background_error().ok());
  Value record;
  ASSERT_TRUE(ds->Lookup(42, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "r42");
}

}  // namespace
}  // namespace lsmcol

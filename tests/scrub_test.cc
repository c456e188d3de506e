// Integration tests for the online integrity scrubber: read-side bit-flip
// injection, the scheduler's low-priority lane, synchronous and background
// scrub passes (detection + quarantine across all four layouts), damage
// persistence across restart, repair under the decoded-unit cache, and
// the WAL/background-error fields of Store::Health().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/lsm/scheduler.h"
#include "src/lsm/scrubber.h"
#include "src/storage/fault_injection_fs.h"
#include "src/storage/file.h"
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

// ----------------------------------------------------------- fault fs

// Satellite: a kRead flip rule corrupts what the reader sees while the
// bytes at rest stay clean — latent media decay, discovered on re-read.
TEST(ReadFlipTest, CorruptsReturnedBytesNotTheFile) {
  const std::string dir = testing::TempDir() + "/read_flip";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(CreateDirDurable(dir).ok());
  const std::string path = dir + "/victim.dat";

  FaultInjectionFs fault_fs;
  {
    auto file = fault_fs.Create(path);
    ASSERT_TRUE(file.ok());
    std::string payload(4096, 'x');
    ASSERT_TRUE((*file)->WriteAt(0, Slice(payload)).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  FaultRule rule;
  rule.path_substring = "victim";
  rule.op = FaultOp::kRead;
  rule.flip_bit = true;
  fault_fs.AddRule(rule);

  Buffer seen;
  {
    auto file = fault_fs.Open(path, /*writable=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->ReadAt(0, 4096, &seen).ok());
  }
  ASSERT_EQ(seen.size(), 4096u);
  EXPECT_NE(std::string(seen.data(), seen.size()), std::string(4096, 'x'));
  EXPECT_GE(fault_fs.flipped_bits(), 1u);

  // The stored bytes never changed: a clean read (no rules) sees them.
  fault_fs.ClearRules();
  Buffer clean;
  {
    auto file = fault_fs.Open(path, /*writable=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->ReadAt(0, 4096, &clean).ok());
  }
  EXPECT_EQ(std::string(clean.data(), clean.size()), std::string(4096, 'x'));
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- scheduler

TEST(SchedulerLowLaneTest, LowTasksRunWhenIdleAndAfterNotBefore) {
  FlushMergeScheduler scheduler(1);
  std::atomic<int> ran{0};
  ASSERT_TRUE(scheduler.ScheduleLow([&] { ++ran; }));
  for (int i = 0; i < 500 && ran.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(scheduler.low_tasks_run(), 1u);

  // A delayed low task does not run before its not_before time.
  const auto not_before =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
  ASSERT_TRUE(scheduler.ScheduleLow([&] { ++ran; }, not_before));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran.load(), 1);
  for (int i = 0; i < 500 && ran.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ran.load(), 2);
  scheduler.Stop();
}

TEST(SchedulerLowLaneTest, HighLanePreemptsAndStopDiscardsLow) {
  FlushMergeScheduler scheduler(1);
  // Stall the only worker so both lanes queue up behind it.
  std::atomic<bool> release{false};
  std::atomic<int> order_probe{0};
  scheduler.Schedule(nullptr, [&] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });
  std::atomic<int> low_ran{0};
  std::atomic<int> high_ran{0};
  ASSERT_TRUE(scheduler.ScheduleLow(
      [&] { low_ran = ++order_probe; }));  // due immediately
  scheduler.Schedule(nullptr, [&] { high_ran = ++order_probe; });
  release = true;
  for (int i = 0; i < 500 && (low_ran.load() == 0 || high_ran.load() == 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The high task ran first even though the low task was enqueued first.
  ASSERT_GT(low_ran.load(), 0);
  ASSERT_GT(high_ran.load(), 0);
  EXPECT_LT(high_ran.load(), low_ran.load());

  // Stop() discards a still-pending (far-future) low task.
  std::atomic<int> never{0};
  ASSERT_TRUE(scheduler.ScheduleLow(
      [&] { ++never; },
      std::chrono::steady_clock::now() + std::chrono::hours(1)));
  scheduler.Stop();
  EXPECT_EQ(never.load(), 0);
}

// ----------------------------------------------------------- scrubbing

class ScrubTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/scrub_" +
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
    options.auto_merge = false;
    return options;
  }

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
    f.put(static_cast<char>(c ^ 0x10));
  }

  std::string dir_;
};

// Tentpole: a synchronous scrub pass re-reads every leaf physically — a
// warm buffer cache must not mask on-disk decay — detects the damage,
// quarantines exactly the damaged component, and Health() names it.
TEST_P(ScrubTest, ScrubNowDetectsDecayUnderWarmCache) {
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  for (int64_t i = 1000; i < 1200; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_EQ(ds->component_count(), 2u);

  // Warm the cache over everything, then a clean scrub pass.
  {
    auto cursor = ds->Scan(Projection::All());
    ASSERT_TRUE(cursor.ok());
    while (true) {
      auto ok = (*cursor)->Next();
      ASSERT_TRUE(ok.ok());
      if (!*ok) break;
    }
  }
  {
    auto pass = (*store)->ScrubNow();
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    EXPECT_EQ(pass->components, 2u);
    EXPECT_EQ(pass->damaged, 0u);
    EXPECT_GT(pass->bytes, 0u);
  }

  // Decay a leaf byte on disk, under the live (cached) engine.
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 2u);
  FlipByteOnDisk(components.front(), 16);

  auto pass = (*store)->ScrubNow();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->damaged, 1u);
  EXPECT_EQ(pass->components, 1u);

  DatasetStats stats = ds->stats();
  EXPECT_EQ(stats.quarantined_components, 1u);
  EXPECT_GE(stats.scrub_passes, 2u);
  EXPECT_GE(stats.scrub_damage_found, 1u);
  EXPECT_GT(stats.scrub_bytes, 0u);

  const auto health = (*store)->Health();
  ASSERT_EQ(health.size(), 1u);
  ASSERT_EQ(health[0].quarantined.size(), 1u);
  EXPECT_GE(health[0].stats.scrub_passes, 2u);
  EXPECT_GE(health[0].stats.scrub_damage_found, 1u);
  // A second pass skips the quarantined component instead of re-probing.
  auto again = (*store)->ScrubNow();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->skipped_quarantined, 1u);
  EXPECT_EQ(again->damaged, 0u);
}

// Decoded-unit cache: a repaired component is a new file and is read
// afresh — no unit cached from the damaged file is served for it.
TEST_P(ScrubTest, RepairedComponentReadsNoStaleUnits) {
  const std::string backup_dir = dir_ + "_backup";
  std::filesystem::remove_all(backup_dir);
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_TRUE((*store)->CreateBackup(backup_dir).ok());

  Value before;
  ASSERT_TRUE(ds->Lookup(10, &before).ok());  // the units are now cached
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 1u);
  FlipByteOnDisk(components.front(), 16);
  auto pass = (*store)->ScrubNow();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  ASSERT_EQ(pass->damaged, 1u);

  // A snapshot from before the repair keeps the damaged component — and
  // its cached units — alive across it.
  const Snapshot::Ref pre_repair = ds->GetSnapshot();
  ASSERT_TRUE(ds->RepairQuarantined(backup_dir).ok());
  EXPECT_TRUE(ds->QuarantineList().empty());
  EXPECT_GT(ds->cache()->cached_bytes(), 0u);
  const CacheStats repaired = ds->cache()->stats();
  Value after;
  ASSERT_TRUE(ds->Lookup(10, &after).ok());
  EXPECT_EQ(after.Get("name").string_value(), "user_10");
  EXPECT_EQ(after.Get("name").string_value(),
            before.Get("name").string_value());
  const CacheStats read = ds->cache()->stats();
  EXPECT_EQ(read.hits, repaired.hits);  // nothing served from old units
  EXPECT_GT(read.misses, repaired.misses);
  EXPECT_GT(read.pages_read, repaired.pages_read);
  // The pinned old component still answers as quarantined.
  EXPECT_TRUE(pre_repair->Lookup(10, &after).IsDataDamage());
  ASSERT_TRUE((*store)->Close().ok());
  std::filesystem::remove_all(backup_dir);
}

// Satellite: scrub-found damage is persisted in the manifest — a restart
// must not silently "heal" a known-bad component.
TEST_P(ScrubTest, QuarantineSurvivesReopen) {
  {
    auto store = Store::Open(Options());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds = (*store)->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int64_t i = 0; i < 150; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    const auto components = ComponentFiles();
    ASSERT_EQ(components.size(), 1u);
    FlipByteOnDisk(components.front(), 16);
    auto pass = (*store)->ScrubNow();
    ASSERT_TRUE(pass.ok());
    ASSERT_EQ(pass->damaged, 1u);
  }
  // Reopen: the component must come back quarantined without any read
  // having to stumble over the damage again.
  auto store = Store::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  EXPECT_EQ(ds->stats().quarantined_components, 1u);
  const auto quarantined = ds->QuarantineList();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_TRUE(quarantined[0].second.IsDataDamage())
      << quarantined[0].second.ToString();
  Value record;
  EXPECT_TRUE(ds->Lookup(10, &record).IsDataDamage());
}

// Tentpole: the background scrubber finds decay on its own — no query,
// no explicit ScrubNow — within its interval/rate budget.
TEST_P(ScrubTest, BackgroundScrubberQuarantinesDecayedComponent) {
  StoreOptions options = Options();
  options.background_threads = 1;
  options.scrub.enabled = true;
  options.scrub.interval_ms = 5;
  options.scrub.bytes_per_sec = 0;  // unthrottled: test speed
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());

  // A clean pass completes in the background.
  bool saw_pass = false;
  for (int i = 0; i < 2500 && !saw_pass; ++i) {
    saw_pass = ds->stats().scrub_passes >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(saw_pass) << "background scrubber never completed a pass";
  ASSERT_NE((*store)->scrubber(), nullptr);
  EXPECT_GE((*store)->scrubber()->slices_run(), 1u);

  // Decay the component; the scrubber must quarantine it unprompted.
  const auto components = ComponentFiles();
  ASSERT_EQ(components.size(), 1u);
  FlipByteOnDisk(components.front(), 16);
  bool quarantined = false;
  for (int i = 0; i < 2500 && !quarantined; ++i) {
    quarantined = ds->stats().quarantined_components == 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(quarantined) << "background scrubber never found the decay";
  ASSERT_TRUE((*store)->Close().ok());
}

// Tentpole: the rate budget holds — an unthrottled pass and a throttled
// background scrubber verify the same bytes, but the throttled one
// spreads them over wall-clock time instead of one burst.
TEST_P(ScrubTest, RateBudgetSpreadsSlices) {
  StoreOptions options = Options();
  options.background_threads = 1;
  options.scrub.enabled = true;
  options.scrub.interval_ms = 100;  // idle briefly between rotations
  options.scrub.bytes_per_sec = 256 * 1024;  // slow enough to observe
  options.scrub.max_slice_bytes = 16 * 1024;
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  const uint64_t on_disk = ds->OnDiskBytes();
  ASSERT_GT(on_disk, 32u * 1024);  // several slices worth

  // Wait until one full pass worth of bytes has been verified (the
  // scrubber may have completed an empty pass before the flush landed,
  // so pass counts alone prove nothing about the data).
  const auto start = std::chrono::steady_clock::now();
  bool done = false;
  while (!done &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(30)) {
    done = ds->stats().scrub_bytes >= on_disk;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(done) << "throttled pass did not finish in time";
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const DatasetStats stats = ds->stats();
  // At 256 KiB/s verifying `scrub_bytes` takes at least bytes/rate
  // seconds; allow generous slack below the theoretical floor to stay
  // robust on loaded CI machines, but reject an instantaneous burst.
  const auto floor_ms = std::chrono::milliseconds(
      stats.scrub_bytes * 1000 / (256 * 1024) / 2);
  EXPECT_GE(elapsed, floor_ms)
      << "scrub finished faster than the rate budget allows";
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, ScrubTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// ----------------------------------------------------------- health

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/scrub_health_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

// Satellite: a WAL that failed closed shows up in Health() as wedged.
TEST_F(HealthTest, WalWedgeSurfacesInHealth) {
  FaultInjectionFs fault_fs;
  StoreOptions options;
  options.dir = dir_;
  options.page_size = kPage;
  options.cache_bytes = 64 * kPage;
  options.wal.enabled = true;
  options.fs = &fault_fs;
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs");
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  ASSERT_TRUE(ds->Insert(MakeRecord(1)).ok());
  {
    const auto health = (*store)->Health();
    ASSERT_EQ(health.size(), 1u);
    EXPECT_FALSE(health[0].wal_wedged);
  }
  FaultRule rule;
  rule.path_substring = ".wal";
  rule.op = FaultOp::kSync;
  rule.max_failures = -1;
  fault_fs.AddRule(rule);
  EXPECT_FALSE(ds->Insert(MakeRecord(2)).ok());
  const auto health = (*store)->Health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_TRUE(health[0].wal_wedged);
  EXPECT_FALSE(health[0].wal_status.ok());
  fault_fs.ClearRules();
}

// Satellite: last_background_error is sticky — it keeps reporting the
// first failure even after a retry cleared the pending error.
TEST_F(HealthTest, LastBackgroundErrorIsSticky) {
  FaultInjectionFs fault_fs;
  StoreOptions options;
  options.dir = dir_;
  options.page_size = kPage;
  options.cache_bytes = 64 * kPage;
  options.background_threads = 1;
  options.fs = &fault_fs;
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions doc;
  doc.auto_merge = false;
  auto ds_or = (*store)->OpenDataset("docs", doc);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i)).ok());
  }
  // Fail the flush outright: ENOSPC is IOError-class, so the writer
  // retries it internally (IoRetryOptions::max_retries = 4) — keep the
  // device "full" past the whole retry budget so the failure surfaces.
  FaultRule rule;
  rule.path_substring = ".cmp.tmp";
  rule.op = FaultOp::kWrite;
  rule.error_code = ENOSPC;
  rule.max_failures = 8;
  fault_fs.AddRule(rule);
  EXPECT_FALSE(ds->Flush().ok());
  // Space freed; the retry drains the sealed memtable and clears the
  // pending error...
  fault_fs.ClearRules();
  Status flushed = ds->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_TRUE(ds->background_error().ok());

  const auto health = (*store)->Health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_FALSE(health[0].has_background_error);
  // ...but the sticky first-failure record survives the recovery.
  EXPECT_FALSE(health[0].last_background_error.ok());
  ASSERT_TRUE((*store)->Close().ok());
}

}  // namespace
}  // namespace lsmcol

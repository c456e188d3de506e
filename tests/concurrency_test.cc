// Concurrency tests for the flush/merge scheduler: memtable rotation,
// snapshots over sealed memtables, back-pressure, shutdown during
// background work, a stopped pool running its tasks on the caller,
// concurrent writers on a zero-worker store, a writers-vs-readers
// stress run with background merges enabled, point lookups checked
// against a model of concurrent upserts and deletes, an abandoned flush
// build deleting its file, and seeded flush, merge, backup, repair and
// reopen orders around a held worker, checked against the manifest on
// disk. Built to run clean under ThreadSanitizer (the CI tsan job runs
// this suite).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/compaction_policy.h"
#include "src/lsm/dataset.h"
#include "src/lsm/scheduler.h"
#include "src/storage/backup_manifest.h"
#include "src/storage/fault_injection_fs.h"
#include "src/storage/filesystem.h"
#include "src/storage/manifest.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

Value MakeRecord(int64_t id) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("name", Value::String("user_" + std::to_string(id)));
  v.Set("score", Value::Double(static_cast<double>(id) * 0.5));
  Value nested = Value::MakeObject();
  nested.Set("level", Value::Int(id % 5));
  v.Set("meta", std::move(nested));
  return v;
}

/// Scan everything through a fresh snapshot; returns the sorted keys and
/// checks the cursor's ordering invariant on the way.
std::vector<int64_t> ScanKeys(Dataset* dataset) {
  std::vector<int64_t> keys;
  auto cursor = dataset->Scan(Projection::All());
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return keys;
  while (true) {
    auto ok = (*cursor)->Next();
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    if (!ok.ok() || !*ok) break;
    if (!keys.empty()) {
      EXPECT_GT((*cursor)->key(), keys.back());
    }
    keys.push_back((*cursor)->key());
  }
  return keys;
}

class ConcurrencyTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/conc_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  StoreOptions DefaultStoreOptions(int background_threads) {
    StoreOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.cache_bytes = 512 * kPage;
    options.background_threads = background_threads;
    return options;
  }

  DatasetOptions SmallMemtableOptions() {
    DatasetOptions options;
    options.layout = GetParam();
    options.page_size = kPage;  // Store overwrites; standalone opens need it
    options.memtable_bytes = 8 * 1024;  // rotate every few dozen records
    options.amax_max_records = 500;
    return options;
  }

  std::string dir_;
};

TEST_P(ConcurrencyTest, BackgroundFlushKeepsWritePathNonBlocking) {
  auto store = Store::Open(DefaultStoreOptions(2));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds = (*store)->OpenDataset("docs", SmallMemtableOptions());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  constexpr int64_t kRecords = 600;
  for (int64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  Status st = (*ds)->WaitForBackgroundWork();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE((*ds)->stats().flushes, 2u);
  EXPECT_GE((*ds)->component_count(), 1u);
  EXPECT_EQ((*ds)->immutable_memtable_count(), 0u);
  std::vector<int64_t> keys = ScanKeys(*ds);
  ASSERT_EQ(keys.size(), static_cast<size_t>(kRecords));
  for (int64_t i = 0; i < kRecords; ++i) EXPECT_EQ(keys[i], i);
}

TEST_P(ConcurrencyTest, SnapshotIncludesSealedMemtables) {
  // One worker, blocked: rotated memtables pile up as immutables, and
  // reads must still see their data (the snapshot pins them).
  FlushMergeScheduler scheduler(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  scheduler.Schedule(nullptr, [opened] { opened.wait(); });

  BufferCache cache(512 * kPage, kPage);
  DatasetOptions options = SmallMemtableOptions();
  options.dir = dir_;
  options.scheduler = &scheduler;
  options.max_immutable_memtables = 8;  // no back-pressure in this test
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  int64_t inserted = 0;
  while ((*ds)->immutable_memtable_count() < 2 && inserted < 10000) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(inserted)).ok());
    ++inserted;
  }
  ASSERT_GE((*ds)->immutable_memtable_count(), 2u);
  EXPECT_EQ((*ds)->component_count(), 0u);  // nothing flushed yet

  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  EXPECT_GE(snapshot->immutable_memtable_count(), 2u);
  std::vector<int64_t> keys = ScanKeys(ds->get());
  ASSERT_EQ(keys.size(), static_cast<size_t>(inserted));
  Value out;
  ASSERT_TRUE((*ds)->Lookup(0, &out).ok());  // lives in a sealed memtable
  EXPECT_EQ(out.Get("id").int_value(), 0);

  gate.set_value();
  Status st = (*ds)->WaitForBackgroundWork();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE((*ds)->component_count(), 1u);
  // The pre-flush snapshot still answers from its pinned memtables.
  ASSERT_TRUE(snapshot->Lookup(0, &out).ok());
  EXPECT_EQ(keys.size(), ScanKeys(ds->get()).size());
  ds->reset();
  scheduler.Stop();
}

TEST_P(ConcurrencyTest, BackPressureStallsWritersUntilFlushCatchesUp) {
  FlushMergeScheduler scheduler(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  scheduler.Schedule(nullptr, [opened] { opened.wait(); });

  BufferCache cache(512 * kPage, kPage);
  DatasetOptions options = SmallMemtableOptions();
  options.dir = dir_;
  options.scheduler = &scheduler;
  options.max_immutable_memtables = 2;
  options.auto_merge = false;  // isolate the immutable-count stall
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  constexpr int64_t kRecords = 2000;  // enough for > 2 rotations
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int64_t i = 0; i < kRecords; ++i) {
      Status st = (*ds)->Insert(MakeRecord(i));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    writer_done.store(true);
  });

  // The writer must hit the immutable cap and stall there (the single
  // worker is blocked on the gate, so nothing drains).
  while ((*ds)->immutable_memtable_count() < 2) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(writer_done.load());
  EXPECT_LE((*ds)->immutable_memtable_count(), 2u);
  EXPECT_GE((*ds)->stats().write_stalls, 1u);

  gate.set_value();  // unblock the worker; the drain releases the writer
  writer.join();
  EXPECT_TRUE(writer_done.load());
  ASSERT_TRUE((*ds)->Flush().ok());
  Status st = (*ds)->WaitForBackgroundWork();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ScanKeys(ds->get()).size(), static_cast<size_t>(kRecords));
  ds->reset();
  scheduler.Stop();
}

TEST_P(ConcurrencyTest, CloseDuringBackgroundFlushDrainsSealedMemtables) {
  constexpr int64_t kRecords = 500;
  {
    auto store = Store::Open(DefaultStoreOptions(2));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto ds = (*store)->OpenDataset("docs", SmallMemtableOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i)).ok());
    }
    // No Flush(), no WaitForBackgroundWork(): destruction must wait for
    // in-flight tasks, drain every sealed memtable, and lose only the
    // active memtable.
    store->reset();
  }
  auto reopened = Store::Open(DefaultStoreOptions(0));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto ds = (*reopened)->OpenDataset("docs", SmallMemtableOptions());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  std::vector<int64_t> keys = ScanKeys(*ds);
  // A contiguous prefix survived: rotation seals whole key ranges in
  // insertion order and the drain flushes all of them.
  EXPECT_LE(keys.size(), static_cast<size_t>(kRecords));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(i));
  }
  Value out;
  if (!keys.empty()) {
    ASSERT_TRUE((*ds)->Lookup(keys.back(), &out).ok());
    EXPECT_EQ(out.Get("name").string_value(),
              "user_" + std::to_string(keys.back()));
  }
}

TEST_P(ConcurrencyTest, StoppedSchedulerStillMergesAndBoundsComponents) {
  // Regression: a dataset on a stopped pool used to flush inline but
  // silently drop every merge, and back-pressure let writes through, so
  // the component stack grew without bound (28 components after 3,000
  // inserts, against the tiered policy's stall limit of 10). A stopped
  // pool is now the caller-runs form: its flushes AND merges run on the
  // writing thread.
  FlushMergeScheduler scheduler(1);
  scheduler.Stop();

  BufferCache cache(512 * kPage, kPage);
  DatasetOptions options = SmallMemtableOptions();
  options.dir = dir_;
  options.scheduler = &scheduler;
  const size_t stall_limit = StallComponentLimit(options);
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  constexpr int64_t kRecords = 3000;
  for (int64_t i = 0; i < kRecords; ++i) {
    Status st = (*ds)->Insert(MakeRecord(i));
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_LE((*ds)->component_count(), stall_limit) << "after insert " << i;
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  EXPECT_GT((*ds)->stats().merges, 0u);
  EXPECT_LE((*ds)->component_count(), stall_limit);
  EXPECT_EQ((*ds)->immutable_memtable_count(), 0u);
  std::vector<int64_t> keys = ScanKeys(ds->get());
  ASSERT_EQ(keys.size(), static_cast<size_t>(kRecords));
  for (int64_t i = 0; i < kRecords; ++i) EXPECT_EQ(keys[i], i);
}

TEST_P(ConcurrencyTest, ZeroWorkerStoreConcurrentWriters) {
  // background_threads = 0: every flush and merge runs on whichever
  // writer triggered it. Four writers share the dataset; none may
  // deadlock on work only it could run, and no key may be lost.
  auto store = Store::Open(DefaultStoreOptions(0));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions options = SmallMemtableOptions();
  options.max_immutable_memtables = 1;  // stall often: writers run the drain
  auto open = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  Dataset* ds = *open;

  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 300;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const int64_t base = static_cast<int64_t>(w) * kPerWriter;
      for (int64_t i = 0; i < kPerWriter; ++i) {
        Status st = ds->Insert(MakeRecord(base + i));
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(ds->Flush().ok());
  EXPECT_EQ(ds->immutable_memtable_count(), 0u);
  EXPECT_GE(ds->stats().flushes, 2u);
  std::vector<int64_t> keys = ScanKeys(ds);
  ASSERT_EQ(keys.size(), static_cast<size_t>(kWriters) * kPerWriter);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(i));
  }
  Status close = (*store)->Close();
  EXPECT_TRUE(close.ok()) << close.ToString();
}

TEST_P(ConcurrencyTest, StressWritersReadersWithBackgroundMerges) {
  auto store = Store::Open(DefaultStoreOptions(3));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions options = SmallMemtableOptions();
  options.max_components = 3;  // merge often
  auto open = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  Dataset* ds = *open;

  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 400;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Disjoint key ranges; writer 0 also revisits its range with
      // upserts so reconciliation (newest wins) is exercised under load.
      const int64_t base = static_cast<int64_t>(w) * kPerWriter;
      for (int64_t i = 0; i < kPerWriter; ++i) {
        Status st = ds->Insert(MakeRecord(base + i));
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      if (w == 0) {
        for (int64_t i = 0; i < kPerWriter; i += 3) {
          Status st = ds->Insert(MakeRecord(base + i));
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 7);
      size_t last_count = 0;
      while (writers_left.load() > 0) {
        // Full scans against a snapshot: keys strictly increasing, counts
        // monotone over time (nothing is ever deleted here).
        std::vector<int64_t> keys = ScanKeys(ds);
        ASSERT_GE(keys.size(), last_count);
        last_count = keys.size();
        // Random point lookups of keys that must exist once scanned.
        if (!keys.empty()) {
          const int64_t key =
              keys[static_cast<size_t>(rng.Uniform(keys.size()))];
          Value out;
          Status st = ds->Lookup(key, &out);
          ASSERT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
          ASSERT_EQ(out.Get("id").int_value(), key);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(ds->Flush().ok());
  Status st = ds->WaitForBackgroundWork();
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<int64_t> keys = ScanKeys(ds);
  ASSERT_EQ(keys.size(), static_cast<size_t>(kWriters) * kPerWriter);
  EXPECT_GE(ds->stats().merges, 1u);
  ASSERT_TRUE(ds->MergeAll().ok());
  EXPECT_EQ(ds->component_count(), 1u);
  EXPECT_EQ(ScanKeys(ds).size(), keys.size());
  Status close = (*store)->Close();
  EXPECT_TRUE(close.ok()) << close.ToString();
}

// Point lookups beside writes: three threads look keys up while one
// thread upserts and deletes them and a background worker flushes and
// merges. Every answer is checked against a model of the writes. Version
// v of key k is a delete or a deterministic document, so a lookup must
// return a version between the last one committed before it began and
// the last one started by the time it ended — its snapshot's — and
// exactly that version's document.
TEST_P(ConcurrencyTest, LookupsBesideWritesAndBackgroundMerges) {
  constexpr int64_t kKeys = 300;
  auto is_delete = [](int64_t key, int64_t version) {
    return version > 0 && (key * 7 + version * 13) % 5 == 0;
  };
  auto make_doc = [](int64_t key, int64_t version) {
    Value v = MakeRecord(key);
    v.Set("version", Value::Int(version));
    Value tags = Value::MakeArray();
    // Never empty: an empty array of an unknown item type is the open
    // data-loss bug of the columnar layouts (ROADMAP), not under test here.
    for (int64_t t = 0; t <= (key + version) % 4; ++t) {
      tags.Push(Value::String("t" + std::to_string(version + t)));
    }
    v.Set("tags", std::move(tags));
    if (version % 3 == 1) v.Set("extra", Value::String(std::string(40, 'x')));
    return v;
  };
  auto store = Store::Open(DefaultStoreOptions(1));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ds_or = (*store)->OpenDataset("docs", SmallMemtableOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  for (int64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(ds->Insert(make_doc(key, 0)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());

  // committed[k]: last version whose write returned; started[k]: last
  // version whose write began.
  std::vector<std::atomic<int64_t>> committed(kKeys);
  std::vector<std::atomic<int64_t>> started(kKeys);
  for (int64_t key = 0; key < kKeys; ++key) {
    committed[key].store(0);
    started[key].store(0);
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(91);
    for (int op = 0; op < 3000; ++op) {
      const auto key = static_cast<int64_t>(rng.Uniform(kKeys));
      const int64_t version = started[key].load() + 1;
      started[key].store(version);
      Status st = is_delete(key, version) ? ds->Delete(key)
                                          : ds->Insert(make_doc(key, version));
      ASSERT_TRUE(st.ok()) << st.ToString();
      committed[key].store(version);
    }
    done.store(true);
  });
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 100);
      while (!done.load()) {
        const auto key = static_cast<int64_t>(rng.Uniform(kKeys));
        const int64_t lo = committed[key].load();
        Value got;
        Status st = ds->Lookup(key, &got);
        const int64_t hi = started[key].load();
        if (st.ok()) {
          const int64_t version = got.Get("version").int_value();
          EXPECT_GE(version, lo) << "key " << key;
          EXPECT_LE(version, hi) << "key " << key;
          EXPECT_FALSE(is_delete(key, version)) << "key " << key;
          EXPECT_TRUE(ValueEquivalent(got, make_doc(key, version)))
              << "key " << key << ": " << ToJson(got);
          hits.fetch_add(1);
        } else {
          ASSERT_TRUE(st.IsNotFound()) << st.ToString();
          bool deleted = false;
          for (int64_t v = lo; v <= hi && !deleted; ++v) {
            deleted = is_delete(key, v);
          }
          EXPECT_TRUE(deleted) << "key " << key << " versions " << lo << ".."
                               << hi;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_GT(hits.load(), 0u);
  ASSERT_TRUE(ds->WaitForBackgroundWork().ok());
  EXPECT_GE(ds->stats().flushes, 2u);
  // Quiesced: every key reads back as its last write.
  for (int64_t key = 0; key < kKeys; ++key) {
    const int64_t version = committed[key].load();
    Value got;
    Status st = ds->Lookup(key, &got);
    if (is_delete(key, version)) {
      EXPECT_TRUE(st.IsNotFound()) << "key " << key;
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(ValueEquivalent(got, make_doc(key, version)))
          << "key " << key << ": " << ToJson(got);
    }
  }
  ASSERT_TRUE((*store)->Close().ok());
}

/// Holds the only worker of a one-thread scheduler from construction to
/// destruction: flush and merge tasks queued meanwhile run after it, in
/// one batch.
class HeldWorker {
 public:
  explicit HeldWorker(FlushMergeScheduler* scheduler) {
    auto running = std::make_shared<std::promise<void>>();
    std::future<void> started = running->get_future();
    std::shared_future<void> released = release_.get_future().share();
    scheduler->Schedule(nullptr, [running, released] {
      running->set_value();
      released.wait();
    });
    started.wait();
  }
  ~HeldWorker() { release_.set_value(); }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;

 private:
  std::promise<void> release_;
};

/// The state publications leave behind once no background work runs:
/// the manifest on disk lists the snapshot's component stack in order, no
/// WAL segment below the manifest's floor remains, the directory holds
/// exactly the listed component files (no snapshot is pinned here), and a
/// full scan equals the model.
void CheckPublishedState(Dataset* ds, const std::string& dir,
                         const std::map<int64_t, Value>& model) {
  auto manifest = ReadManifest(ManifestPath(dir, "docs"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::vector<uint64_t> listed;
  std::set<std::string> listed_files;
  for (const ManifestComponentEntry& entry : manifest->components) {
    listed.push_back(entry.id);
    listed_files.insert(entry.file);
  }
  {
    const Snapshot::Ref snapshot = ds->GetSnapshot();
    std::vector<uint64_t> stack;
    for (size_t i = 0; i < snapshot->component_count(); ++i) {
      stack.push_back(snapshot->component(i).meta().component_id);
    }
    EXPECT_EQ(stack, listed);
  }
  std::set<std::string> component_files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".cmp") component_files.insert(name);
    if (entry.path().extension() == ".wal") {
      const uint64_t seq = std::stoull(name.substr(name.find('_') + 1));
      EXPECT_GE(seq, manifest->wal_floor) << name;
    }
  }
  EXPECT_EQ(component_files, listed_files);

  std::map<int64_t, Value> scanned;
  auto cursor = ds->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  while (true) {
    auto more = (*cursor)->Next();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    Value record;
    ASSERT_TRUE((*cursor)->Record(&record).ok());
    scanned.emplace((*cursor)->key(), std::move(record));
  }
  ASSERT_EQ(scanned.size(), model.size());
  for (const auto& [key, expected] : model) {
    auto it = scanned.find(key);
    ASSERT_NE(it, scanned.end()) << "key " << key << " lost";
    EXPECT_TRUE(ValueEquivalent(it->second, expected))
        << "key " << key << ": " << ToJson(it->second);
  }
}

/// The POSIX filesystem, except that creating a file whose path contains
/// `gated` blocks until Release() and then fails. The wait is bounded, so
/// a test that fails before Release() can still close its store.
class GatedCreateFs final : public FileSystem {
 public:
  explicit GatedCreateFs(std::string gated)
      : gated_(std::move(gated)),
        reached_(reach_.get_future().share()),
        released_(release_.get_future().share()) {}

  /// Returns once a Create of the gated path is waiting.
  void WaitForGatedCreate() { reached_.wait(); }
  void Release() { release_.set_value(); }

  Result<std::unique_ptr<FsFile>> Create(const std::string& path) override {
    if (path.find(gated_) == std::string::npos) return base_->Create(path);
    std::call_once(reach_once_, [this] { reach_.set_value(); });
    released_.wait_for(std::chrono::seconds(30));
    return Status::IOError("injected: create " + path);
  }
  Result<std::unique_ptr<FsFile>> Open(const std::string& path,
                                       bool writable) override {
    return base_->Open(path, writable);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

 private:
  FileSystem* const base_ = DefaultFileSystem();
  const std::string gated_;
  std::once_flag reach_once_;
  std::promise<void> reach_;
  std::promise<void> release_;
  std::shared_future<void> reached_;
  std::shared_future<void> released_;
};

// Two flush builds in flight: the newer one renames its component into
// place and waits to publish after the older one, which then fails. The
// newer build is abandoned, and since no manifest will ever list its
// file, it deletes it. Both sealed memtables stay readable, and the next
// Flush publishes them under new ids.
TEST_P(ConcurrencyTest, AbandonedFlushBuildDeletesItsFile) {
  GatedCreateFs fs("/docs_1.cmp.tmp");
  StoreOptions store_options = DefaultStoreOptions(2);
  store_options.fs = &fs;
  store_options.io_retry.max_retries = 0;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  DatasetOptions options = SmallMemtableOptions();
  options.auto_merge = false;
  auto ds_or = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  int64_t next = 0;
  auto seal_up_to = [&](size_t sealed) {
    while (ds->immutable_memtable_count() < sealed) {
      ASSERT_TRUE(ds->Insert(MakeRecord(next++)).ok());
    }
  };
  ASSERT_NO_FATAL_FAILURE(seal_up_to(1));
  fs.WaitForGatedCreate();  // component 1's build holds one worker
  ASSERT_NO_FATAL_FAILURE(seal_up_to(2));
  const std::string newer = dir_ + "/docs/docs_2.cmp";
  for (int i = 0; i < 10000 && !std::filesystem::exists(newer); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(std::filesystem::exists(newer)) << "second build never ended";
  fs.Release();
  EXPECT_FALSE(ds->WaitForBackgroundWork().ok());
  EXPECT_FALSE(std::filesystem::exists(newer));
  EXPECT_EQ(ds->immutable_memtable_count(), 2u);

  ASSERT_TRUE(ds->Flush().ok());
  std::map<int64_t, Value> model;
  for (int64_t key = 0; key < next; ++key) model[key] = MakeRecord(key);
  CheckPublishedState(ds, dir_ + "/docs", model);
}

// Seeded publication order without a scheduler mode: a gate task holds
// the store's only worker, so the flush and merge tasks that writes and
// flushes queue wait while the test thread flushes, merges, backs up,
// repairs a quarantined component and reopens in a seeded order; the
// held tasks run at seeded release points. Records gain a field mid-run,
// so flushes publish new schemas. Every step is checked by
// CheckPublishedState. Writes stop short of back-pressure, which would
// wait on the held worker.
TEST_P(ConcurrencyTest, SeededStepsKeepManifestStackAndFilesInStep) {
  constexpr int kSteps = 80;
  constexpr int64_t kKeys = 400;
  const std::string backup_dir = dir_ + "_backup";
  int repairs = 0;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(backup_dir);
    Rng rng(seed);
    FaultInjectionFs fs;
    StoreOptions store_options = DefaultStoreOptions(1);
    store_options.wal.enabled = true;
    store_options.fs = &fs;
    std::unique_ptr<Store> store;
    Dataset* ds = nullptr;
    std::optional<HeldWorker> held;  // released before the store closes
    auto open = [&] {
      auto opened = Store::Open(store_options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      store = std::move(*opened);
      auto ds_or = store->OpenDataset("docs", SmallMemtableOptions());
      ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
      ds = *ds_or;
      held.emplace(store->scheduler());
    };
    auto release = [&] {
      held.reset();
      ASSERT_TRUE(ds->WaitForBackgroundWork().ok());
    };
    ASSERT_NO_FATAL_FAILURE(open());
    const size_t component_stall = StallComponentLimit(ds->options());

    std::map<int64_t, Value> model;
    bool backed_up = false;
    const int late_step =
        kSteps / 3 + static_cast<int>(rng.Uniform(kSteps / 3));
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint64_t pick = rng.Uniform(100);
      std::string what;
      if (pick < 45) {
        what = "writes";
        const uint64_t writes = 1 + rng.Uniform(200);
        for (uint64_t w = 0; w < writes; ++w) {
          if (ds->immutable_memtable_count() + 1 >=
                  ds->options().max_immutable_memtables ||
              ds->component_count() + 1 >= component_stall) {
            break;  // a rotation would stall on the held worker
          }
          const auto key = static_cast<int64_t>(rng.Uniform(kKeys));
          if (rng.Uniform(6) == 0) {
            ASSERT_TRUE(ds->Delete(key).ok());
            model.erase(key);
            continue;
          }
          Value record = Value::MakeObject();
          record.Set("id", Value::Int(key));
          record.Set("name", Value::String("s" + std::to_string(step) + "_" +
                                           std::to_string(w)));
          record.Set("n", Value::Int(step * 1000 + static_cast<int64_t>(w)));
          if (step >= late_step && rng.Uniform(2) == 0) {
            record.Set("late", Value::String("l" + std::to_string(key)));
          }
          ASSERT_TRUE(ds->Insert(record).ok());
          model[key] = std::move(record);
        }
      } else if (pick < 57) {
        what = "Flush";
        ASSERT_TRUE(ds->Flush().ok());
      } else if (pick < 65) {
        what = "MaybeMerge";
        ASSERT_TRUE(ds->MaybeMerge().ok());
      } else if (pick < 70) {
        what = "MergeAll";
        ASSERT_TRUE(ds->MergeAll().ok());
      } else if (pick < 82) {
        what = "release";
        ASSERT_NO_FATAL_FAILURE(release());
        held.emplace(store->scheduler());
      } else if (pick < 88) {
        what = "CreateBackup";
        ASSERT_TRUE(store->CreateBackup(backup_dir).ok());
        backed_up = true;
      } else if (pick < 94) {
        what = "quarantine and repair";
        if (!backed_up) continue;
        auto catalog = ReadBackupManifest(backup_dir);
        ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
        std::set<uint64_t> in_backup;
        for (const BackupFileEntry& f : catalog->files) {
          if (f.kind == BackupFileKind::kComponent) in_backup.insert(f.id);
        }
        std::vector<uint64_t> candidates;
        {
          const Snapshot::Ref snapshot = ds->GetSnapshot();
          for (size_t i = 0; i < snapshot->component_count(); ++i) {
            const uint64_t id = snapshot->component(i).meta().component_id;
            if (in_backup.count(id) != 0) candidates.push_back(id);
          }
        }
        if (candidates.empty()) continue;
        const uint64_t victim = candidates[rng.Uniform(candidates.size())];
        FaultRule rule;
        rule.path_substring = "/docs_" + std::to_string(victim) + ".cmp";
        rule.op = FaultOp::kRead;
        rule.flip_bit = true;
        fs.AddRule(rule);
        auto scrubbed = store->ScrubNow();
        fs.ClearRules();
        ASSERT_TRUE(scrubbed.ok()) << scrubbed.status().ToString();
        EXPECT_GE(scrubbed->damaged, 1u);
        ASSERT_EQ(ds->QuarantineList().size(), 1u);
        ASSERT_TRUE(ds->RepairQuarantined(backup_dir).ok());
        EXPECT_TRUE(ds->QuarantineList().empty());
        ++repairs;
      } else {
        what = "reopen";
        ASSERT_NO_FATAL_FAILURE(release());
        store.reset();
        ASSERT_NO_FATAL_FAILURE(open());
      }
      SCOPED_TRACE("after " + what);
      ASSERT_NO_FATAL_FAILURE(
          CheckPublishedState(ds, dir_ + "/docs", model));
    }
    held.reset();
    ASSERT_TRUE(store->Close().ok());
  }
  EXPECT_GT(repairs, 0) << "no seed reached a repair";
  std::filesystem::remove_all(backup_dir);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, ConcurrencyTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// --- Option validation for the new knobs -------------------------------

TEST(ConcurrencyOptionsTest, ValidateDatasetOptionsNamesImmutableCap) {
  DatasetOptions options;
  options.dir = "/tmp/x";
  options.max_immutable_memtables = 0;
  Status st = ValidateDatasetOptions(options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("max_immutable_memtables"), std::string::npos)
      << st.ToString();
}

TEST(ConcurrencyOptionsTest, ValidateStoreOptionsNamesBackgroundThreads) {
  StoreOptions options;
  options.dir = "/tmp/x";
  options.background_threads = -1;
  Status st = ValidateStoreOptions(options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("background_threads"), std::string::npos)
      << st.ToString();
  options.background_threads = 1000;
  EXPECT_FALSE(ValidateStoreOptions(options).ok());
}

TEST(StoreConcurrencyTest, ConcurrentOpenGetListAndClose) {
  // Regression: the store used to have no lock over its dataset map and
  // discovery list, so concurrent OpenDataset/GetDataset/ListDatasets
  // raced on them (and a racing Close could miss a dataset mid-insert).
  // Same-name opens must also converge on a single instance.
  const std::string dir = testing::TempDir() + "/store_concurrent_open";
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.page_size = kPage;
  options.cache_bytes = 512 * kPage;
  options.background_threads = 2;
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  constexpr int kThreads = 6;
  constexpr int kNames = 3;
  std::array<std::atomic<Dataset*>, kNames> seen{};
  std::atomic<bool> mismatch{false};
  std::atomic<bool> stop_reading{false};
  std::thread reader([&] {
    // Hammer the read-side map accessors while opens mutate the map.
    while (!stop_reading.load()) {
      (void)(*store)->GetDataset("d0");
      (void)(*store)->ListDatasets();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int name_idx = t % kNames;
      DatasetOptions dataset_options;
      dataset_options.layout = LayoutKind::kVb;
      auto dataset = (*store)->OpenDataset("d" + std::to_string(name_idx),
                                           dataset_options);
      if (!dataset.ok()) {
        mismatch.store(true);
        return;
      }
      Dataset* expected = nullptr;
      if (!seen[name_idx].compare_exchange_strong(expected, *dataset) &&
          expected != *dataset) {
        mismatch.store(true);
      }
      Value v = Value::MakeObject();
      v.Set("id", Value::Int(t));
      if (!(*dataset)->Insert(v).ok()) mismatch.store(true);
    });
  }
  for (std::thread& t : threads) t.join();
  stop_reading.store(true);
  reader.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ((*store)->ListDatasets(),
            (std::vector<std::string>{"d0", "d1", "d2"}));
  EXPECT_TRUE((*store)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(SchedulerTest, ConcurrentStopJoinsWorkersExactlyOnce) {
  // Regression: two racing Stop() calls used to iterate the same thread
  // vector and join each worker twice (std::thread::join on a joined
  // thread is UB). Exactly one caller now adopts the workers under the
  // scheduler mutex; the others return once the queue is drained.
  FlushMergeScheduler scheduler(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    scheduler.Schedule(nullptr, [&] { ran.fetch_add(1); });
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { scheduler.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(scheduler.tasks_run(), 8u);
}

TEST(SchedulerTest, RunsTasksAndStopDrains) {
  FlushMergeScheduler scheduler(2);
  std::atomic<int> ran{0};
  int owner = 0;
  for (int i = 0; i < 16; ++i) {
    scheduler.Schedule(&owner, [&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(scheduler.RunCallerTasks(&owner), 0u);  // workers own the queue
  scheduler.Stop();  // drains the queue before joining
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(scheduler.tasks_run(), 16u);
  // Stopped: still accepted, and run by the owner on its own thread.
  scheduler.Schedule(&owner, [&] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(scheduler.RunCallerTasks(&owner), 1u);
  EXPECT_EQ(ran.load(), 17);
  EXPECT_FALSE(scheduler.ScheduleLow([&] { ran.fetch_add(1); }));
}

TEST(SchedulerTest, ZeroWorkersRunOnlyTheCallersOwnTasksInOrder) {
  FlushMergeScheduler scheduler(0);
  EXPECT_EQ(scheduler.thread_count(), 0);
  int a = 0;
  int b = 0;
  std::vector<std::string> log;
  scheduler.Schedule(&a, [&] {
    log.push_back("a1");
    // A task may schedule follow-up work; the same call runs it.
    scheduler.Schedule(&a, [&] { log.push_back("a3"); });
  });
  scheduler.Schedule(&b, [&] { log.push_back("b1"); });
  scheduler.Schedule(&a, [&] { log.push_back("a2"); });
  EXPECT_TRUE(log.empty());  // nothing runs until an owner asks
  EXPECT_EQ(scheduler.RunCallerTasks(&a), 3u);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2", "a3"}));
  EXPECT_EQ(scheduler.RunCallerTasks(&a), 0u);
  EXPECT_EQ(scheduler.RunCallerTasks(&b), 1u);
  EXPECT_EQ(log.back(), "b1");
  EXPECT_EQ(scheduler.tasks_run(), 4u);
  // The low lane needs a worker: refused rather than stranded.
  EXPECT_FALSE(scheduler.ScheduleLow([] {}));
}

}  // namespace
}  // namespace lsmcol

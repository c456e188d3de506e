// Randomized fault-tolerance torture harness: each seed drives a dataset
// through ingest/delete/flush/merge under a seeded schedule of injected
// transient errors, ENOSPC quotas, and a mid-run simulated crash, then
// verifies the invariant the engine promises: every acknowledged write
// survives (with its exact value) or the failure was reported — never a
// silent loss, never a silently wrong result. Once quiesced, the live
// directory must hold exactly the components the manifest lists.
//
// Seeds are controlled by environment variables so CI shards and local
// repro runs (tools/run_torture.sh) use the same binary:
//   LSMCOL_TORTURE_SEED       run exactly this one seed
//   LSMCOL_TORTURE_SEED_BASE  first seed of a range (default 1)
//   LSMCOL_TORTURE_SEEDS      how many seeds to run (default 10)

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/storage/fault_injection_fs.h"
#include "src/storage/manifest.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 4096;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

Value MakeRecord(int64_t key, const std::string& name) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(key));
  v.Set("name", Value::String(name));
  v.Set("pad", Value::String(std::string(64, 'p')));
  return v;
}

/// The reference model a run maintains alongside the dataset.
struct Model {
  /// key -> "name" of the last acknowledged insert.
  std::map<int64_t, std::string> confirmed;
  /// Keys whose last acknowledged op was a delete.
  std::set<int64_t> deleted;
  /// Keys whose last op errored: the engine made no promise, the key may
  /// hold the old value, the attempted one, or nothing.
  std::set<int64_t> unknown;

  void Acked(int64_t key, const std::string& name) {
    confirmed[key] = name;
    deleted.erase(key);
    unknown.erase(key);
  }
  void AckedDelete(int64_t key) {
    confirmed.erase(key);
    deleted.insert(key);
    unknown.erase(key);
  }
  void Errored(int64_t key) {
    confirmed.erase(key);
    deleted.erase(key);
    unknown.insert(key);
  }
};

/// Full-scan the dataset (must succeed: no checksum error may survive a
/// clean fault schedule) and check it against the model.
void VerifyModel(Dataset* ds, const Model& model, const std::string& what) {
  std::map<int64_t, std::string> scanned;
  auto cursor = ds->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << what << ": " << cursor.status().ToString();
  while (true) {
    auto ok = (*cursor)->Next();
    ASSERT_TRUE(ok.ok()) << what << ": " << ok.status().ToString();
    if (!*ok) break;
    Value v;
    Status st = (*cursor)->Record(&v);
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    scanned[(*cursor)->key()] = v.Get("name").string_value();
  }
  for (const auto& [key, name] : model.confirmed) {
    auto it = scanned.find(key);
    ASSERT_NE(it, scanned.end())
        << what << ": acknowledged key " << key << " lost";
    EXPECT_EQ(it->second, name) << what << ": key " << key << " wrong value";
  }
  for (int64_t key : model.deleted) {
    EXPECT_EQ(scanned.count(key), 0u)
        << what << ": deleted key " << key << " resurrected";
  }
  // Any extra key must be one the model gave up on — otherwise the
  // engine invented data.
  for (const auto& [key, name] : scanned) {
    if (model.confirmed.count(key) == 0) {
      EXPECT_TRUE(model.unknown.count(key) > 0)
          << what << ": unexpected key " << key;
    }
  }
}

void RunSeed(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const std::string dir =
      testing::TempDir() + "/torture_" + std::to_string(seed);
  const std::string crash_dir = dir + "_crash";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crash_dir);
  std::mt19937_64 rng(seed);

  FaultInjectionFs fs;
  fs.SetTrackUnsynced(true);

  StoreOptions store_options;
  store_options.dir = dir;
  store_options.page_size = kPage;
  store_options.cache_bytes = 512 * kPage;
  store_options.fs = &fs;
  store_options.wal.enabled = true;  // acked => fsync-durable
  store_options.io_retry.max_retries = 3;
  store_options.io_retry.initial_backoff_micros = 50;
  store_options.io_retry.max_backoff_micros = 500;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  static const LayoutKind kLayouts[] = {LayoutKind::kOpen, LayoutKind::kVb,
                                        LayoutKind::kApax, LayoutKind::kAmax};
  DatasetOptions options;
  options.layout = kLayouts[seed % 4];
  options.memtable_bytes = 2048;  // tiny: many flushes, rotations, merges
  auto ds_or = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;

  Model model;
  const int kOps = 160;
  int quota_ops_left = 0;
  for (int op = 0; op < kOps; ++op) {
    // ---- fault scheduling --------------------------------------------
    if (op % 13 == 5) {
      FaultRule rule;
      switch (rng() % 4) {
        case 0:
          rule.path_substring = ".cmp.tmp";
          rule.op = FaultOp::kWrite;
          break;
        case 1:
          rule.path_substring = ".wal";
          rule.op = FaultOp::kWrite;
          break;
        case 2:
          rule.path_substring = ".MANIFEST";
          rule.op = FaultOp::kRename;
          break;
        case 3:
          rule.path_substring = ".wal";
          rule.op = FaultOp::kCreate;
          break;
      }
      rule.fail_after = static_cast<int>(rng() % 2);
      rule.max_failures = 1 + static_cast<int>(rng() % 2);
      fs.AddRule(rule);
    }
    if (quota_ops_left > 0 && --quota_ops_left == 0) fs.ClearByteQuota();
    if (op % 37 == 11) {
      fs.SetByteQuota(rng() % 2000);
      quota_ops_left = 5;
    }

    // ---- one operation -----------------------------------------------
    const int64_t key = static_cast<int64_t>(rng() % 300);
    Status st;
    if (rng() % 10 == 0) {
      st = ds->Delete(key);
      if (st.ok()) {
        model.AckedDelete(key);
      } else {
        model.Errored(key);
      }
    } else {
      const std::string name =
          "s" + std::to_string(seed) + "_o" + std::to_string(op);
      st = ds->Insert(MakeRecord(key, name));
      if (st.ok()) {
        model.Acked(key, name);
      } else {
        model.Errored(key);
      }
    }
    if (!st.ok() && rng() % 2 == 0) {
      (void)ds->Flush();  // opportunistic recovery (rotates a wedged WAL)
    }

    // ---- mid-run simulated crash -------------------------------------
    if (op == kOps / 2) {
      // Materialize the post-crash disk image beside the live store and
      // verify every write acknowledged *so far* survives in it.
      ASSERT_TRUE(fs.CopySyncedSnapshot(dir, crash_dir).ok());
      ASSERT_TRUE(fs.CopySyncedSnapshot(dir + "/docs", crash_dir + "/docs")
                      .ok());
      StoreOptions crash_options = store_options;
      crash_options.dir = crash_dir;
      crash_options.fs = nullptr;  // plain filesystem, fresh cache
      auto crash_store = Store::Open(crash_options);
      ASSERT_TRUE(crash_store.ok()) << crash_store.status().ToString();
      auto crash_ds = (*crash_store)->OpenDataset("docs", options);
      ASSERT_TRUE(crash_ds.ok()) << crash_ds.status().ToString();
      VerifyModel(*crash_ds, model, "crash image @op " + std::to_string(op));
      std::filesystem::remove_all(crash_dir);
    }
  }

  // ---- quiesce and verify the live dataset ---------------------------
  fs.ClearRules();
  fs.ClearByteQuota();
  Status st;
  for (int attempt = 0; attempt < 3; ++attempt) {
    st = ds->Flush();
    if (st.ok()) break;
  }
  ASSERT_TRUE(st.ok()) << "flush after clearing faults: " << st.ToString();
  VerifyModel(ds, model, "live dataset");
  DatasetStats stats = ds->stats();
  EXPECT_EQ(stats.checksum_failures, 0u);  // faults were transient only
  EXPECT_EQ(stats.quarantined_components, 0u);
  // Every publication retired what it replaced: the live directory holds
  // exactly the components the manifest lists.
  auto manifest = ReadManifest(ManifestPath(dir + "/docs", "docs"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::set<std::string> listed, on_disk;
  for (const ManifestComponentEntry& entry : manifest->components) {
    listed.insert(entry.file);
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/docs")) {
    if (entry.path().extension() == ".cmp") {
      on_disk.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(on_disk, listed);
  store->reset();

  // ---- clean reopen over the real filesystem -------------------------
  StoreOptions plain = store_options;
  plain.fs = nullptr;
  auto reopened = Store::Open(plain);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto ds2 = (*reopened)->OpenDataset("docs", options);
  ASSERT_TRUE(ds2.ok()) << ds2.status().ToString();
  VerifyModel(*ds2, model, "reopened dataset");
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/docs")) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "orphan temp file " << entry.path();
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crash_dir);
}

TEST(TortureTest, SeededFaultSchedules) {
  const uint64_t single = EnvU64("LSMCOL_TORTURE_SEED", 0);
  if (single != 0) {
    RunSeed(single);
    return;
  }
  const uint64_t base = EnvU64("LSMCOL_TORTURE_SEED_BASE", 1);
  const uint64_t count = EnvU64("LSMCOL_TORTURE_SEEDS", 10);
  for (uint64_t seed = base; seed < base + count; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lsmcol

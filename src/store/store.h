// Store: the engine's top-level facade — one directory holding any number
// of named, durable datasets sharing a single BufferCache (the paper's
// "node" setup: one cache, many collections).
//
// Layout on disk:
//
//   <dir>/
//     <name>/                    one subdirectory per dataset
//       <name>.MANIFEST          recovery metadata (see storage/manifest.h)
//       <name>_<id>.cmp          immutable LSM components
//
// Store::Open creates the directory if missing, discovers every dataset
// left by earlier runs, and sweeps their crash leftovers (`*.tmp` files
// and components no manifest references). Datasets are then materialized
// lazily: OpenDataset(name, options) creates a new dataset or recovers the
// existing one — the durable identity (layout, pk_field, page_size) comes
// from the manifest and must not be contradicted by `options`; the runtime
// knobs (memtable budget, merge policy, compression of future components)
// come from `options` on every open.

#ifndef LSMCOL_STORE_STORE_H_
#define LSMCOL_STORE_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/lsm/dataset.h"
#include "src/lsm/scrubber.h"
#include "src/store/backup.h"

namespace lsmcol {

struct StoreOptions {
  /// Root directory of the store (created if missing).
  std::string dir;
  /// Page size shared by the cache and every dataset.
  size_t page_size = kDefaultPageSize;
  /// Budget of the BufferCache shared by all datasets, charged in
  /// decoded bytes: the cache holds leaves and AMAX megapages
  /// decompressed, so the same budget covers fewer leaves than their
  /// on-disk size suggests.
  size_t cache_bytes = 256u << 20;
  /// Worker threads of the FlushMergeScheduler shared by every dataset
  /// of this store. Every flush and merge is a task on it. 0 (the
  /// default) means the caller runs them: the writing thread runs the
  /// flush its write triggered, and the merges that flush triggers,
  /// before the write returns — deterministic for tests. With N >= 1 the
  /// workers run them off the write path, and writers stall only on
  /// back-pressure (DatasetOptions::max_immutable_memtables). Must be in
  /// [0, 256].
  int background_threads = 0;
  /// Write-ahead logging for every dataset of this store (copied into
  /// DatasetOptions::wal by OpenDataset — per-write durability is a
  /// store-level deployment decision, like the page size). Off by
  /// default; see storage/wal.h.
  WalOptions wal;
  /// Filesystem all store and dataset I/O goes through (copied into
  /// DatasetOptions::fs by OpenDataset). nullptr = the process-wide POSIX
  /// filesystem; tests substitute a FaultInjectionFs. Must outlive the
  /// store. Not validated (a runtime wiring knob).
  FileSystem* fs = nullptr;
  /// Transient-I/O retry policy for every dataset of this store (copied
  /// into DatasetOptions::io_retry by OpenDataset); see that field.
  IoRetryOptions io_retry;
  /// Background integrity scrubbing (see lsm/scrubber.h). Requires
  /// background_threads >= 1 when enabled — slices run on the shared
  /// scheduler's low-priority lane.
  ScrubOptions scrub;
};

/// One dataset's fault-tolerance health, as reported by Store::Health().
struct DatasetHealth {
  std::string name;
  /// A background flush/merge/manifest failure is pending (writes are
  /// being rejected until Flush()/WaitForBackgroundWork retries it).
  bool has_background_error = false;
  Status background_error;
  /// Sticky: the first background failure ever recorded, kept even after
  /// the pending error above was retried away — "did anything ever go
  /// wrong" for monitoring.
  Status last_background_error;
  /// The WAL failed closed (its sticky io_status; see storage/wal.h):
  /// every write is being rejected until the segment rotates.
  bool wal_wedged = false;
  Status wal_status;
  /// Every quarantined component: (component id, quarantine reason).
  std::vector<std::pair<uint64_t, std::string>> quarantined;
  /// Components quarantined now. A repaired component leaves this count;
  /// stats.quarantined_components counts every quarantine since open.
  uint64_t quarantined_components = 0;
  /// The dataset's counters: damaged reads, scrub progress (see
  /// lsm/scrubber.h), transient I/O retries, and what the compaction
  /// policy pays in extra writing and disk.
  DatasetStats stats;
};

/// Checks every field and returns InvalidArgument naming the offending
/// field.
Status ValidateStoreOptions(const StoreOptions& options);

class Store {
 public:
  /// Open (or initialize) the store at `options.dir`: discovers existing
  /// datasets and removes their stale temp/orphan files.
  static Result<std::unique_ptr<Store>> Open(const StoreOptions& options);

  /// Destroying the store calls Close(), then closes every dataset
  /// (unflushed active memtables are lost — Flush() first; everything
  /// flushed, including sealed memtables the background drain completes,
  /// is durable via manifests). Snapshots must not outlive the store: the
  /// shared BufferCache dies with it, and components pinned only by
  /// snapshots touch the cache when they are finally released.
  ~Store();

  /// Clean shutdown of background work, in dependency order: (1) wait for
  /// every open dataset's queued/running flushes and merges, (2) stop the
  /// shared scheduler (drains its queue, joins the workers). After Close,
  /// writers still work; their flushes and merges run on the writing
  /// thread (the scheduler's caller-runs form). Idempotent; returns the
  /// first background error any dataset reports.
  Status Close() LSMCOL_EXCLUDES(mu_);

  /// Create-or-recover the named dataset. `options.dir`, `options.name`,
  /// `options.page_size`, `options.scheduler`, `options.wal`,
  /// `options.fs`, and `options.io_retry` are owned by the store and
  /// overwritten; the rest are the caller's runtime knobs (compaction
  /// policy included) and, for a brand-new dataset, its durable
  /// identity: layout and pk_field. Returns the same pointer
  /// on repeated calls — the first open's options win. The pointer stays
  /// owned by the store and valid until the store dies.
  Result<Dataset*> OpenDataset(const std::string& name,
                               DatasetOptions options = DatasetOptions())
      LSMCOL_EXCLUDES(mu_);

  /// The dataset if currently open, else nullptr (no disk access).
  Dataset* GetDataset(const std::string& name) const LSMCOL_EXCLUDES(mu_);

  /// All dataset names: open ones plus those discovered on disk at
  /// Store::Open time, sorted, deduplicated.
  std::vector<std::string> ListDatasets() const LSMCOL_EXCLUDES(mu_);

  /// Fault-tolerance health of every open dataset (see DatasetHealth),
  /// sorted by name. Cheap: counters and a status peek, no I/O; safe to
  /// poll from a monitoring thread.
  std::vector<DatasetHealth> Health() const LSMCOL_EXCLUDES(mu_);

  /// Consistent hot backup of every open dataset into `backup_dir`
  /// (created if missing). Flushes each dataset, then pins one snapshot
  /// per dataset — flushes, merges, and writers keep running; the
  /// backup holds exactly the pinned components, which include every
  /// write acknowledged before the call, and the manifest that lists
  /// them. Incremental: a component already present in the directory's
  /// catalog with a matching checksum is reused, not re-copied. The
  /// catalog (BACKUP.MANIFEST) is written atomically last, so an
  /// interrupted backup leaves the previous one intact. Returns a
  /// flush's error, and refuses (without writing) when any component is
  /// quarantined — back up before damage, repair after. One backup at a
  /// time per store; see store/backup.h.
  Status CreateBackup(const std::string& backup_dir)
      LSMCOL_EXCLUDES(mu_, backup_mu_);

  /// Restore a backup into `target_dir`, which must not already hold a
  /// store (refuses rather than merging or overwriting). The restored
  /// directory is a normal store root: Store::Open + OpenDataset recover
  /// it from its components, with no log to replay. Forwards to
  /// RestoreStoreFromBackup (store/backup.h).
  static Status RestoreFromBackup(const std::string& backup_dir,
                                  const std::string& target_dir,
                                  FileSystem* fs = nullptr);

  /// One full synchronous, unthrottled scrub pass over every open
  /// dataset (the background scrubber's engine, run to completion
  /// inline). Damage quarantines components exactly like the background
  /// path. Returns aggregate tallies.
  Result<ScrubPassResult> ScrubNow() LSMCOL_EXCLUDES(mu_);

  BufferCache* cache() { return &cache_; }
  /// The shared flush/merge scheduler (zero workers when
  /// background_threads == 0). Never null.
  FlushMergeScheduler* scheduler() { return scheduler_.get(); }
  /// The background scrubber; nullptr unless StoreOptions::scrub.enabled.
  Scrubber* scrubber() { return scrubber_.get(); }
  const StoreOptions& options() const { return options_; }

 private:
  explicit Store(const StoreOptions& options);

  std::string DatasetDir(const std::string& name) const;

  StoreOptions options_;
  BufferCache cache_;  // declared before datasets: destroyed after them
  /// Declared before the datasets so it outlives them: each Dataset's
  /// destructor runs or waits for its own scheduled tasks, which live in
  /// this queue. (Destruction order: datasets first, then the scheduler.)
  std::unique_ptr<FlushMergeScheduler> scheduler_;

  /// Guards the dataset map and discovery list: OpenDataset, GetDataset,
  /// ListDatasets, and Close may be called from any thread. First in the
  /// global rank order — held across Dataset::Open/WaitForBackgroundWork,
  /// which take the per-dataset mutexes underneath.
  mutable Mutex mu_{MutexRank::kStore};
  std::map<std::string, std::unique_ptr<Dataset>> open_
      LSMCOL_GUARDED_BY(mu_);
  /// On-disk datasets at Open time.
  std::vector<std::string> discovered_ LSMCOL_GUARDED_BY(mu_);

  /// Serializes CreateBackup calls (one backup at a time per store) and
  /// guards nothing else — the copy phase deliberately runs without mu_
  /// so writers and background work proceed. Acquired after mu_ is
  /// *released* (rank kBackup > kStore, but the two are never nested).
  mutable Mutex backup_mu_{MutexRank::kBackup};

  /// Declared after the datasets: destroyed first, and Close() stops it
  /// before draining datasets, so no scrub slice touches a dying dataset.
  std::unique_ptr<Scrubber> scrubber_;
};

}  // namespace lsmcol

#endif  // LSMCOL_STORE_STORE_H_

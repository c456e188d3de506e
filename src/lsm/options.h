// Tuning knobs for a dataset's primary LSM index. Defaults mirror the
// paper's evaluation setup (§6): 128 KiB pages, tiering merge policy with
// size ratio 1.2, at most 5 components, page-level compression on, AMAX
// mega leaves capped at 15 000 records.

#ifndef LSMCOL_LSM_OPTIONS_H_
#define LSMCOL_LSM_OPTIONS_H_

#include <cstddef>
#include <string>

#include "src/layouts/amax.h"
#include "src/layouts/row_codec.h"
#include "src/storage/file.h"
#include "src/storage/filesystem.h"
#include "src/storage/wal.h"

namespace lsmcol {

class FlushMergeScheduler;

/// Smallest page size ValidateDatasetOptions accepts: below this the AMAX
/// Page-0 budget arithmetic has no headroom.
inline constexpr size_t kMinPageSize = 4096;

/// Which compaction (merge-selection) policy a dataset runs — the LSM
/// design-space axis mapped by the LSM survey (arXiv:1812.07527) and "How
/// to Grow an LSM-tree" (arXiv:2504.17178). Every plan merges the newest
/// `k` components; the policy picks `k`, trading write amplification
/// against the number of components reads must reconcile:
///
///   kTiered        Size-tiered (the paper's §6.3 setup and the default):
///                  merge the youngest run whose accumulated size reaches
///                  `size_ratio` times the next-older component, else the
///                  two newest once `max_components` is exceeded.
///   kLazyLeveling  Dostoevsky's hybrid: the youngest part is tiered
///                  (same `size_ratio`/`max_components` knobs) while the
///                  oldest, largest component is kept as a single run —
///                  absorbed only when the younger components together
///                  reach a quarter of its size. Lower write-amp and
///                  space-amp than tiered at depth (BENCH_compaction.json).
enum class CompactionStrategy { kTiered, kLazyLeveling };

/// Printable policy name ("tiered", "lazy-leveling").
const char* CompactionStrategyName(CompactionStrategy strategy);

struct DatasetOptions {
  /// Physical record layout of the primary index.
  LayoutKind layout = LayoutKind::kAmax;

  /// Directory for component files and the MANIFEST (created if missing).
  std::string dir;
  /// Dataset name (component file prefix; no '/').
  std::string name = "dataset";
  /// Top-level int64 primary-key field.
  std::string pk_field = "id";

  size_t page_size = kDefaultPageSize;
  /// In-memory component budget; a flush triggers when exceeded.
  size_t memtable_bytes = 32u << 20;
  /// LZ page-level compression (the Snappy stand-in, §6).
  bool compress = true;

  // Tiering merge policy (§6.3).
  double size_ratio = 1.2;
  int max_components = 5;
  /// Which compaction policy picks merges (and the writer-stall bound).
  /// A runtime knob, not part of the durable identity: a dataset may be
  /// reopened under either policy.
  CompactionStrategy compaction = CompactionStrategy::kTiered;
  /// Merge automatically after flushes according to the policy. Each
  /// auto-merge is a scheduler task, like the flush that triggered it
  /// (see `scheduler`).
  bool auto_merge = true;

  // --- Concurrent ingestion (background flush/merge) ---

  /// Task queue running this dataset's flushes and merges (see
  /// src/lsm/scheduler.h). A full memtable is rotated onto the immutable
  /// list and flushed by a task; with worker threads that happens in the
  /// background while writers continue into a fresh memtable. nullptr
  /// (the default) gives the dataset its own zero-worker scheduler: the
  /// caller-runs form, where the writing thread runs the flush and its
  /// merges before Insert/Delete returns (deterministic). Either way the
  /// dataset is fully thread-safe (any number of concurrent writers and
  /// readers). Not validated (a runtime wiring knob, not configuration);
  /// must outlive the dataset. Store::OpenDataset sets it to the store's
  /// scheduler (StoreOptions::background_threads workers).
  FlushMergeScheduler* scheduler = nullptr;

  /// Back-pressure bound: writers stall once this many sealed (rotated,
  /// not-yet-flushed) memtables are queued, resuming as the flush tasks
  /// drain them (in the caller-runs form a stalled writer runs them).
  /// Higher values absorb longer ingest bursts at the cost of memory
  /// (each immutable holds up to `memtable_bytes`). Must be >= 1.
  size_t max_immutable_memtables = 4;

  /// AMAX mega-leaf shaping (§4.3, §4.5.2). page_size/compress are copied
  /// from the fields above at use.
  size_t amax_max_records = 15000;
  double amax_empty_page_tolerance = 0.125;

  /// APAX: a leaf is emitted when the estimated encoded size of pending
  /// chunks reaches this fraction of a page.
  double apax_fill_fraction = 1.0;

  /// Per-write durability via a write-ahead log (see storage/wal.h).
  /// Off by default: the historical contract — Flush() is the durability
  /// point, the active/sealed memtables are volatile — stays fsync-free.
  /// Enabled, every acknowledged Insert/Delete survives a crash:
  /// Dataset::Open replays the log into the memtable after manifest
  /// recovery. A runtime knob, not part of the durable identity: a
  /// dataset may be opened with the WAL on or off across runs (segments
  /// written while on are replayed by the next WAL-enabled open; they are
  /// ignored, not deleted, by a WAL-disabled one). Store::OpenDataset
  /// sets this from StoreOptions::wal.
  WalOptions wal;

  // --- I/O fault tolerance ---

  /// Filesystem all dataset I/O goes through (component files, WAL
  /// segments, manifest rewrites, directory syncs, the stale-file sweep).
  /// nullptr (the default) means the process-wide POSIX filesystem; tests
  /// substitute a FaultInjectionFs to exercise error paths. A runtime
  /// wiring knob like `scheduler`: not validated, must outlive the
  /// dataset. Store::OpenDataset sets it from StoreOptions::fs.
  FileSystem* fs = nullptr;

  /// Transient-I/O retry policy for background work (flush builds, merge
  /// builds, manifest rewrites) and WAL segment writes: IOError-class
  /// failures are retried with capped exponential backoff before the
  /// failure is surfaced (background_error_ / fail-closed WAL).
  /// Corruption and checksum failures are never retried — retrying
  /// damage cannot help and delays quarantine. Retry counts and total
  /// backoff surface in DatasetStats.
  IoRetryOptions io_retry;
};

/// Checks every field up front and returns InvalidArgument naming the
/// offending field — so misconfiguration fails at Dataset::Open, not deep
/// inside the first flush.
Status ValidateDatasetOptions(const DatasetOptions& options);

}  // namespace lsmcol

#endif  // LSMCOL_LSM_OPTIONS_H_

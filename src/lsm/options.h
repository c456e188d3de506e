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
/// design-space axis mapped by the LSM survey and "How to Grow an
/// LSM-tree" (arXiv:2504.17178). The policy decides *which* contiguous
/// range of on-disk components each merge rewrites, trading write
/// amplification against the number of components reads must reconcile:
///
///   kTiered        Size-tiered (the paper's §6.3 setup and the default):
///                  merge the youngest run whose accumulated size reaches
///                  `size_ratio` times the next-older component, else the
///                  two newest once `max_components` is exceeded. Lowest
///                  write-amp, most components for reads to visit.
///   kLeveled       Size-classed levels with at most one run per level:
///                  flushes accumulate in level 0; once
///                  `compaction.level0_components` of them pile up they
///                  merge into the resident of the level the output
///                  reaches, cascading deeper while the output keeps
///                  growing into occupied levels. Highest write-amp,
///                  fewest components (cheapest scans/lookups).
///   kLazyLeveling  Dostoevsky's hybrid: the youngest part is tiered
///                  (same `size_ratio`/`max_components` knobs) while the
///                  oldest, largest component is kept as a single run —
///                  absorbed only when the accumulated younger data
///                  reaches 1/`level_fanout` of its size. Write-amp near
///                  tiered, space-amp and point-read cost near leveled.
enum class CompactionStrategy { kTiered, kLeveled, kLazyLeveling };

/// Printable policy name ("tiered", "leveled", "lazy-leveling").
const char* CompactionStrategyName(CompactionStrategy strategy);

/// Compaction-policy selection and shaping (see CompactionStrategy; the
/// tiered knobs `size_ratio`/`max_components` live directly on
/// DatasetOptions for §6.3 continuity). Validated by
/// ValidateDatasetOptions/ValidateStoreOptions.
struct CompactionOptions {
  CompactionStrategy strategy = CompactionStrategy::kTiered;
  /// Size ratio between adjacent levels (leveled's level width and
  /// lazy-leveling's absorb threshold). Must be in [2, 64].
  int level_fanout = 4;
  /// Leveled only: how many level-0 runs (fresh flushes) accumulate
  /// before they merge into the tree. Must be >= 2.
  int level0_components = 4;
  /// Leveled only: the level-0 size class boundary in bytes — components
  /// no larger than this count as fresh flushes. 0 (the default) derives
  /// it from DatasetOptions::memtable_bytes (a flushed component never
  /// exceeds the memtable that produced it).
  uint64_t level_base_bytes = 0;
};

/// Field-by-field validation shared by ValidateDatasetOptions and
/// ValidateStoreOptions; `field_prefix` names the offending field's owner
/// (e.g. "DatasetOptions.compaction.").
Status ValidateCompactionOptions(const CompactionOptions& options,
                                 const std::string& field_prefix);

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
  /// Which compaction policy picks merges (and the writer-stall bound);
  /// the default reproduces the historical size-tiered behavior exactly.
  /// A runtime knob, not part of the durable identity: a dataset may be
  /// reopened under any policy. Store::OpenDataset sets it from
  /// StoreOptions::compaction.
  CompactionOptions compaction;
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

// Snapshot: an immutable, refcounted view of one dataset — the unit every
// read in lsmcol executes against.
//
// A snapshot pins (1) a frozen copy of the active in-memory component as
// of GetSnapshot() time (MemTable::Share: it shares the table's nodes, and
// the writer copies a node before changing it), (2) the sealed (immutable)
// memtables awaiting background flush, (3) the disk component list (newest
// first), and (4) the schema, all via shared ownership: flushes swap in a
// fresh memtable, merges publish a new component list and mark the inputs
// obsolete, and writers copy the root and leaf of the memtable they change
// — none of which disturbs a live snapshot. A component merged away while
// pinned is deleted only when the last snapshot referencing it dies (the
// LSM invariant that components are immutable and readers enter/exit
// them, §2.1.1).
//
// Thread safety: snapshot acquisition happens under Dataset::mu_ (one
// brief critical section copying shared_ptrs — no data; the lock
// discipline is annotated in lsm/dataset.h and src/common/mutex.h), the
// refcounts keeping the pinned state alive are atomic, and everything a
// snapshot references is frozen at acquisition, so any number of threads
// may read through (their own) snapshots concurrently with writers and
// background flushes/merges. One Snapshot object and its cursors are
// still single-reader: share a dataset between threads, not a cursor.
//
// Cursors returned by a snapshot pin it, so `dataset->Scan(...)` (which
// takes an implicit snapshot) stays valid across later flushes/merges.
// The BufferCache must outlive every snapshot.

#ifndef LSMCOL_LSM_SNAPSHOT_H_
#define LSMCOL_LSM_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/lsm/component.h"
#include "src/lsm/memtable.h"

namespace lsmcol {

class Snapshot;

/// Reconciled scan over one dataset view (memtable + all components).
/// Anti-matter and shadowed records are skipped.
class LsmScanCursor : public TupleCursor {
 public:
  /// `sources` ordered newest first (memtable, then components new→old).
  explicit LsmScanCursor(std::vector<std::unique_ptr<TupleCursor>> sources);

  Result<bool> Next() override;
  int64_t key() const override { return winner_->key(); }
  bool anti_matter() const override { return false; }
  Status Record(Value* out) override { return winner_->Record(out); }
  Status Path(const std::vector<std::string>& path, Value* out) override {
    return winner_->Path(path, out);
  }
  Status SeekForward(int64_t target) override;
  /// The winning source's verdict for the current record.
  Result<PredicateVerdict> TestPushedPredicates() override {
    return winner_->TestPushedPredicates();
  }

  /// The winning source of the current record (for typed column access by
  /// the compiled engine; may be any TupleCursor subclass).
  TupleCursor* winner() { return winner_; }

  /// Keep `snapshot` alive for as long as this cursor reads from it.
  void Pin(std::shared_ptr<const Snapshot> snapshot) {
    pinned_ = std::move(snapshot);
  }

 private:
  struct Source {
    std::unique_ptr<TupleCursor> cursor;
    bool has_current = false;
    bool needs_advance = true;
  };

  std::vector<Source> sources_;
  TupleCursor* winner_ = nullptr;
  std::shared_ptr<const Snapshot> pinned_;
};

/// Stateful batched point lookups for ascending keys (§4.6): the LSM
/// cursor state persists across Find calls, so sorted secondary-index
/// results read each column chunk once. Pins its snapshot.
class LookupBatch {
 public:
  /// Keys must be non-decreasing across calls.
  Status Find(int64_t key, bool* found, Value* out);

 private:
  friend class Snapshot;
  explicit LookupBatch(std::unique_ptr<LsmScanCursor> cursor)
      : cursor_(std::move(cursor)) {}

  std::unique_ptr<LsmScanCursor> cursor_;
  bool has_current_ = false;
  bool exhausted_ = false;
};

/// \brief One dataset's state at a point in time, held immutable.
///
/// Obtained from Dataset::GetSnapshot(); lives independently of the
/// dataset (and may outlive it, as long as the BufferCache survives).
class Snapshot : public std::enable_shared_from_this<Snapshot> {
 public:
  using Ref = std::shared_ptr<const Snapshot>;

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Reconciled scan of the pinned view. For columnar layouts the
  /// projection limits which megapages/minipage chunks are ever decoded
  /// (and, for AMAX, read).
  Result<std::unique_ptr<LsmScanCursor>> Scan(
      const Projection& projection) const;

  /// Scan with predicate pushdown: `predicates` (necessary conditions of
  /// the query filter — see scan_predicate.h) are handed to columnar
  /// sources, which use zone maps to skip megapages/leaves and report
  /// per-record PredicateVerdicts through the cursor. Row sources ignore
  /// them (verdict kUnknown). Results are never narrowed below what the
  /// predicates imply; an empty set behaves exactly like plain Scan.
  Result<std::unique_ptr<LsmScanCursor>> Scan(
      const Projection& projection, const ScanPredicateSet& predicates) const;

  /// Point lookup. NotFound when the key does not exist (or was deleted)
  /// in this view. Probes the sources newest first — memtables with
  /// MemTable::Find, components with Component::Lookup (key fences, then
  /// one leaf's keys, then one record per projected column) — and stops
  /// at the first record or anti-matter entry; builds no cursor. Safe to
  /// call from several threads on one snapshot.
  Status Lookup(int64_t key, Value* out) const;
  /// Point lookup materializing only the projected paths (§4.6: index
  /// maintenance fetches just the old indexed values). The projection
  /// limits columnar components; memtable and row-layout records come
  /// back whole.
  Status Lookup(int64_t key, const Projection& projection, Value* out) const;

  Result<std::unique_ptr<LookupBatch>> NewLookupBatch(
      const Projection& projection) const;

  // --- Introspection (all frozen at GetSnapshot() time) ---
  LayoutKind layout() const { return layout_; }
  size_t component_count() const { return components_.size(); }
  const Component& component(size_t i) const { return *components_[i]; }
  const MemTable& memtable() const { return *memtable_; }
  /// Sealed memtables pinned by this snapshot, newest first (non-empty
  /// only while a background flush is pending).
  size_t immutable_memtable_count() const { return immutables_.size(); }
  const MemTable& immutable_memtable(size_t i) const {
    return *immutables_[i];
  }
  /// Schema as of snapshot time (columnar layouts only; else nullptr).
  const Schema* schema() const { return schema_.get(); }
  const RowCodec& row_codec() const { return *row_codec_; }
  uint64_t OnDiskBytes() const;

 private:
  friend class Dataset;
  Snapshot() = default;

  LayoutKind layout_ = LayoutKind::kOpen;
  const RowCodec* row_codec_ = nullptr;
  /// Frozen copy of the memtable active at snapshot time.
  std::shared_ptr<const MemTable> memtable_;
  /// Sealed memtables awaiting flush, newest first: reconciliation order
  /// is active memtable, then these, then the disk components.
  std::vector<std::shared_ptr<const MemTable>> immutables_;
  std::shared_ptr<const Schema> schema_;  // columnar layouts only
  std::vector<std::shared_ptr<const Component>> components_;  // newest first
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_SNAPSHOT_H_

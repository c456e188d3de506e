// LSM on-disk component wrapper and the per-source tuple cursors used by
// scans, merges, and point lookups.
//
// Every component stores a metadata blob (§2.1.1's metadata page) naming
// its layout, compression flag, entry count, and — for columnar layouts —
// the schema snapshot taken at the end of the flush/merge that produced it
// (the most recent schema is a superset of all older ones, §2.2).
//
// Cursors expose a reconciliation-friendly stream: Next()/key()/
// anti_matter() walk every entry (including anti-matter); Record() and
// Path() materialize values lazily. The columnar cursor decodes only
// primary keys while records are being skipped, advancing the projected
// columns' iterators in batches when a record is actually accessed (§4.4),
// and — for AMAX — reads a column's megapage pages only on first access
// within a leaf (§4.3). It also hands out typed per-record spans of a
// column's whole-leaf decode (RecordSpan) for the compiled engine.

#ifndef LSMCOL_LSM_COMPONENT_H_
#define LSMCOL_LSM_COMPONENT_H_

#include <atomic>
#include <climits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/columnar/assembler.h"
#include "src/columnar/column_reader.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/json/value.h"
#include "src/layouts/amax.h"
#include "src/layouts/apax.h"
#include "src/layouts/row_codec.h"
#include "src/layouts/row_leaf.h"
#include "src/lsm/memtable.h"
#include "src/lsm/scan_predicate.h"
#include "src/schema/schema.h"
#include "src/storage/component_file.h"

namespace lsmcol {

/// Metadata blob persisted with every component.
struct ComponentMeta {
  LayoutKind layout = LayoutKind::kOpen;
  bool compressed = true;
  uint64_t component_id = 0;  ///< monotonically increasing; merges take max
  uint64_t entry_count = 0;   ///< records + anti-matter entries

  void SerializeTo(Buffer* out, const Schema* schema) const;
  /// Parses the blob; fills *schema_blob with the schema bytes (empty for
  /// row layouts).
  static Result<ComponentMeta> Parse(Slice input, Buffer* schema_blob);
};

/// Dataset-wide tallies of data damage observed at component read time.
/// Shared (via shared_ptr) between the Dataset and every Component it
/// opens, so counts survive the component being merged away or the
/// snapshot that pinned it dying.
struct ComponentFaultCounters {
  std::atomic<uint64_t> checksum_failures{0};  ///< damaged reads observed
  std::atomic<uint64_t> quarantines{0};        ///< components quarantined
  /// First-damage records awaiting persistence. A component appends
  /// {component_id, reason} under log_mu the moment it quarantines
  /// itself (reads happen on arbitrary threads, possibly under component
  /// locks — the log is the rank-75 sink those threads may reach); the
  /// owning Dataset drains the log into the manifest so a restart does
  /// not silently "heal" a known-bad component. damage_records mirrors
  /// the append count so pollers skip log_mu when nothing is new.
  std::atomic<uint64_t> damage_records{0};
  mutable Mutex log_mu{MutexRank::kComponentFaultLog};
  std::vector<std::pair<uint64_t, Status>> damage_log
      LSMCOL_GUARDED_BY(log_mu);
};

/// An immutable on-disk component.
class Component {
 public:
  static Result<std::unique_ptr<Component>> Open(
      const std::string& path, BufferCache* cache, size_t page_size,
      FileSystem* fs = nullptr,
      std::shared_ptr<ComponentFaultCounters> fault_counters = nullptr);

  /// Open for salvage: damaged reads surface their error but never
  /// quarantine the component or touch fault counters, so a salvage tool
  /// can keep probing leaves past the first bad page.
  static Result<std::unique_ptr<Component>> OpenForSalvage(
      const std::string& path, BufferCache* cache, size_t page_size,
      FileSystem* fs = nullptr);

  /// Deletes the backing file iff MarkObsolete() was called.
  ~Component();

  /// Mark this component superseded (merged away). The backing file is
  /// deleted when the last reference drops — immediately if only the
  /// dataset held it, or once the last Snapshot pinning it dies. The
  /// manifest must already have stopped referencing the component (a
  /// crash before the deferred unlink only leaves an orphan file, which
  /// the stale-file sweep removes on the next open).
  void MarkObsolete() { obsolete_ = true; }

  const ComponentMeta& meta() const { return meta_; }
  const ComponentReader& reader() const { return *reader_; }
  ComponentReader* mutable_reader() { return reader_.get(); }
  /// Schema snapshot (columnar layouts only; nullptr otherwise).
  const Schema* schema() const { return schema_ ? &*schema_ : nullptr; }
  uint64_t size_bytes() const { return reader_->size_bytes(); }
  const std::string& path() const { return reader_->path(); }

  /// Row-leaf payload with leaf-level compression already removed. Backed
  /// by a small FIFO cache: the buffer cache of a real system holds
  /// decompressed pages, so repeated point lookups must not pay the
  /// decompression again. Returns shared ownership so the bytes stay
  /// valid for the caller even when concurrent readers (components are
  /// shared across snapshots and threads) rotate the entry out of the
  /// FIFO. Thread-safe.
  Result<std::shared_ptr<const Buffer>> DecompressedRowLeaf(
      size_t leaf_index) const LSMCOL_EXCLUDES(row_leaf_mu_);

  /// Checked leaf reads — the only way cursors and merges may touch this
  /// component's pages. A quarantined component fails fast without I/O;
  /// a read that surfaces data damage (checksum mismatch, corruption)
  /// quarantines the component so every later read fails fast too. Other
  /// components — and the dataset as a whole — stay readable: damage is
  /// contained to the file that exhibits it.
  Status ReadLeaf(size_t leaf_index, Buffer* out) const;
  Status ReadLeafRange(size_t leaf_index, uint64_t offset, uint64_t size,
                       Buffer* out) const;

  /// Checked leaf read that bypasses the buffer cache: the physical
  /// pages are re-read and re-verified even when cached. The scrubber's
  /// probe — same quarantine semantics as ReadLeaf.
  Status ScrubLeaf(size_t leaf_index, Buffer* out) const;

  /// OK, or the quarantine reason. Cheap (one atomic load when healthy).
  Status CheckReadable() const LSMCOL_EXCLUDES(fault_mu_);
  bool quarantined() const {
    return quarantined_.load(std::memory_order_acquire);
  }

  /// Quarantine without a read: used at recovery to re-apply a damage
  /// record persisted in the manifest. Bumps the quarantine counter but
  /// not checksum_failures, and does NOT append to the damage log (the
  /// record is already durable). Idempotent.
  void Quarantine(const Status& reason) const LSMCOL_EXCLUDES(fault_mu_);

 private:
  static constexpr size_t kRowLeafCacheSize = 4;

  Component() = default;

  /// Record `st` if it is data damage (quarantining on first sight) and
  /// return it unchanged. Called on every checked read's result.
  Status NoteRead(Status st) const LSMCOL_EXCLUDES(fault_mu_);

  ComponentMeta meta_;
  bool obsolete_ = false;
  /// Salvage mode: NoteRead passes damage through untouched.
  bool salvage_ = false;
  std::unique_ptr<ComponentReader> reader_;
  std::optional<Schema> schema_;
  std::shared_ptr<ComponentFaultCounters> fault_counters_;
  /// Guards quarantine_reason_; quarantined_ is the lock-free fast path.
  mutable Mutex fault_mu_{MutexRank::kComponentFault};
  mutable std::atomic<bool> quarantined_{false};
  mutable Status quarantine_reason_ LSMCOL_GUARDED_BY(fault_mu_);
  /// Guards row_leaf_cache_ only; everything else is immutable after
  /// Open() (obsolete_ flips once, under Dataset::mu_).
  mutable Mutex row_leaf_mu_{MutexRank::kComponentRowLeaf};
  mutable std::vector<std::pair<size_t, std::shared_ptr<const Buffer>>>
      row_leaf_cache_ LSMCOL_GUARDED_BY(row_leaf_mu_);
};

/// Which fields a cursor must be able to materialize.
struct Projection {
  bool all = true;
  std::vector<std::vector<std::string>> paths;

  static Projection All() { return Projection(); }
  static Projection Of(std::vector<std::vector<std::string>> paths) {
    Projection p;
    p.all = false;
    p.paths = std::move(paths);
    return p;
  }
};

/// What a cursor can say about its current record versus the pushed-down
/// scan predicates (the ScanPredicate contract: predicates are necessary
/// conditions of the query filter).
enum class PredicateVerdict : uint8_t {
  kNoMatch,  ///< some pushed predicate is definitely false — skip safely
  kMatch,    ///< every pushed predicate was checked and holds
  kUnknown,  ///< not checked (no stats / unpushable here) — evaluate fully
};

/// Reconciliation-friendly sorted tuple stream (one LSM source).
class TupleCursor {
 public:
  virtual ~TupleCursor() = default;

  /// Advance; false when exhausted. Surfaces anti-matter entries too.
  virtual Result<bool> Next() = 0;
  virtual int64_t key() const = 0;
  virtual bool anti_matter() const = 0;

  /// Materialize the current record (projection-limited where supported).
  virtual Status Record(Value* out) = 0;
  /// Materialize one dotted path of the current record.
  virtual Status Path(const std::vector<std::string>& path, Value* out) = 0;

  /// Fast-forward so the next Next() lands on the first key >= target.
  /// Must not move backwards.
  virtual Status SeekForward(int64_t target) = 0;

  /// Judge the current record against the pushed predicates (if any).
  /// Sources without zone/typed support answer kUnknown, which is always
  /// safe. Cheap: leaf-level zone state plus array lookups.
  virtual Result<PredicateVerdict> TestPushedPredicates() {
    return PredicateVerdict::kUnknown;
  }
};

/// Cursor over a row-layout component (Open/VB leaves).
class RowComponentCursor : public TupleCursor {
 public:
  RowComponentCursor(const Component* component) : component_(component) {}

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;

  /// Raw encoded row of the current entry (merge fast path: rows are
  /// copied between components without decoding).
  Slice row() const { return row_; }

 private:
  const Component* component_;
  size_t leaf_index_ = 0;
  bool leaf_loaded_ = false;
  /// Keeps the decompressed leaf alive while leaf_reader_ iterates it —
  /// concurrent readers of the same component may rotate it out of the
  /// component's small FIFO at any time.
  std::shared_ptr<const Buffer> leaf_payload_;
  RowLeafReader leaf_reader_;
  int64_t key_ = 0;
  bool anti_matter_ = false;
  Slice row_;
  int64_t seek_floor_ = INT64_MIN;  // skip rows below this after a seek
};

/// Cursor over a columnar component (APAX or AMAX).
class ColumnarComponentCursor : public TupleCursor {
 public:
  /// `dataset_schema` is the live schema used to resolve projections; the
  /// component's own snapshot drives chunk decoding.
  ///
  /// `predicates` (optional; consumed during construction) enables pushdown:
  /// each predicate is resolved against the component schema and compiled
  /// to typed bounds; zone stats (AMAX Page-0 prefixes, APAX per-chunk
  /// stats) then veto whole leaves — their megapages are never read — and
  /// surviving records are checked against batch-decoded column values.
  /// `foreign_key_ranges` lists the [min, max] key ranges of every other
  /// source in the same scan: a leaf whose zone fails AND whose key range
  /// overlaps no foreign range is skipped outright (nothing it holds can
  /// shadow or annihilate another source's record), without decoding PKs.
  ColumnarComponentCursor(
      const Component* component, const Projection& projection,
      const ScanPredicateSet* predicates = nullptr,
      std::vector<std::pair<int64_t, int64_t>> foreign_key_ranges = {});

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;
  Result<PredicateVerdict> TestPushedPredicates() override;

  /// The current record's entries of one column: entries [begin, end) of
  /// `batch`. `batch` is null when the column is absent from the leaf
  /// (every record's value is missing).
  struct ColumnSpan {
    const ColumnEntryBatch* batch = nullptr;
    size_t begin = 0;
    size_t end = 0;
  };
  /// Typed access for the compiled engine. The first call for a column in
  /// a leaf decodes the column's whole chunk in one NextEntryBatch and
  /// splits it into records (RecordStarts); later records index into that
  /// decode. The span stays valid until the cursor leaves the leaf.
  Status RecordSpan(int column_id, ColumnSpan* out);

  const Schema* component_schema() const { return component_->schema(); }

 private:
  /// One column's whole-leaf decode, shared by pushed predicates and
  /// RecordSpan.
  struct LeafEntries {
    ColumnEntryBatch batch;
    /// Record r spans entries [starts[r], starts[r + 1]); empty when the
    /// column is absent from the leaf.
    std::vector<uint32_t> starts;
  };

  struct ColumnState {
    bool chunk_loaded = false;  // `chunk` holds the current leaf's
    Slice chunk;                // empty: column absent from the leaf
    Buffer chunk_storage;       // AMAX decompressed megapage
    bool loaded = false;        // `reader` initialized for current leaf
    ColumnChunkReader reader;
    uint64_t consumed = 0;      // records consumed within current leaf
    uint64_t seq = 0;           // cursor sequence `record` belongs to
    ColumnRecord record;
    /// The current leaf's decode; null until first used in the leaf.
    std::unique_ptr<LeafEntries> entries;
  };

  /// One pushed-down column: every predicate on it, compiled. Per-record
  /// checks index into the column's whole-leaf decode.
  struct PredColumn {
    int column_id = -1;
    int max_def = 0;
    AtomicType type = AtomicType::kInt64;
    std::vector<TypedPredicate> preds;  // conjunctive
  };

  Status LoadLeaf(size_t leaf_index);
  /// The column's chunk in the current leaf; an AMAX megapage is fetched
  /// and decompressed on the first call per leaf only.
  Status LeafChunk(int column_id, Slice* out);
  Status EnsureColumnCurrent(int column_id);
  Result<const LeafEntries*> LoadLeafEntries(int column_id);
  Status ResolveProjection(const Projection& projection);
  void ResolvePredicates(const ScanPredicateSet& predicates);
  /// Zone tests for the current leaf; sets leaf_zone_match_.
  void EvaluateLeafZones();
  bool LeafRangeDisjointFromForeign(int64_t min_key, int64_t max_key) const;

  const Component* component_;
  std::vector<bool> projected_;   // by column id (component schema ids)
  std::vector<int> projected_ids_;
  RecordAssembler assembler_;

  size_t leaf_index_ = 0;
  bool leaf_loaded_ = false;
  uint32_t leaf_records_ = 0;
  uint64_t position_in_leaf_ = 0;  // records delivered in current leaf
  uint64_t record_seq_ = 0;        // increments on every delivered record

  // Per-leaf state.
  ApaxLeaf apax_leaf_;
  Buffer amax_page0_bytes_;
  AmaxPageZero amax_page0_;
  ColumnChunkReader pk_reader_;
  ColumnEntryBatch pk_batch_;  // whole-leaf PK decode (defs + keys)
  std::vector<ColumnState> columns_;  // by column id

  // Pushdown state.
  bool has_checked_predicates_ = false;  // any zone/typed check applies
  bool has_unchecked_predicates_ = false;  // some predicate not pushable
  bool component_never_match_ = false;  // a predicate fails for all records
  bool leaf_zone_match_ = true;
  std::vector<TypedPredicate> pk_preds_;
  std::vector<PredColumn> pred_columns_;
  std::vector<std::pair<int64_t, int64_t>> foreign_ranges_;

  int64_t key_ = 0;
  bool anti_matter_ = false;
  int64_t seek_floor_ = INT64_MIN;
  std::vector<const ColumnRecord*> by_column_;  // scratch for assembly
  ColumnRecord pk_record_;
};

/// Cursor over the in-memory component. The memtable must not be mutated
/// while the cursor lives.
class MemTableCursor : public TupleCursor {
 public:
  MemTableCursor(const MemTable* memtable, const RowCodec* codec)
      : memtable_(memtable), codec_(codec),
        it_(memtable->entries().begin()) {}

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;

 private:
  const MemTable* memtable_;
  const RowCodec* codec_;
  std::map<int64_t, MemTable::Entry>::const_iterator it_;
  bool started_ = false;
  int64_t key_ = 0;
  bool anti_matter_ = false;
  int64_t seek_floor_ = INT64_MIN;
  const std::string* row_ = nullptr;
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_COMPONENT_H_

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
// and — for AMAX — fetches a column's megapage only on first access
// within a leaf (§4.3). It also hands out typed per-record spans of a
// column's whole-leaf decode (RecordSpan) for the compiled engine; a
// column's values are decoded only once a span asks for them.
//
// Readers read leaves as decoded units pinned in the buffer cache, verified
// and decompressed once on a miss and indexed in place afterwards — no
// per-open copy or LZ. A row leaf is one unit, its payload. A columnar
// leaf is a head unit (the column count and the PK chunk; for AMAX its
// Page 0, with the zone prefixes) and one unit per column the leaf holds
// (an APAX minipage with its stats entry, an AMAX megapage), so a cache
// holds only the columns its readers touch.
//
// Component is the only code that knows how APAX and AMAX leaves are laid
// out. Every columnar reader — a cursor, a lookup, the vertical merge —
// reads a leaf through one handle, ColumnarLeaf: OpenColumnarLeaf pins
// and parses its head, ColumnChunk returns a column's chunk and
// ColumnZone a column's zone map. An AMAX column miss reads that column's
// pages. An APAX miss reads the whole leaf once and opens an image of it
// the handle keeps, decoded only as far as the handle's reads reach: the
// head (stats table and PK chunk) on open, which is all a head-only
// reader such as the merge's PK phase decodes, then each missed column's
// chunk in turn. The units asked for are cut from it (a one-shot reader
// takes its chunks straight from the image); the leaf itself is never
// cached.
//
// Point lookups use no cursor: Component::Lookup checks the key fences,
// binary-searches one leaf's keys (decoded once, kept as a head unit
// attachment), and seeks each column it reads straight to the record
// through the column's seek index, built on the column's first lookup in
// the leaf and kept as its column unit's attachment. A full-record lookup
// reads only the columns the leaf's presence index (the head unit's second
// attachment, src/columnar/presence_index.h) lists for the record; a
// projected one reads its projected columns. Other columns are never
// indexed or read.
//
// A checked read that surfaces data damage quarantines the component:
// later reads fail fast with the first reason. The component is the only
// record of its quarantine; the owning Dataset copies the quarantines of
// the components it holds into each manifest it writes.

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
  /// Components quarantined. Bumped (release) after the quarantine is
  /// visible on the component, so a Dataset that reads it (acquire)
  /// before collecting its components' states sees every quarantine the
  /// value counts: a moved value means the manifest may be behind.
  std::atomic<uint64_t> quarantines{0};
};

/// How a reader's leaf reads use the buffer cache.
enum class CacheUse : uint8_t {
  kInstall,  ///< a miss caches the decoded unit (queries, lookups)
  kOneShot,  ///< hits are served, misses decoded privately and read
             ///< uncached (merge inputs): nothing is installed
};

/// One reader's handle on a columnar leaf (a cursor's current leaf, a
/// lookup's leaf, a merge input's leaf): the head unit, pinned and parsed,
/// and what the reader's misses in the leaf have read. Opened by
/// Component::OpenColumnarLeaf and read through Component::ColumnChunk
/// and Component::ColumnZone, the only code that knows how an APAX or
/// AMAX leaf is laid out. Private to its reader.
class ColumnarLeaf {
 private:
  friend class Component;

  size_t leaf_ = SIZE_MAX;      // the leaf `head_` belongs to
  CacheUse use_ = CacheUse::kInstall;
  CacheHandle head_;            // APAX head unit or AMAX Page 0
  uint32_t column_count_ = 0;   // columns the leaf holds; later ids absent
  Slice pk_chunk_;              // points into head_
  AmaxPageZero page0_;          // AMAX: parsed over head_
  // APAX misses: the leaf's payload, read once, and its image, decoded
  // only as far as the misses have asked; every APAX unit a miss builds
  // is cut from it.
  size_t image_leaf_ = SIZE_MAX;  // the leaf `image_` holds
  Buffer stored_;                 // the payload as stored, read whole
  ApaxLeaf image_;                // opened over stored_
  LeafPageMemo memo_;           // AMAX misses: pages shared by megapages
};

/// Decode a columnar leaf's whole PK chunk into `batch`: keys and
/// anti-matter def levels. Corruption unless it holds exactly `records`
/// keys, the count the component's leaf index gives the leaf.
Status DecodeLeafKeys(Slice pk_chunk, const ColumnInfo& pk, size_t records,
                      ColumnEntryBatch* batch);

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

/// What a component holds for one key (Component::Lookup).
enum class KeyProbe : uint8_t {
  kAbsent,      ///< no entry: older sources decide
  kRecord,      ///< a record, materialized
  kAntiMatter,  ///< a delete: the key is gone, older sources are shadowed
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
  /// The full-record assembly plan over schema() (columnar layouts only),
  /// shared by every reader of the component.
  const AssemblyPlan& record_plan() const { return *record_plan_; }
  /// Columnar layouts: by column id, whether `projection` needs the
  /// column (the PK always; paths unknown to the schema add nothing).
  std::vector<bool> ProjectedColumns(const Projection& projection) const;
  uint64_t size_bytes() const { return reader_->size_bytes(); }
  const std::string& path() const { return reader_->path(); }

  /// A row leaf's verified, decompressed payload, pinned in the buffer
  /// cache. Like every checked read it fails fast once the component is
  /// quarantined, even when the unit is cached, and a miss that surfaces
  /// data damage (a page checksum, or an LZ stream or leaf that does not
  /// decode) quarantines the component. Thread-safe.
  Result<CacheHandle> DecodedLeaf(size_t leaf_index, CacheUse use) const;
  /// Columnar layouts: open `leaf` on leaf `leaf_index`, dropping what it
  /// held of another leaf. Its head unit (an APAX leaf's column count and
  /// PK chunk, an AMAX Page 0 with the zone prefixes) is pinned and
  /// parsed in place; every read through the handle uses the cache as
  /// `use` says. Same rules as DecodedLeaf.
  Status OpenColumnarLeaf(size_t leaf_index, ColumnarLeaf* leaf,
                          CacheUse use) const;
  /// Column `column_id`'s chunk in `leaf`, the bytes ColumnChunkReader::
  /// Init takes; column 0 is the PK chunk. Empty when the leaf holds no
  /// such column. The chunk stays valid while `unit` and `leaf` do: `unit`
  /// pins the column's unit when one holds the chunk, and when it already
  /// pins it (from ColumnZone, or an earlier call in this leaf) it is not
  /// fetched again. Every miss in a leaf reads its pages at most once: a
  /// kOneShot APAX read cuts the chunk from the leaf, read whole into
  /// `leaf` on the first miss and decoded up to the chunk's end, and
  /// builds no unit. Same rules as DecodedLeaf.
  Status ColumnChunk(ColumnarLeaf* leaf, int column_id, CacheHandle* unit,
                     Slice* chunk) const;
  /// Column `column_id`'s (>= 1) zone map in `leaf`: the APAX stats entry,
  /// which comes with the column's unit (pinned in `unit` for a later
  /// ColumnChunk), or the AMAX Page-0 prefixes, read without touching a
  /// megapage. Same rules as DecodedLeaf.
  Status ColumnZone(ColumnarLeaf* leaf, int column_id, CacheHandle* unit,
                    ZoneMap* zone) const;

  /// Point lookup. Only the leaf whose key fences span `key` is read: its
  /// keys are binary-searched (decoded once per cached leaf), and a hit
  /// materializes just that record's entries of the columns it reads,
  /// each column reader jumping to the record through the column's seek
  /// index (built once per cached column) — no cursor, no walk from the
  /// leaf's first record. A full-record hit reads the columns the leaf's
  /// presence index lists for the record (the index is built once per
  /// cached leaf, on its first full-record hit, from every column), a
  /// projected hit the projected columns. A failure to build a key list,
  /// presence index or seek index is data damage and quarantines like a
  /// failed load. Records of row layouts come back whole, and columnar
  /// ones limited to `projection` as ColumnarComponentCursor assembles
  /// them. Thread-safe; same quarantine rules as DecodedLeaf.
  Result<KeyProbe> Lookup(int64_t key, const Projection& projection,
                          Value* out) const;

  /// Checked read of a leaf's raw stored payload, bypassing the buffer
  /// cache: the physical pages are read and verified even when cached,
  /// and nothing is installed — how a merge adopts a whole input leaf,
  /// and the scrubber's probe (a cached copy must never mask media decay
  /// under it, and scrubbing a cold dataset must not evict the hot set).
  /// A quarantined component fails fast without I/O; a read that
  /// surfaces data damage (checksum mismatch, corruption) quarantines the
  /// component so every later read fails fast too. Other components — and
  /// the dataset as a whole — stay readable: damage is contained to the
  /// file that exhibits it.
  Status ReadLeaf(size_t leaf_index, Buffer* out) const;

  /// OK, or the quarantine reason. Cheap (one atomic load when healthy).
  Status CheckReadable() const LSMCOL_EXCLUDES(fault_mu_);
  bool quarantined() const {
    return quarantined_.load(std::memory_order_acquire);
  }

  /// Quarantine without a read (recovery re-applies a damage record
  /// persisted in the manifest; NoteRead calls it on first damage).
  /// Bumps the quarantine counter, not checksum_failures. Idempotent:
  /// the first reason stays.
  void Quarantine(const Status& reason) const LSMCOL_EXCLUDES(fault_mu_);

 private:
  Component() = default;

  /// Checked fetch of a decoded unit (see DecodedLeaf); `load` runs on
  /// a miss.
  Result<CacheHandle> FetchUnit(size_t leaf_index, int column, CacheUse use,
                                const BufferCache::UnitLoader& load) const;
  /// Read `leaf`'s APAX payload and open its image (head decoded only)
  /// unless it holds it already, without the checks: the APAX units' miss
  /// path, whose result FetchUnit notes.
  Status OpenApaxImage(ColumnarLeaf* leaf) const;
  /// `leaf`'s head unit (see OpenColumnarLeaf). An APAX miss reads the
  /// leaf into its image.
  Result<CacheHandle> DecodedHead(ColumnarLeaf* leaf) const;
  /// One column's unit in `leaf`, `column_id` below its column count: an
  /// APAX minipage with its stats entry (ParseApaxColumnUnit splits it),
  /// cut from the leaf's image on a miss, or an AMAX megapage,
  /// decompressed and stripped of its string min/max prefix. An AMAX miss
  /// reads through (and adds to) the leaf's memo, the pages already read
  /// from the leaf, so megapages sharing a page cost one read of it.
  Result<CacheHandle> DecodedColumn(ColumnarLeaf* leaf, int column_id) const;
  /// Build `leaf`'s presence index over its `records` records into *out:
  /// every column the leaf holds is fetched, its unit left pinned in
  /// (*units)[column id] for the caller's reads, and its def levels
  /// decoded. Failures are noted (NoteRead) here.
  Status BuildPresenceIndex(ColumnarLeaf* leaf, size_t records, Buffer* out,
                            std::vector<CacheHandle>* units) const;
  /// Record `st` if it is data damage (quarantining on first sight) and
  /// return it unchanged. Called on every checked read's result.
  Status NoteRead(Status st) const LSMCOL_EXCLUDES(fault_mu_);

  ComponentMeta meta_;
  bool obsolete_ = false;
  /// Salvage mode: NoteRead passes damage through untouched.
  bool salvage_ = false;
  std::unique_ptr<ComponentReader> reader_;
  std::optional<Schema> schema_;
  std::optional<AssemblyPlan> record_plan_;
  std::shared_ptr<ComponentFaultCounters> fault_counters_;
  /// Guards quarantine_reason_; quarantined_ is the lock-free fast path.
  mutable Mutex fault_mu_{MutexRank::kComponentFault};
  mutable std::atomic<bool> quarantined_{false};
  mutable Status quarantine_reason_ LSMCOL_GUARDED_BY(fault_mu_);
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
  explicit RowComponentCursor(const Component* component,
                              CacheUse use = CacheUse::kInstall)
      : component_(component), use_(use) {}

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
  CacheUse use_;
  size_t leaf_index_ = 0;
  bool leaf_loaded_ = false;
  /// Pins the decoded leaf leaf_reader_ iterates (and row_ points into).
  CacheHandle leaf_unit_;
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
  // The assembly state points into the cursor itself.
  ColumnarComponentCursor(const ColumnarComponentCursor&) = delete;
  ColumnarComponentCursor& operator=(const ColumnarComponentCursor&) = delete;

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
  /// a leaf decodes the column's whole chunk and splits it into records in
  /// the same pass (ColumnChunkReader::DecodeRecords); later records index
  /// into that decode. Without `values` only the def levels and value
  /// indices are decoded — enough to count an array's elements — and the
  /// span's typed arrays may be empty; the first call with `values` in
  /// the leaf decodes them. The span stays valid until the cursor leaves
  /// the leaf, which frees the decode.
  Status RecordSpan(int column_id, ColumnSpan* out, bool values = true);

  const Schema* component_schema() const { return component_->schema(); }

 private:
  /// One column's whole-leaf decode, shared by pushed predicates and
  /// RecordSpan.
  struct LeafEntries {
    ColumnEntryBatch batch;
    /// Record r spans entries [starts[r], starts[r + 1]); empty when the
    /// column is absent from the leaf.
    std::vector<uint32_t> starts;
    /// Present values in the chunk, and whether `batch` holds them yet.
    size_t values = 0;
    bool values_decoded = false;
  };

  /// A column the cursor has read. Made on the column's first use, so a
  /// cursor keeps (and resets per leaf) only the columns it reads.
  struct ColumnState {
    bool chunk_loaded = false;  // `chunk` holds the current leaf's
    Slice chunk;                // empty: column absent from the leaf
    CacheHandle unit;           // pins the column unit `chunk` points into
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
  /// The column's state, made on first use.
  ColumnState& State(int column_id);
  /// The column's chunk in the current leaf; its unit is fetched from the
  /// cache on the first call per leaf only.
  Status LeafChunk(int column_id, Slice* out);
  Status EnsureColumnCurrent(int column_id);
  Result<const LeafEntries*> LoadLeafEntries(int column_id, bool values);
  void ResolvePredicates(const ScanPredicateSet& predicates);
  /// Zone tests for the current leaf; sets leaf_zone_match_. A zone read
  /// may pin the column's unit for its later chunk read (ColumnZone).
  Status EvaluateLeafZones();
  bool LeafRangeDisjointFromForeign(int64_t min_key, int64_t max_key) const;

  const Component* component_;
  /// By column id (component schema ids); compiled into `record_plan_` on
  /// the first Record().
  std::vector<bool> projected_;

  size_t leaf_index_ = 0;
  bool leaf_loaded_ = false;
  uint32_t leaf_records_ = 0;
  uint64_t position_in_leaf_ = 0;  // records delivered in current leaf
  uint64_t record_seq_ = 0;        // increments on every delivered record

  // Per-leaf state.
  ColumnarLeaf leaf_;
  ColumnEntryBatch pk_batch_;  // whole-leaf PK decode (defs + keys)
  std::vector<std::unique_ptr<ColumnState>> states_;  // columns read so far
  std::vector<ColumnState*> state_of_;  // by column id; null until read

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
  // Assembly. by_column_[c] points at column c's current record from the
  // column's first read on; a plan reads only the columns it names, each
  // made current first.
  const AssemblyPlan* record_plan_ = nullptr;  // Record(): own or shared
  std::optional<AssemblyPlan> projected_plan_;
  std::vector<AssemblyPlan> path_plans_;  // Path(): one per resolved node
  AssemblyScratch scratch_;
  std::vector<const ColumnRecord*> by_column_;
  ColumnRecord pk_record_;
};

/// Cursor over the in-memory component. The memtable must not be mutated
/// while the cursor lives (a snapshot's frozen copy never is).
class MemTableCursor : public TupleCursor {
 public:
  MemTableCursor(const MemTable* memtable, const RowCodec* codec)
      : memtable_(memtable), codec_(codec), it_(memtable->begin()) {}

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;

 private:
  const MemTable* memtable_;
  const RowCodec* codec_;
  MemTable::Iterator it_;
  bool started_ = false;
  int64_t key_ = 0;
  bool anti_matter_ = false;
  int64_t seek_floor_ = INT64_MIN;
  const std::string* row_ = nullptr;
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_COMPONENT_H_

// APAX leaf pages (§4.2): every column of a record batch stored as an
// encoded minipage inside one leaf. The page header carries the tuple
// count, column count and the min/max primary keys so B+-tree operations
// never decode the key minipage (Figure 8). Reading an APAX leaf reads the
// whole page regardless of projection — its defining I/O property.
//
// Raw payload:
//   varint record_count | varint column_count |
//   signed-varint min_key | signed-varint max_key |
//   per column: varint chunk_size |
//   per column: stats blob (byte has_stats; if 1: byte type + typed
//     min/max — zone-filter stats over the chunk's present values) |
//   column chunks (minipages) back to back
// The payload is LZ-compressed as a unit when compression is on.
//
// Readers do not cache a leaf whole. They cache two kinds of decoded unit
// cut from it (ApaxLeaf::HeadUnit/ColumnUnit), the same two AMAX readers
// use (Page 0 and megapages), so a cache holds only the columns its
// readers touch. Units live in memory only and are rebuilt from the leaf
// on a miss:
//   head unit:   varint column_count | PK chunk
//   column unit: fixed32 minipage size | the minipage |
//                the column's stats entry as stored
// Readers take a leaf's record count from the component's leaf index. A
// column unit puts its minipage first, so a reader that needs no stats
// finds the minipage without parsing them and touches none of their
// bytes.

#ifndef LSMCOL_LAYOUTS_APAX_H_
#define LSMCOL_LAYOUTS_APAX_H_

#include <vector>

#include "src/columnar/column_reader.h"
#include "src/columnar/column_writer.h"
#include "src/common/buffer.h"
#include "src/storage/component_file.h"

namespace lsmcol {

/// Encode the accumulated chunks of `writers` as one APAX leaf and append
/// it to `out`. The writers are cleared. No-op when no records pending.
Status EmitApaxLeaf(ColumnWriterSet* writers, ComponentWriter* out,
                    bool compress);

/// Per-column min/max over the present values of one APAX leaf — the
/// zone-filter stats (§4.3's idea applied to APAX, where the whole leaf
/// is read anyway: the win is skipping chunk decode, not I/O).
/// has_stats is false when the chunk holds no present values.
struct ApaxChunkStats {
  bool has_stats = false;
  AtomicType type = AtomicType::kInt64;
  int64_t min_int = 0, max_int = 0;       ///< kBoolean (0/1) and kInt64
  double min_double = 0, max_double = 0;  ///< kDouble
  std::string min_string, max_string;     ///< kString (full values)
};

/// Parsed APAX leaf: per-column chunk slices over a decompressed payload.
/// Parsing checks every column's stats entry; a reader decodes one from
/// the column's unit (ColumnUnit, ParseApaxColumnUnit). Leaves always
/// carry the stats table — components from before it existed are
/// rejected by the footer-magic bump (see component_file.cc).
class ApaxLeaf {
 public:
  /// Parse a payload as stored, keeping a decompressed (or copied) image
  /// of it: the chunk slices stay valid for the object's lifetime.
  Status Init(Slice payload, bool compressed);
  /// Parse an already-decompressed payload in place, without copying it:
  /// the chunk slices point into `payload`, which must outlive their use
  /// (readers pass a pinned buffer-cache unit).
  Status Parse(Slice payload);

  uint32_t record_count() const { return record_count_; }
  uint32_t column_count() const { return column_count_; }
  int64_t min_key() const { return min_key_; }
  int64_t max_key() const { return max_key_; }

  /// Chunk bytes for a column; empty Slice when the column was not yet
  /// discovered when this leaf was written (treat as all def-0).
  Slice chunk(int column_id) const {
    if (column_id < 0 || static_cast<uint32_t>(column_id) >= column_count_) {
      return Slice();
    }
    return chunks_[column_id];
  }

  /// Append the leaf's head unit to `out`.
  void HeadUnit(Buffer* out) const;
  /// Append column `column_id`'s unit to `out`; 1 <= column_id <
  /// column_count().
  void ColumnUnit(int column_id, Buffer* out) const;

 private:
  Buffer storage_;
  uint32_t record_count_ = 0;
  uint32_t column_count_ = 0;
  int64_t min_key_ = 0;
  int64_t max_key_ = 0;
  std::vector<Slice> chunks_;
  Slice stats_table_;                   ///< every column's stats entry
  std::vector<uint32_t> stats_offsets_; ///< column -> entry offset in it
};

/// A parsed APAX head unit; the PK chunk points into the unit.
class ApaxHead {
 public:
  Status Parse(Slice unit);

  uint32_t column_count() const { return column_count_; }
  Slice pk_chunk() const { return pk_chunk_; }

 private:
  uint32_t column_count_ = 0;
  Slice pk_chunk_;
};

/// Split an APAX column unit into its minipage (`chunk`, pointing into
/// the unit) and, when `stats` is non-null, its decoded zone stats.
Status ParseApaxColumnUnit(Slice unit, Slice* chunk, ApaxChunkStats* stats);

}  // namespace lsmcol

#endif  // LSMCOL_LAYOUTS_APAX_H_

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
// Readers do not cache a leaf whole, nor decode it whole. An ApaxLeaf
// decodes a compressed payload only up to the furthest byte a reader has
// asked for: the chunk sizes place the stats table and every chunk up
// front, so opening a leaf decodes its head (header, sizes, stats table,
// PK chunk) and a column's first read extends the decode to the end of
// its chunk. Readers cache two kinds of decoded unit cut from it
// (ApaxLeaf::HeadUnit/ColumnUnit), the same two AMAX readers use (Page 0
// and megapages), so a cache holds only the columns its readers touch.
// Units live in memory only and are rebuilt from the leaf on a miss:
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
#include "src/encoding/lz.h"
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

/// Parsed APAX leaf: per-column chunk slices over the payload's image.
/// The image of a compressed payload is decoded on demand, only up to the
/// furthest byte a reader has asked for: opening a leaf decodes its head
/// (the header, the stats table and the PK chunk, which end well before
/// most of the payload), and a column's first read extends the image to
/// the end of that column's chunk. Opening checks every column's stats
/// entry and that the chunks fill the rest of the payload exactly; a
/// reader decodes a stats entry from the column's unit (ColumnUnit,
/// ParseApaxColumnUnit). Leaves always carry the stats table — components
/// from before it existed are rejected by the footer-magic bump (see
/// component_file.cc).
class ApaxLeaf {
 public:
  ApaxLeaf() = default;
  // The decoder points at the leaf's own image buffer.
  ApaxLeaf(const ApaxLeaf&) = delete;
  ApaxLeaf& operator=(const ApaxLeaf&) = delete;

  /// Open a payload as stored, without copying it: it must outlive the
  /// leaf's use. Decodes and parses the head only. A compressed payload
  /// whose later bytes do not decode fails the first call that reaches
  /// them, and every call after it.
  Status Open(Slice payload, bool compressed);
  /// Open a payload as stored and decode it whole into an image the leaf
  /// owns: `payload` need not outlive the call, and chunk() holds for
  /// every column.
  Status Init(Slice payload, bool compressed);

  uint32_t record_count() const { return record_count_; }
  uint32_t column_count() const { return column_count_; }
  int64_t min_key() const { return min_key_; }
  int64_t max_key() const { return max_key_; }

  /// Chunk bytes for a column, from a leaf whose image holds them (after
  /// Init, an uncompressed Open, or Chunk of the column); empty Slice when
  /// the column was not yet discovered when this leaf was written (treat
  /// as all def-0).
  Slice chunk(int column_id) const {
    if (column_id < 0 || static_cast<uint32_t>(column_id) >= column_count_) {
      return Slice();
    }
    const auto c = static_cast<size_t>(column_id);
    return Slice(image() + chunk_offsets_[c],
                 chunk_offsets_[c + 1] - chunk_offsets_[c]);
  }
  /// chunk(column_id), decoding the image up to the chunk's end first.
  /// The slice stays valid while the leaf does.
  Status Chunk(int column_id, Slice* out);

  /// Append the leaf's head unit to `out`.
  void HeadUnit(Buffer* out) const;
  /// Append column `column_id`'s unit to `out`, decoding the image up to
  /// the column's chunk first; 1 <= column_id < column_count().
  Status ColumnUnit(int column_id, Buffer* out);

 private:
  /// The image's first byte. A lazy image moves while the head is parsed
  /// and once more, to its whole length, on the first column read.
  const char* image() const {
    return lazy_ ? image_buf_.data() : payload_.data();
  }
  /// Make the image's first `end` bytes available.
  Status Reach(size_t end);
  /// Reach the end of column `column_id`'s chunk, in an image sized whole
  /// so the chunk's bytes stay put.
  Status ReachChunk(int column_id);
  Status ParseHead();

  Buffer copy_;        // Init: the payload, when stored uncompressed
  Slice payload_;      // the payload as opened
  bool lazy_ = false;  // the image is lz_'s output, decoded on demand
  Buffer image_buf_;   // with lazy_: the image, as far as decoded
  LzDecoder lz_;       // decodes into image_buf_
  size_t image_size_ = 0;  // the whole decompressed payload's length
  uint32_t record_count_ = 0;
  uint32_t column_count_ = 0;
  int64_t min_key_ = 0;
  int64_t max_key_ = 0;
  /// Chunk c spans image bytes [chunk_offsets_[c], chunk_offsets_[c + 1]);
  /// the stats table ends where chunk 0 starts.
  std::vector<size_t> chunk_offsets_;
  size_t stats_begin_ = 0;               ///< image offset of the table
  std::vector<uint32_t> stats_offsets_;  ///< column -> entry offset in it
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

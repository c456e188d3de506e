// Read side of the extended Dremel format: a streaming per-column chunk
// reader that parses each record's entries — using the delimiter state
// machine of §3.2.1 — into a small nested structure (ShredCell) that the
// record assembler consumes, plus batched record skipping used during LSM
// reconciliation (§4.4) and two vectorized decodes: NextEntryBatch, an
// entry span for the merge, and DecodeRecords/DecodeValues, a whole chunk
// split into records from its def-level runs, which pushed-down
// predicates and the compiled query engine (§5) index into.
//
// Point lookups reach one record with Seek: a chunk's seek index, built
// once by walking it (BuildSeekIndex), holds the reader's whole state —
// def stream run, value ordinal and value-stream state — at every
// kSeekStride-th record, so reaching record r restores the checkpoint at
// or before r and walks fewer than kSeekStride records.
//
// Delimiter disambiguation invariant (§3.2.1): while the
// innermost open array has (1-based) index k, element entries carry
// def >= d_k >= k, and the only delimiters a well-formed writer can emit
// are 0..k-1 — so `def <= open_k - 1` identifies a delimiter. The first
// entry of a record is always a value.

#ifndef LSMCOL_COLUMNAR_COLUMN_READER_H_
#define LSMCOL_COLUMNAR_COLUMN_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/encoding/delta.h"
#include "src/encoding/rle.h"
#include "src/encoding/strings.h"
#include "src/json/value.h"
#include "src/schema/schema.h"

namespace lsmcol {

class ColumnChunkWriter;

/// One structural position of one column within one record.
struct ShredCell {
  enum class Kind : uint8_t {
    kMissing,  ///< nothing at/below this position; def = deepest present
    kLeaf,     ///< a present value; value_index into ColumnRecord::values
    kList,     ///< an array instance; children are element positions
  };

  Kind kind = Kind::kMissing;
  int def = 0;
  int value_index = -1;
  std::vector<ShredCell> children;

  static ShredCell Missing(int def) {
    ShredCell c;
    c.kind = Kind::kMissing;
    c.def = def;
    return c;
  }
};

/// A column's contribution to one record: the nested parse plus the
/// decoded present values, in entry order.
struct ColumnRecord {
  ShredCell root;
  std::vector<Value> values;

  /// Anti-matter flag (meaningful for the PK column only).
  bool anti_matter = false;
};

/// A decoded span of column entries — the vectorized read path. Parallel
/// arrays: defs[i] is entry i's definition level, value_index[i] the index
/// of its payload inside the typed storage matching the column's type, or
/// -1 when the entry carries no value (NULL / delimiter). String slices
/// point into the chunk (zero-copy) and stay valid while it lives.
struct ColumnEntryBatch {
  std::vector<int> defs;
  std::vector<int32_t> value_index;
  std::vector<int64_t> ints;     ///< kInt64 values (and PK keys)
  std::vector<uint64_t> bools;   ///< kBoolean values (0/1)
  std::vector<double> doubles;   ///< kDouble values
  std::vector<Slice> strings;    ///< kString values

  size_t entry_count() const { return defs.size(); }
  void Clear() {
    defs.clear();
    value_index.clear();
    ints.clear();
    bools.clear();
    doubles.clear();
    strings.clear();
  }
};

/// Streaming reader over one encoded column chunk.
class ColumnChunkReader {
 public:
  ColumnChunkReader() = default;

  /// `chunk` must outlive the reader (string values are zero-copy).
  Status Init(Slice chunk, const ColumnInfo& info);

  const ColumnInfo& info() const { return info_; }

  /// Total entries in the chunk (records <= entries).
  size_t entry_count() const { return defs_.value_count(); }
  bool AtEnd() const { return entries_read_ >= entry_count(); }

  /// Parse the next record into *out (cleared first).
  Status NextRecord(ColumnRecord* out);

  /// Skip the next n records without materializing values (§4.4's batched
  /// iterator advance; value decoders still advance internally).
  Status SkipRecords(size_t n);

  /// Records between two seek-index checkpoints.
  static constexpr size_t kSeekStride = 64;

  /// Walk the whole chunk from where a fresh Init leaves the reader and
  /// write its seek index to *out (cleared first): a checkpoint before
  /// every kSeekStride-th record. Validates every entry it walks.
  Status BuildSeekIndex(Buffer* out);

  /// Position the reader at the start of record `record`, from the seek
  /// index BuildSeekIndex wrote for this same chunk: restores the nearest
  /// checkpoint at or before it, then skips fewer than kSeekStride
  /// records. Moves backwards as well as forwards. Like SkipRecords, it
  /// may land on the chunk's end, and returns OutOfRange past it.
  Status Seek(size_t record, Slice seek_index);

  /// Replay the next record's exact entry stream (def levels, delimiters,
  /// values) into a chunk writer — the per-column transfer of the vertical
  /// merge (§4.5.3). Decodes and re-encodes the values (the merge CPU cost
  /// the paper discusses).
  Status CopyRecordTo(ColumnChunkWriter* writer);

  /// Vectorized read: decode the next min(max_entries, remaining) entries
  /// (def levels plus every present value) into *out, cleared first.
  /// Invariants:
  ///  * consumes whole entries only — encoded runs crossing the batch
  ///    boundary are resumed by the next call;
  ///  * for columns with array ancestors a batch may end mid-record;
  ///    interleave with NextRecord/SkipRecords/CopyRecordTo only at
  ///    record boundaries (columns with array_count() == 0, including the
  ///    PK, have one entry per record, so any boundary is safe);
  ///  * returned string slices alias the chunk passed to Init.
  Status NextEntryBatch(size_t max_entries, ColumnEntryBatch* out);

  /// Whole-chunk read for column-native evaluation (§5): from a fresh
  /// Init, decodes every entry's def level into out->defs and
  /// out->value_index (out cleared first; typed values are left to
  /// DecodeValues) and splits the entries into records with the delimiter
  /// rule of NextRecord: record r spans entries [(*starts)[r],
  /// (*starts)[r + 1]), and starts->back() == entry_count(). *values is
  /// the number of present values.
  ///
  /// Def levels are read as the stream stores them (RleDecoder::
  /// VisitRuns), and an RLE run costs one step, not one per entry: a run
  /// of value entries steps the §3.2.1 state machine once, since a value
  /// entry leaves the open-array count where the run's first entry put
  /// it; delimiter runs and bit-packed entries step entry by entry.
  /// Corruption when the last record lacks its closing delimiter.
  Status DecodeRecords(ColumnEntryBatch* out, std::vector<uint32_t>* starts,
                       size_t* values);

  /// Decode the next n present values into out's typed storage for the
  /// column's type, resized to n (its other arrays are left as they are).
  /// Corruption when the chunk holds fewer. The value stream is apart
  /// from the def levels, so after a fresh Init this reads a chunk's
  /// values without decoding its def levels.
  Status DecodeValues(size_t n, ColumnEntryBatch* out);

 private:
  enum class ParseMode { kMaterialize, kSkip, kCopy };

  Status ParseRecordInto(ColumnRecord* out, ParseMode mode,
                         ColumnChunkWriter* writer);
  Status ReadValueInto(ColumnRecord* out);  // appends to out->values
  Status SkipValue();
  Status SkipValues(size_t n);  // batched typed-decoder advance
  Status TransferValue(ColumnChunkWriter* writer);
  /// Decodes the next n entries' def levels into out->defs and
  /// out->value_index (both resized to n), and calls on_run(def,
  /// first_entry, count) per stretch of equal def levels: once per RLE
  /// run, which is filled whole, and once per bit-packed entry. *values
  /// is the number of present values among the n entries.
  template <typename OnRun>
  Status DecodeDefRuns(size_t n, ColumnEntryBatch* out, size_t* values,
                       OnRun&& on_run);
  /// A checkpoint: the def stream's mark, then the value stream's.
  size_t MarkSize() const;
  void AppendMark(Buffer* out) const;
  Status RestoreMark(const char* mark);

  ColumnInfo info_;
  int max_delim_ = -1;  // array_count - 1; -1 when path has no arrays
  RleDecoder defs_;
  size_t entries_read_ = 0;

  // Typed value decoders (one active by type).
  DeltaInt64Decoder ints_;
  RleDecoder bools_;
  Slice doubles_input_;  // the plain doubles after their count
  BufferReader doubles_{Slice()};
  size_t doubles_count_ = 0;
  size_t doubles_remaining_ = 0;
  DeltaLengthStringDecoder strings_;
};

}  // namespace lsmcol

#endif  // LSMCOL_COLUMNAR_COLUMN_READER_H_

// Read side of the extended Dremel format: a streaming per-column chunk
// reader that parses each record's entries — using the delimiter state
// machine of §3.2.1 — into a small nested structure (ShredCell) that the
// record assembler consumes, plus batched record skipping used during LSM
// reconciliation (§4.4) and a vectorized entry decode that pushed-down
// predicates and the compiled query engine (§5) index into.
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

 private:
  enum class ParseMode { kMaterialize, kSkip, kCopy };

  Status ParseRecordInto(ColumnRecord* out, ParseMode mode,
                         ColumnChunkWriter* writer);
  Status ReadValueInto(ColumnRecord* out);  // appends to out->values
  Status SkipValue();
  Status SkipValues(size_t n);  // batched typed-decoder advance
  Status TransferValue(ColumnChunkWriter* writer);

  ColumnInfo info_;
  int max_delim_ = -1;  // array_count - 1; -1 when path has no arrays
  RleDecoder defs_;
  size_t entries_read_ = 0;

  // Typed value decoders (one active by type).
  DeltaInt64Decoder ints_;
  RleDecoder bools_;
  BufferReader doubles_{Slice()};
  size_t doubles_remaining_ = 0;
  DeltaLengthStringDecoder strings_;
};

/// Splits a chunk's def levels, decoded from its first entry on (e.g. by
/// one NextEntryBatch over the whole chunk), into records with the
/// delimiter rule of ColumnChunkReader::NextRecord: record r spans entries
/// [(*starts)[r], (*starts)[r + 1]), and starts->back() == defs.size().
/// Corruption when the last record lacks its closing delimiter.
Status RecordStarts(const ColumnInfo& info, const std::vector<int>& defs,
                    std::vector<uint32_t>* starts);

}  // namespace lsmcol

#endif  // LSMCOL_COLUMNAR_COLUMN_READER_H_

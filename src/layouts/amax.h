// AMAX mega leaf nodes (§4.3): each column's chunk becomes a "megapage"
// that can span multiple physical pages, so a query reads only the pages
// of the columns it needs.
//
// Mega leaf payload (offsets are payload-relative; Page 0 is the first
// physical page):
//   Page 0:
//     fixed32 record_count | fixed32 column_count |
//     fixed64 min_key | fixed64 max_key | fixed32 pk_chunk_size |
//     column table for columns 1..n-1:
//       fixed64 offset | fixed64 size | 8-byte min prefix | 8-byte max prefix
//     pk column chunk (encoded primary keys + anti-matter def levels)
//   (zero padding to the page boundary)
//   Megapages: columns ordered by size, largest first (§4.3). A column
//   shares the previous column's last physical page unless the leftover
//   space is within the empty-page tolerance, in which case it starts on a
//   fresh page boundary.
//
// String megapages are prefixed with their full (not truncated) min and
// max values, since 8-byte prefixes are not decisive for range filters.
//
// Readers reach a mega leaf through Component (its ColumnarLeaf handle):
// Page 0 is the leaf's head unit, parsed in place (AmaxPageZero::Parse)
// with its column table decoded one extent at a time; each megapage is a
// column unit (ParseAmaxMegapage); and the Page-0 prefixes are the
// column's zone map (Component::ColumnZone), tested by
// TypedPredicate::OverlapsZone.

#ifndef LSMCOL_LAYOUTS_AMAX_H_
#define LSMCOL_LAYOUTS_AMAX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/columnar/column_reader.h"
#include "src/columnar/column_writer.h"
#include "src/common/buffer.h"
#include "src/storage/component_file.h"

namespace lsmcol {

struct AmaxOptions {
  size_t page_size = kDefaultPageSize;
  bool compress = true;
  /// Max records per mega leaf ("Page 0 key limit", §4.5.2).
  size_t max_records = 15000;
  /// Fraction of a physical page allowed to stay empty so the next column
  /// can start page-aligned (§4.3).
  double empty_page_tolerance = 0.125;
};

/// Per-column extent within a mega leaf.
struct AmaxColumnExtent {
  uint64_t offset = 0;  ///< payload-relative byte offset
  uint64_t size = 0;    ///< bytes (0 = column has no chunk in this leaf)
  uint8_t min_prefix[8] = {0};
  uint8_t max_prefix[8] = {0};
};

/// Encode the accumulated chunks of `writers` as one mega leaf appended to
/// `out`. The writers are cleared.
Status EmitAmaxLeaf(ColumnWriterSet* writers, ComponentWriter* out,
                    const AmaxOptions& options);

/// Largest record count whose Page 0 (fixed header, 32-byte column-table
/// entries, ~3 bytes/record encoded-PK estimate) stays within one physical
/// page with 1/8 headroom. Shared by flush budgeting and merge output-leaf
/// sizing so both paths cut mega leaves identically.
size_t AmaxPage0RecordBudget(size_t page_size, size_t column_count);

/// Parsed Page 0 of a mega leaf. The column table is decoded one extent
/// at a time, on demand.
class AmaxPageZero {
 public:
  /// Parse `page0` in place, without copying it: pk_chunk() and the
  /// column table point into `page0`, which must outlive their use
  /// (readers pass a pinned buffer-cache unit). `page0` must hold at least
  /// the first physical page of the leaf.
  Status Parse(Slice page0);
  /// Parse a copy of `page0`'s header, column table and PK chunk: valid
  /// for the object's lifetime.
  Status Init(Slice page0);

  uint32_t record_count() const { return record_count_; }
  uint32_t column_count() const { return column_count_; }
  int64_t min_key() const { return min_key_; }
  int64_t max_key() const { return max_key_; }
  /// PK chunk bytes.
  Slice pk_chunk() const { return pk_chunk_; }
  /// Extent of column id >= 1; columns not yet discovered when the leaf
  /// was written report size 0.
  AmaxColumnExtent extent(int column_id) const;

 private:
  Buffer storage_;  // Init's copy
  uint32_t record_count_ = 0;
  uint32_t column_count_ = 0;
  int64_t min_key_ = 0;
  int64_t max_key_ = 0;
  Slice table_;  // 32 bytes per column 1..column_count_-1
  Slice pk_chunk_;
};

/// Decode a column megapage read from [extent.offset, extent.size): strips
/// the string min/max prefix when present and decompresses. Outputs the
/// raw chunk (feed to ColumnChunkReader::Init) and, for strings, the full
/// min/max values.
Status ParseAmaxMegapage(Slice raw, const ColumnInfo& info, bool compressed,
                         Buffer* chunk, std::string* min_value,
                         std::string* max_value);

}  // namespace lsmcol

#endif  // LSMCOL_LAYOUTS_AMAX_H_

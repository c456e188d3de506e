// Slotted leaf pages for the row-major layouts (Open and VB). A leaf holds
// sorted (key, anti-matter flag, row bytes) entries; the payload is LZ-
// compressed before it is appended to the component (page-level
// compression, §6). Reading a row leaf always reads the whole page —
// exactly the property the columnar layouts are designed to avoid.

#ifndef LSMCOL_LAYOUTS_ROW_LEAF_H_
#define LSMCOL_LAYOUTS_ROW_LEAF_H_

#include <cstdint>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/storage/component_file.h"

namespace lsmcol {

/// Builds row leaves and appends them to a component.
class RowLeafBuilder {
 public:
  RowLeafBuilder(ComponentWriter* out, size_t page_size, bool compress)
      : out_(out), page_size_(page_size), compress_(compress) {}

  /// Add one entry (keys must arrive in ascending order). Emits a leaf
  /// when the raw payload reaches the page size.
  Status Add(int64_t key, bool anti_matter, Slice row);

  /// Emit any pending leaf.
  Status Finish();

 private:
  Status EmitLeaf();

  ComponentWriter* out_;
  size_t page_size_;
  bool compress_;
  Buffer rows_;
  uint32_t count_ = 0;
  int64_t min_key_ = 0;
  int64_t max_key_ = 0;
};

/// Iterates the entries of one row leaf payload.
class RowLeafReader {
 public:
  /// `payload` is the decompressed leaf payload. It is read in place, so
  /// it must stay valid while the reader and its rows are in use.
  Status Init(Slice payload);

  uint32_t record_count() const { return count_; }
  bool AtEnd() const { return position_ >= count_; }

  /// Advance to the next entry; the row slice points into the payload.
  Status Next(int64_t* key, bool* anti_matter, Slice* row);

 private:
  BufferReader reader_{Slice()};
  uint32_t count_ = 0;
  uint32_t position_ = 0;
};

}  // namespace lsmcol

#endif  // LSMCOL_LAYOUTS_ROW_LEAF_H_

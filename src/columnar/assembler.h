// RecordAssembler: stitches per-column ColumnRecords back into a document
// Value (§3.2.4). Uses the delimiter-parsed nested cells from
// ColumnChunkReader instead of Dremel's repetition-level automaton; union
// positions are resolved by probing alternatives in order (§3.2.2's access
// procedure).

#ifndef LSMCOL_COLUMNAR_ASSEMBLER_H_
#define LSMCOL_COLUMNAR_ASSEMBLER_H_

#include <unordered_map>
#include <vector>

#include "src/columnar/column_reader.h"
#include "src/schema/schema.h"

namespace lsmcol {

/// Assembles records from shredded columns. Immutable once built (every
/// node's column list is computed up front), so one assembler serves any
/// number of threads.
class RecordAssembler {
 public:
  /// The schema must outlive the assembler and stay unchanged while it is
  /// used.
  explicit RecordAssembler(const Schema* schema);

  /// Assemble one record. `by_column` is indexed by column id; a nullptr
  /// entry means the column is absent in this component (all-missing).
  /// When `projection` is non-null, only the subtrees containing the given
  /// column ids are assembled (the column pruning the columnar layouts
  /// exist for); other fields are omitted from the result.
  ///
  /// Fields appear in schema (first-discovery) order, which may differ
  /// from the original record's field order.
  Value Assemble(const std::vector<const ColumnRecord*>& by_column,
                 const std::vector<bool>* projection = nullptr) const;

  /// Assemble only the value rooted at `node` (a path-resolved subtree
  /// that does not cross an array boundary — §3.2.2's partial access).
  Value AssembleSubtree(const SchemaNode& node,
                        const std::vector<const ColumnRecord*>& by_column) const;

 private:
  struct Slots;  // per-column current-position cells

  Value AssembleNode(const SchemaNode& node, const Slots& slots,
                     const std::vector<bool>* projection) const;
  /// The column ids under `node`.
  const std::vector<int>& ColumnsOf(const SchemaNode& node) const;
  /// Fill columns_ for `node` and its subtree.
  void IndexColumns(const SchemaNode& node);

  const Schema* schema_;
  std::unordered_map<const SchemaNode*, std::vector<int>> columns_;
};

}  // namespace lsmcol

#endif  // LSMCOL_COLUMNAR_ASSEMBLER_H_

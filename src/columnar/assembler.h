// Record assembly: stitches per-column ColumnRecords back into a document
// Value (§3.2.4). Uses the delimiter-parsed nested cells from
// ColumnChunkReader instead of Dremel's repetition-level automaton; union
// positions are resolved by probing alternatives in order (§3.2.2's access
// procedure).
//
// Assembly plans. A reader compiles what it reads once — a column mask (a
// scan's or lookup's projection) or a path-resolved schema node (the
// compiled engine's Path()) — into an AssemblyPlan: the schema subtree
// pruned to the nodes with a read column under them, each node carrying
// those column ids. Assembling a record walks the plan only and writes
// only the plan's columns into the reader's scratch, so a record costs the
// columns the read touches, not the schema's width (§3.2.2's partial
// access). RecordAssembler is a convenience wrapper that compiles plans on
// demand.

#ifndef LSMCOL_COLUMNAR_ASSEMBLER_H_
#define LSMCOL_COLUMNAR_ASSEMBLER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/columnar/column_reader.h"
#include "src/common/status.h"
#include "src/schema/schema.h"

namespace lsmcol {

/// A reader's reusable assembly state: the current cell of every column,
/// by column id. Grown once to the widest plan it serves; each assembly
/// writes only its own plan's columns. Not shared between threads.
class AssemblyScratch {
 private:
  friend class AssemblyPlan;
  std::vector<const ShredCell*> cells_;
  /// Array nodes save their columns' cells here while they iterate the
  /// elements (a stack: arrays nest).
  std::vector<const ShredCell*> saved_;
  /// Set when an array's columns disagree on its length.
  bool corrupt_ = false;
};

/// A compiled assembly: immutable once built, so one plan serves any
/// number of threads (each with its own scratch). Plans point into the
/// schema, which must outlive them and stay unchanged.
class AssemblyPlan {
 public:
  /// The whole record, limited to the columns `mask` selects (by column
  /// id; nullptr selects every column). Fields with no selected column
  /// under them are omitted.
  static AssemblyPlan ForRecord(const Schema& schema,
                                const std::vector<bool>* mask = nullptr);
  /// The value rooted at `node` (a path-resolved subtree), every column
  /// under it.
  static AssemblyPlan ForNode(const SchemaNode& node);

  /// The schema node the plan is rooted at.
  const SchemaNode* root() const { return nodes_[0].schema; }
  /// The column ids the plan reads, ascending.
  const std::vector<int>& columns() const { return columns_; }

  /// Assemble one value. `by_column[c]` must be set for every c in
  /// columns(); nullptr means the column is absent from the component
  /// (all-missing). A record plan yields an object (empty when nothing is
  /// present), a node plan Missing when the node is absent. Fields appear
  /// in schema (first-discovery) order, which may differ from the original
  /// record's field order. Corruption when the columns under one array
  /// disagree on its length.
  Status Assemble(const std::vector<const ColumnRecord*>& by_column,
                  AssemblyScratch* scratch, Value* out) const;

 private:
  /// One schema node with a planned column under it. Nodes are stored in
  /// preorder: a node's children follow it, and its subtree ends at `end`.
  struct Node {
    const SchemaNode* schema = nullptr;
    const std::string* name = nullptr;  // field name under an object
    uint32_t end = 0;
    /// The node's columns: leaf_columns_[first_column, end_column).
    uint32_t first_column = 0;
    uint32_t end_column = 0;
  };

  /// Append `node`'s plan (nothing when no selected column is under it).
  void Add(const SchemaNode& node, const std::string* name,
           const std::vector<bool>* mask);
  void Finish();
  Value AssembleNode(uint32_t index,
                     const std::vector<const ColumnRecord*>& by_column,
                     AssemblyScratch* scratch) const;

  std::vector<Node> nodes_;
  std::vector<int> leaf_columns_;  // column ids in preorder
  std::vector<int> columns_;       // the same, ascending
  bool record_ = false;
};

/// Assembles records from a by-column-id array of ColumnRecords, compiling
/// a plan for each projection it is given (kept until a different one
/// arrives). Not thread-safe; readers that assemble many records keep
/// their own AssemblyPlan and AssemblyScratch instead.
class RecordAssembler {
 public:
  /// The schema must outlive the assembler and stay unchanged while it is
  /// used.
  explicit RecordAssembler(const Schema* schema) : schema_(schema) {}

  /// Assemble one record. `by_column` is indexed by column id; a nullptr
  /// entry means the column is absent in this component (all-missing).
  /// When `projection` is non-null, only the subtrees containing the given
  /// column ids are assembled; other fields are omitted. Missing when the
  /// columns are inconsistent (see AssemblyPlan::Assemble).
  Value Assemble(const std::vector<const ColumnRecord*>& by_column,
                 const std::vector<bool>* projection = nullptr) const;

 private:
  const Schema* schema_;
  mutable std::optional<AssemblyPlan> plan_;
  mutable std::optional<std::vector<bool>> plan_mask_;  // nullopt: all
  mutable AssemblyScratch scratch_;
};

}  // namespace lsmcol

#endif  // LSMCOL_COLUMNAR_ASSEMBLER_H_

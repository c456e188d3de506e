// RecordShredder: the flush-time transformation of row-format records into
// extended-Dremel columns (§3.2, §4.5). Each Shred() call first extends
// the schema (tuple-compactor inference, §2.2) and then walks the record
// once, emitting (def, value) entries — with suppressed inner delimiters
// (§3.2.1) — into the per-column chunk writers. The walk follows the
// record's members, finding each one's schema field by name; the columns
// of a field the record lacks get their NULLs from the field's column
// list (SchemaNode::columns), without a walk of its subtree.

#ifndef LSMCOL_COLUMNAR_SHREDDER_H_
#define LSMCOL_COLUMNAR_SHREDDER_H_

#include <cstdint>
#include <vector>

#include "src/columnar/column_writer.h"
#include "src/schema/schema.h"

namespace lsmcol {

/// Walks records against the (growing) schema and feeds column writers.
class RecordShredder {
 public:
  /// Both pointers must outlive the shredder.
  RecordShredder(Schema* schema, ColumnWriterSet* writers)
      : schema_(schema), writers_(writers) {}

  /// Infer-and-shred one record. The record must carry an int64 primary
  /// key. Emits exactly one logical entry group per column.
  Status Shred(const Value& record);

  /// Emit an anti-matter entry for `key` (§3.2.3): the PK column stores
  /// the key at def 0; every other column stores a def-0 NULL.
  Status ShredAntiMatter(int64_t key);

 private:
  // Per-column transient state for the record being shredded.
  struct ColumnState {
    int pending_delim = -1;  // delimiter to emit before the next entry
    bool outer_open = false;  // outermost array entered this record
  };

  /// Emit a NULL entry at `def` for every column under `node`.
  void EmitNulls(const SchemaNode& node, int def);
  void EmitValue(const SchemaNode& leaf, const Value& v);
  void MaterializePending(int column_id);

  // `array_depth` counts the arrays around `node`.
  void WalkValue(const SchemaNode& node, const Value& v, int array_depth);
  void WalkObject(const SchemaNode& node, const Value& v, int array_depth);
  void WalkArray(const SchemaNode& array_node, const Value& v,
                 int array_depth);

  Schema* schema_;
  ColumnWriterSet* writers_;
  std::vector<ColumnState> states_;
  std::vector<int> touched_arrays_;  // columns whose outer array opened
  std::vector<uint8_t> seen_;  // WalkObject: fields met, per open object
};

}  // namespace lsmcol

#endif  // LSMCOL_COLUMNAR_SHREDDER_H_

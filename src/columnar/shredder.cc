#include "src/columnar/shredder.h"

namespace lsmcol {

void RecordShredder::MaterializePending(int column_id) {
  ColumnState& st = states_[column_id];
  if (st.pending_delim >= 0) {
    writers_->writer(column_id).AddDelimiter(st.pending_delim);
    st.pending_delim = -1;
  }
}

void RecordShredder::EmitNulls(const SchemaNode& node, int def) {
  for (const int column_id : node.columns()) {
    MaterializePending(column_id);
    writers_->writer(column_id).AddNull(def);
  }
}

void RecordShredder::EmitValue(const SchemaNode& leaf, const Value& v) {
  const int column_id = leaf.column_id();
  MaterializePending(column_id);
  ColumnChunkWriter& w = writers_->writer(column_id);
  switch (leaf.atomic_type()) {
    case AtomicType::kBoolean:
      w.AddBool(v.bool_value());
      break;
    case AtomicType::kInt64:
      // Also the PK: a present key at its def 1 is AddKey(key, false).
      w.AddInt64(v.int_value());
      break;
    case AtomicType::kDouble:
      w.AddDouble(v.double_value());
      break;
    case AtomicType::kString:
      w.AddString(Slice(v.string_value()));
      break;
  }
}

void RecordShredder::WalkObject(const SchemaNode& node, const Value& v,
                                int array_depth) {
  LSMCOL_DCHECK(v.is_object());
  const auto& fields = node.fields();
  // seen_ is a stack with one flag per field of each object being walked.
  const size_t base = seen_.size();
  seen_.resize(base + fields.size(), 0);
  int hint = 0;
  for (const auto& [name, field] : v.object()) {
    // Every non-null member has a field (the schema was merged first); the
    // first of duplicate names counts, as Value::Get finds it.
    const int i = node.FieldIndex(name, hint);
    if (i < 0 || seen_[base + static_cast<size_t>(i)] != 0) continue;
    hint = i + 1;
    seen_[base + static_cast<size_t>(i)] = 1;
    const SchemaNode& child = *fields[static_cast<size_t>(i)].second;
    if (field.is_null() || field.is_missing()) {
      EmitNulls(child, node.def_level());
    } else {
      WalkValue(child, field, array_depth);
    }
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (seen_[base + i] == 0) EmitNulls(*fields[i].second, node.def_level());
  }
  seen_.resize(base);
}

void RecordShredder::WalkArray(const SchemaNode& array_node, const Value& v,
                               int array_depth) {
  const SchemaNode* item = array_node.item();
  if (item == nullptr) {
    // The array has never held a (non-null) element anywhere in the
    // dataset: there are no columns under it, so its presence cannot be
    // recorded, and the record reads back without the field (a known
    // simplification).
    return;
  }
  const int array_def = array_node.def_level();

  // An outermost array is open until the record ends, which closes it
  // with delimiter 0.
  if (array_depth == 0) {
    for (const int column_id : array_node.columns()) {
      ColumnState& st = states_[column_id];
      if (!st.outer_open) {
        st.outer_open = true;
        touched_arrays_.push_back(column_id);
      }
    }
  }

  for (const Value& element : v.array()) {
    if (element.is_null() || element.is_missing()) {
      // A null element occupies a position: def = the array's level.
      EmitNulls(*item, array_def);
    } else {
      WalkValue(*item, element, array_depth + 1);
    }
  }
  if (v.array().empty()) {
    // Present-but-empty array: one entry at the array's level (§3.2.1 —
    // conflated with a single-null-element array at def granularity).
    EmitNulls(*item, array_def);
  }

  // Close this array instance: set the pending delimiter to the number of
  // arrays that remain open around it, its depth among each column's
  // array ancestors. Inner delimiters already pending are subsumed
  // (§3.2.1).
  for (const int column_id : array_node.columns()) {
    ColumnState& st = states_[column_id];
    if (st.pending_delim < 0 || array_depth < st.pending_delim) {
      st.pending_delim = array_depth;
    }
  }
}

void RecordShredder::WalkValue(const SchemaNode& node, const Value& v,
                                 int array_depth) {
  switch (node.kind()) {
    case SchemaNode::Kind::kUnion: {
      const SchemaNode* alt = node.FindAlternative(v);
      LSMCOL_CHECK(alt != nullptr);  // schema was merged first
      for (const auto& other : node.alternatives()) {
        if (other.get() != alt) {
          // The branch not taken is NULL at the union position's parent
          // (union nodes add no def level, §3.2.2).
          EmitNulls(*other, node.def_level() - 1);
        }
      }
      WalkValue(*alt, v, array_depth);
      break;
    }
    case SchemaNode::Kind::kObject:
      WalkObject(node, v, array_depth);
      break;
    case SchemaNode::Kind::kArray:
      LSMCOL_DCHECK(v.is_array());
      WalkArray(node, v, array_depth);
      break;
    case SchemaNode::Kind::kAtomic:
      EmitValue(node, v);
      break;
  }
}

Status RecordShredder::Shred(const Value& record) {
  LSMCOL_RETURN_NOT_OK(schema_->MergeRecord(record));
  writers_->SyncWithSchema();
  states_.resize(schema_->column_count());
  touched_arrays_.clear();

  // The record's members, the PK (column 0) among them.
  WalkObject(schema_->root(), record, 0);

  // Terminate open outer arrays with the record's closing delimiter 0.
  for (int column_id : touched_arrays_) {
    ColumnState& st = states_[column_id];
    st.pending_delim = -1;
    st.outer_open = false;
    writers_->writer(column_id).AddDelimiter(0);
  }
  writers_->NoteRecordComplete();
  return Status::OK();
}

Status RecordShredder::ShredAntiMatter(int64_t key) {
  writers_->SyncWithSchema();
  states_.resize(schema_->column_count());
  writers_->writer(0).AddKey(key, /*anti_matter=*/true);
  // Every other column, ascending after column 0, gets a def-0 NULL.
  const std::span<const int> columns = schema_->root().columns();
  for (size_t i = 1; i < columns.size(); ++i) {
    writers_->writer(columns[i]).AddNull(0);
  }
  writers_->NoteRecordComplete();
  return Status::OK();
}

}  // namespace lsmcol

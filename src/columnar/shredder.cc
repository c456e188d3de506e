#include "src/columnar/shredder.h"

namespace lsmcol {

void RecordShredder::MaterializePending(int column_id) {
  ColumnState& st = states_[column_id];
  if (st.pending_delim >= 0) {
    writers_->writer(column_id).AddDelimiter(st.pending_delim);
    st.pending_delim = -1;
  }
}

void RecordShredder::EmitNull(int column_id, int def) {
  MaterializePending(column_id);
  writers_->writer(column_id).AddNull(def);
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

void RecordShredder::FlushNulls(const SchemaNode& node, int def) {
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic:
      EmitNull(node.column_id(), def);
      break;
    case SchemaNode::Kind::kObject:
      for (const auto& [name, child] : node.fields()) FlushNulls(*child, def);
      break;
    case SchemaNode::Kind::kArray:
      if (node.item() != nullptr) FlushNulls(*node.item(), def);
      break;
    case SchemaNode::Kind::kUnion:
      for (const auto& alt : node.alternatives()) FlushNulls(*alt, def);
      break;
  }
}

void RecordShredder::WalkArray(const SchemaNode& array_node, const Value& v) {
  const SchemaNode* item = array_node.item();
  if (item == nullptr) {
    // The array has never held a (non-null) element anywhere in the
    // dataset: there are no columns under it, so its presence cannot be
    // recorded, and the record reads back without the field (a known
    // simplification).
    return;
  }
  const int array_def = array_node.def_level();

  // Mark outer arrays open (for the record-terminating delimiter) —
  // only when this array is the column's outermost.
  struct Marker {
    RecordShredder* self;
    int array_def;
    void Mark(const SchemaNode& n) {
      switch (n.kind()) {
        case SchemaNode::Kind::kAtomic: {
          const ColumnInfo& info =
              self->schema_->column(n.column_id());
          if (!info.array_defs.empty() && info.array_defs[0] == array_def) {
            ColumnState& st = self->states_[n.column_id()];
            if (!st.outer_open) {
              st.outer_open = true;
              self->touched_arrays_.push_back(n.column_id());
            }
          }
          break;
        }
        case SchemaNode::Kind::kObject:
          for (const auto& [name, child] : n.fields()) Mark(*child);
          break;
        case SchemaNode::Kind::kArray:
          if (n.item() != nullptr) Mark(*n.item());
          break;
        case SchemaNode::Kind::kUnion:
          for (const auto& alt : n.alternatives()) Mark(*alt);
          break;
      }
    }
  };
  Marker marker{this, array_def};
  marker.Mark(*item);

  size_t emitted = 0;
  for (const Value& element : v.array()) {
    if (element.is_null() || element.is_missing()) {
      // A null element occupies a position: def = the array's level.
      FlushNulls(*item, array_def);
    } else {
      WalkPresent(*item, element);
    }
    ++emitted;
  }
  if (emitted == 0) {
    // Present-but-empty array: one entry at the array's level (§3.2.1 —
    // conflated with a single-null-element array at def granularity).
    FlushNulls(*item, array_def);
  }

  // Close this array instance: set the pending delimiter to the number of
  // arrays that remain open (the 0-based index of this array among each
  // column's array ancestors). Inner delimiters already pending are
  // subsumed (§3.2.1).
  struct Closer {
    RecordShredder* self;
    int array_def;
    void Close(const SchemaNode& n) {
      switch (n.kind()) {
        case SchemaNode::Kind::kAtomic: {
          const ColumnInfo& info = self->schema_->column(n.column_id());
          int idx = -1;
          for (size_t i = 0; i < info.array_defs.size(); ++i) {
            if (info.array_defs[i] == array_def) {
              idx = static_cast<int>(i);
              break;
            }
          }
          LSMCOL_DCHECK(idx >= 0);
          ColumnState& st = self->states_[n.column_id()];
          if (st.pending_delim < 0 || idx < st.pending_delim) {
            st.pending_delim = idx;
          }
          break;
        }
        case SchemaNode::Kind::kObject:
          for (const auto& [name, child] : n.fields()) Close(*child);
          break;
        case SchemaNode::Kind::kArray:
          if (n.item() != nullptr) Close(*n.item());
          break;
        case SchemaNode::Kind::kUnion:
          for (const auto& alt : n.alternatives()) Close(*alt);
          break;
      }
    }
  };
  Closer closer{this, array_def};
  closer.Close(*item);
}

void RecordShredder::WalkPresent(const SchemaNode& node, const Value& v) {
  switch (node.kind()) {
    case SchemaNode::Kind::kUnion: {
      const SchemaNode* alt = node.FindAlternative(v);
      LSMCOL_CHECK(alt != nullptr);  // schema was merged first
      for (const auto& other : node.alternatives()) {
        if (other.get() != alt) {
          // The branch not taken is NULL at the union position's parent
          // (union nodes add no def level, §3.2.2).
          FlushNulls(*other, node.def_level() - 1);
        }
      }
      WalkPresent(*alt, v);
      break;
    }
    case SchemaNode::Kind::kObject: {
      LSMCOL_DCHECK(v.is_object());
      for (const auto& [name, child] : node.fields()) {
        const Value& fv = v.Get(name);
        if (fv.is_null() || fv.is_missing()) {
          FlushNulls(*child, node.def_level());
        } else {
          WalkPresent(*child, fv);
        }
      }
      break;
    }
    case SchemaNode::Kind::kArray:
      LSMCOL_DCHECK(v.is_array());
      WalkArray(node, v);
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

  const int64_t key = record.Get(schema_->pk_field()).int_value();
  for (const auto& [name, child] : schema_->root().fields()) {
    if (name == schema_->pk_field()) {
      writers_->writer(0).AddKey(key, /*anti_matter=*/false);
      continue;
    }
    const Value& fv = record.Get(name);
    if (fv.is_null() || fv.is_missing()) {
      FlushNulls(*child, 0);
    } else {
      WalkPresent(*child, fv);
    }
  }

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
  for (const auto& [name, child] : schema_->root().fields()) {
    if (name == schema_->pk_field()) {
      writers_->writer(0).AddKey(key, /*anti_matter=*/true);
    } else {
      FlushNulls(*child, 0);
    }
  }
  writers_->NoteRecordComplete();
  return Status::OK();
}

}  // namespace lsmcol

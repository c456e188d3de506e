#include "src/columnar/assembler.h"

#include <limits>

namespace lsmcol {

namespace {

/// Effective "present depth" of a cell: how deep the document is known to
/// be present at this position for this column.
int CellDepth(const ShredCell* cell) {
  if (cell == nullptr) return -1;
  switch (cell->kind) {
    case ShredCell::Kind::kLeaf:
    case ShredCell::Kind::kMissing:
      return cell->def;
    case ShredCell::Kind::kList:
      return std::numeric_limits<int>::max();  // array present here
  }
  return -1;
}

void CollectColumns(const SchemaNode& node, std::vector<int>* out) {
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic:
      out->push_back(node.column_id());
      break;
    case SchemaNode::Kind::kObject:
      for (const auto& [name, child] : node.fields()) {
        CollectColumns(*child, out);
      }
      break;
    case SchemaNode::Kind::kArray:
      if (node.item() != nullptr) CollectColumns(*node.item(), out);
      break;
    case SchemaNode::Kind::kUnion:
      for (const auto& alt : node.alternatives()) CollectColumns(*alt, out);
      break;
  }
}

}  // namespace

struct RecordAssembler::Slots {
  const std::vector<const ColumnRecord*>* records;  // by column id
  mutable std::vector<const ShredCell*> cells;      // current positions
};

const std::vector<int>& RecordAssembler::ColumnsOf(
    const SchemaNode& node) const {
  auto [it, inserted] = columns_.try_emplace(&node);
  if (inserted) CollectColumns(node, &it->second);
  return it->second;
}

Value RecordAssembler::AssembleNode(const SchemaNode& node, const Slots& slots,
                                    const std::vector<bool>* projection) const {
  const std::vector<int>& cols = ColumnsOf(node);
  if (projection != nullptr) {
    bool any = false;
    for (int c : cols) {
      if (static_cast<size_t>(c) < projection->size() && (*projection)[c]) {
        any = true;
        break;
      }
    }
    if (!any) return Value::Missing();
  }

  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic: {
      const ShredCell* cell = slots.cells[node.column_id()];
      if (cell == nullptr || cell->kind != ShredCell::Kind::kLeaf) {
        return Value::Missing();
      }
      const ColumnRecord* rec = (*slots.records)[node.column_id()];
      LSMCOL_DCHECK(rec != nullptr);
      LSMCOL_DCHECK(cell->value_index >= 0 &&
                    static_cast<size_t>(cell->value_index) <
                        rec->values.size());
      return rec->values[static_cast<size_t>(cell->value_index)];
    }

    case SchemaNode::Kind::kObject: {
      bool present = false;
      for (int c : cols) {
        if (CellDepth(slots.cells[c]) >= node.def_level()) {
          present = true;
          break;
        }
      }
      if (!present) return Value::Missing();
      Value obj = Value::MakeObject();
      for (const auto& [name, child] : node.fields()) {
        Value v = AssembleNode(*child, slots, projection);
        if (!v.is_missing()) obj.Set(name, std::move(v));
      }
      return obj;
    }

    case SchemaNode::Kind::kArray: {
      if (node.item() == nullptr) return Value::Missing();
      size_t n = 0;
      bool has_list = false;
      for (int c : cols) {
        const ShredCell* cell = slots.cells[c];
        if (cell != nullptr && cell->kind == ShredCell::Kind::kList) {
          if (has_list) {
            LSMCOL_DCHECK(cell->children.size() == n);
          }
          has_list = true;
          n = cell->children.size();
        }
      }
      if (!has_list) return Value::Missing();
      Value arr = Value::MakeArray();
      // Save current cells, advance per element, restore afterwards. The
      // saved cells are addressed by offset: nested arrays grow saved_.
      const size_t base = saved_.size();
      for (int c : cols) saved_.push_back(slots.cells[c]);
      size_t missing_elements = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < cols.size(); ++j) {
          const ShredCell* cell = saved_[base + j];
          if (cell != nullptr && cell->kind == ShredCell::Kind::kList) {
            slots.cells[cols[j]] = &cell->children[i];
          } else {
            slots.cells[cols[j]] = nullptr;
          }
        }
        Value element = AssembleNode(*node.item(), slots, projection);
        if (element.is_missing()) {
          ++missing_elements;
          arr.Push(Value::Null());
        } else {
          arr.Push(std::move(element));
        }
      }
      for (size_t j = 0; j < cols.size(); ++j) {
        slots.cells[cols[j]] = saved_[base + j];
      }
      saved_.resize(base);
      // A single all-missing element is the def-level-conflated encoding of
      // an empty array (§3.2.1; docs/ARCHITECTURE.md, "Preserved SQL++
      // semantics").
      if (n == 1 && missing_elements == 1) {
        arr.mutable_array().clear();
      }
      return arr;
    }

    case SchemaNode::Kind::kUnion: {
      // Probe alternatives in order; exactly one can be present (§3.2.2).
      for (const auto& alt : node.alternatives()) {
        Value v = AssembleNode(*alt, slots, projection);
        if (!v.is_missing()) return v;
      }
      return Value::Missing();
    }
  }
  return Value::Missing();
}

Value RecordAssembler::AssembleSubtree(
    const SchemaNode& node,
    const std::vector<const ColumnRecord*>& by_column) const {
  Slots slots;
  slots.records = &by_column;
  slots.cells.resize(by_column.size(), nullptr);
  for (size_t i = 0; i < by_column.size(); ++i) {
    if (by_column[i] != nullptr) slots.cells[i] = &by_column[i]->root;
  }
  return AssembleNode(node, slots, nullptr);
}

Value RecordAssembler::Assemble(
    const std::vector<const ColumnRecord*>& by_column,
    const std::vector<bool>* projection) const {
  Slots slots;
  slots.records = &by_column;
  slots.cells.resize(by_column.size(), nullptr);
  for (size_t i = 0; i < by_column.size(); ++i) {
    if (by_column[i] != nullptr) slots.cells[i] = &by_column[i]->root;
  }
  Value record = AssembleNode(schema_->root(), slots, projection);
  if (record.is_missing()) record = Value::MakeObject();
  return record;
}

}  // namespace lsmcol

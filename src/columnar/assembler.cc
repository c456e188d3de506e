#include "src/columnar/assembler.h"

#include <algorithm>
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

}  // namespace

AssemblyPlan AssemblyPlan::ForRecord(const Schema& schema,
                                     const std::vector<bool>* mask) {
  AssemblyPlan plan;
  plan.record_ = true;
  plan.Add(schema.root(), nullptr, mask);
  plan.Finish();
  return plan;
}

AssemblyPlan AssemblyPlan::ForNode(const SchemaNode& node) {
  AssemblyPlan plan;
  plan.Add(node, nullptr, nullptr);
  plan.Finish();
  return plan;
}

void AssemblyPlan::Add(const SchemaNode& node, const std::string* name,
                       const std::vector<bool>* mask) {
  const auto index = static_cast<uint32_t>(nodes_.size());
  const auto first_column = static_cast<uint32_t>(leaf_columns_.size());
  nodes_.push_back(Node{&node, name, 0, first_column, 0});
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic: {
      const auto c = static_cast<size_t>(node.column_id());
      if (mask == nullptr || (c < mask->size() && (*mask)[c])) {
        leaf_columns_.push_back(node.column_id());
      }
      break;
    }
    case SchemaNode::Kind::kObject:
      for (const auto& [field, child] : node.fields()) {
        Add(*child, &field, mask);
      }
      break;
    case SchemaNode::Kind::kArray:
      if (node.item() != nullptr) Add(*node.item(), nullptr, mask);
      break;
    case SchemaNode::Kind::kUnion:
      for (const auto& alt : node.alternatives()) Add(*alt, nullptr, mask);
      break;
  }
  if (index != 0 && leaf_columns_.size() == first_column) {
    nodes_.resize(index);  // nothing read under it: pruned
    return;
  }
  nodes_[index].end = static_cast<uint32_t>(nodes_.size());
  nodes_[index].end_column = static_cast<uint32_t>(leaf_columns_.size());
}

void AssemblyPlan::Finish() {
  columns_ = leaf_columns_;
  std::sort(columns_.begin(), columns_.end());
}

Status AssemblyPlan::Assemble(const std::vector<const ColumnRecord*>& by_column,
                              AssemblyScratch* scratch, Value* out) const {
  if (!columns_.empty()) {
    const auto width = static_cast<size_t>(columns_.back()) + 1;
    LSMCOL_DCHECK(by_column.size() >= width);
    if (scratch->cells_.size() < width) scratch->cells_.resize(width);
  }
  for (int c : leaf_columns_) {
    const ColumnRecord* rec = by_column[static_cast<size_t>(c)];
    scratch->cells_[static_cast<size_t>(c)] =
        rec == nullptr ? nullptr : &rec->root;
  }
  scratch->corrupt_ = false;
  Value value = AssembleNode(0, by_column, scratch);
  if (scratch->corrupt_) {
    return Status::Corruption(
        "the columns under an array disagree on its length");
  }
  if (record_ && value.is_missing()) value = Value::MakeObject();
  *out = std::move(value);
  return Status::OK();
}

Value AssemblyPlan::AssembleNode(
    uint32_t index, const std::vector<const ColumnRecord*>& by_column,
    AssemblyScratch* scratch) const {
  const Node& node = nodes_[index];
  const SchemaNode& schema = *node.schema;
  std::vector<const ShredCell*>& cells = scratch->cells_;
  switch (schema.kind()) {
    case SchemaNode::Kind::kAtomic: {
      const auto c = static_cast<size_t>(schema.column_id());
      const ShredCell* cell = cells[c];
      if (cell == nullptr || cell->kind != ShredCell::Kind::kLeaf) {
        return Value::Missing();
      }
      const ColumnRecord* rec = by_column[c];
      LSMCOL_DCHECK(rec != nullptr);
      LSMCOL_DCHECK(cell->value_index >= 0 &&
                    static_cast<size_t>(cell->value_index) <
                        rec->values.size());
      return rec->values[static_cast<size_t>(cell->value_index)];
    }

    case SchemaNode::Kind::kObject: {
      bool present = false;
      for (uint32_t i = node.first_column; i < node.end_column; ++i) {
        if (CellDepth(cells[static_cast<size_t>(leaf_columns_[i])]) >=
            schema.def_level()) {
          present = true;
          break;
        }
      }
      if (!present) return Value::Missing();
      Value obj = Value::MakeObject();
      for (uint32_t child = index + 1; child < node.end;
           child = nodes_[child].end) {
        Value v = AssembleNode(child, by_column, scratch);
        // Schema field names are unique: append without a lookup.
        if (!v.is_missing()) {
          obj.mutable_object().emplace_back(*nodes_[child].name, std::move(v));
        }
      }
      return obj;
    }

    case SchemaNode::Kind::kArray: {
      if (index + 1 == node.end) return Value::Missing();  // no item yet
      // Every list cell under the array must agree on its length: a
      // mismatch indexes past a shorter list or drops elements.
      size_t n = 0;
      bool has_list = false;
      for (uint32_t i = node.first_column; i < node.end_column; ++i) {
        const ShredCell* cell = cells[static_cast<size_t>(leaf_columns_[i])];
        if (cell == nullptr || cell->kind != ShredCell::Kind::kList) continue;
        if (!has_list) {
          n = cell->children.size();
          has_list = true;
        } else if (cell->children.size() != n) {
          scratch->corrupt_ = true;
          return Value::Missing();
        }
      }
      if (!has_list) return Value::Missing();
      Value arr = Value::MakeArray();
      // Save current cells, advance per element, restore afterwards. The
      // saved cells are addressed by offset: nested arrays grow the stack.
      std::vector<const ShredCell*>& saved = scratch->saved_;
      const size_t base = saved.size();
      for (uint32_t i = node.first_column; i < node.end_column; ++i) {
        saved.push_back(cells[static_cast<size_t>(leaf_columns_[i])]);
      }
      size_t missing_elements = 0;
      for (size_t e = 0; e < n && !scratch->corrupt_; ++e) {
        for (uint32_t i = node.first_column; i < node.end_column; ++i) {
          const ShredCell* cell = saved[base + (i - node.first_column)];
          cells[static_cast<size_t>(leaf_columns_[i])] =
              cell != nullptr && cell->kind == ShredCell::Kind::kList
                  ? &cell->children[e]
                  : nullptr;
        }
        Value element = AssembleNode(index + 1, by_column, scratch);
        if (element.is_missing()) {
          ++missing_elements;
          arr.Push(Value::Null());
        } else {
          arr.Push(std::move(element));
        }
      }
      for (uint32_t i = node.first_column; i < node.end_column; ++i) {
        cells[static_cast<size_t>(leaf_columns_[i])] =
            saved[base + (i - node.first_column)];
      }
      saved.resize(base);
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
      for (uint32_t child = index + 1; child < node.end;
           child = nodes_[child].end) {
        Value v = AssembleNode(child, by_column, scratch);
        if (!v.is_missing()) return v;
      }
      return Value::Missing();
    }
  }
  return Value::Missing();
}

Value RecordAssembler::Assemble(
    const std::vector<const ColumnRecord*>& by_column,
    const std::vector<bool>* projection) const {
  const bool same_plan =
      plan_.has_value() &&
      (projection == nullptr ? !plan_mask_.has_value()
                             : plan_mask_.has_value() &&
                                   *plan_mask_ == *projection);
  if (!same_plan) {
    plan_.emplace(AssemblyPlan::ForRecord(*schema_, projection));
    plan_mask_.reset();
    if (projection != nullptr) plan_mask_.emplace(*projection);
  }
  Value record;
  if (!plan_->Assemble(by_column, &scratch_, &record).ok()) {
    return Value::Missing();
  }
  return record;
}

}  // namespace lsmcol

#include "src/schema/schema.h"

#include <algorithm>
#include <functional>

namespace lsmcol {

const char* AtomicTypeName(AtomicType t) {
  switch (t) {
    case AtomicType::kBoolean:
      return "boolean";
    case AtomicType::kInt64:
      return "int64";
    case AtomicType::kDouble:
      return "double";
    case AtomicType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

/// Atomic type of an atomic Value (caller guarantees v is atomic non-null).
AtomicType AtomicTypeOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kBool:
      return AtomicType::kBoolean;
    case ValueType::kInt64:
      return AtomicType::kInt64;
    case ValueType::kDouble:
      return AtomicType::kDouble;
    case ValueType::kString:
      return AtomicType::kString;
    default:
      LSMCOL_CHECK(false);
      return AtomicType::kInt64;
  }
}

bool IsAtomicValue(const Value& v) {
  return v.is_bool() || v.is_int() || v.is_double() || v.is_string();
}

}  // namespace

int SchemaNode::LookupField(std::string_view name) const {
  if (field_slots_.empty()) return -1;
  const size_t mask = field_slots_.size() - 1;
  for (size_t slot = std::hash<std::string_view>{}(name) & mask;;
       slot = (slot + 1) & mask) {
    const int i = field_slots_[slot];
    if (i < 0 || fields_[static_cast<size_t>(i)].first == name) return i;
  }
}

void SchemaNode::IndexField(int index) {
  const size_t mask = field_slots_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(
                    fields_[static_cast<size_t>(index)].first) &
                mask;
  while (field_slots_[slot] >= 0) slot = (slot + 1) & mask;
  field_slots_[slot] = index;
}

int SchemaNode::AddField(std::string_view name) {
  const int index = static_cast<int>(fields_.size());
  fields_.emplace_back(std::string(name), nullptr);
  if (2 * fields_.size() <= field_slots_.size()) {
    IndexField(index);
    return index;
  }
  // Grow to a quarter full, re-adding the fields in order.
  size_t size = 8;
  while (size < 4 * fields_.size()) size *= 2;
  field_slots_.assign(size, -1);
  for (int i = 0; i <= index; ++i) IndexField(i);
  return index;
}

const SchemaNode* SchemaNode::FindAlternative(const Value& v) const {
  for (const auto& alt : alternatives_) {
    if (v.is_object() && alt->is_object()) return alt.get();
    if (v.is_array() && alt->is_array()) return alt.get();
    if (IsAtomicValue(v) && alt->is_atomic() &&
        alt->atomic_type() == AtomicTypeOf(v)) {
      return alt.get();
    }
  }
  return nullptr;
}

bool Schema::Matches(const SchemaNode& node, const Value& v) {
  switch (node.kind()) {
    case SchemaNode::Kind::kObject:
      return v.is_object();
    case SchemaNode::Kind::kArray:
      return v.is_array();
    case SchemaNode::Kind::kAtomic:
      return IsAtomicValue(v) && node.atomic_type() == AtomicTypeOf(v);
    case SchemaNode::Kind::kUnion:
      return true;  // a union absorbs any value by adding alternatives
  }
  return false;
}

Schema::Schema(std::string pk_field) : pk_field_(std::move(pk_field)) {
  root_ = std::make_unique<SchemaNode>(SchemaNode::Kind::kObject, 0);
  // Column 0: the primary key. Its max def level is 1 (not 0): def 0 marks
  // anti-matter, def 1 a live record (§3.2.3).
  auto pk_node = std::make_unique<SchemaNode>(SchemaNode::Kind::kAtomic, 1);
  pk_node->atomic_type_ = AtomicType::kInt64;
  pk_node->column_id_ = 0;
  root_->fields_[root_->AddField(pk_field_)].second = std::move(pk_node);
  root_->subtree_columns_.push_back(0);
  ColumnInfo pk;
  pk.id = 0;
  pk.type = AtomicType::kInt64;
  pk.max_def = 1;
  pk.path = pk_field_;
  pk.is_pk = true;
  columns_.push_back(std::move(pk));
}

int Schema::RegisterColumn(AtomicType type, int max_def) {
  ColumnInfo info;
  info.id = static_cast<int>(columns_.size());
  info.type = type;
  info.max_def = max_def;
  info.array_defs = array_defs_;
  info.path = path_;
  columns_.push_back(std::move(info));
  const int id = columns_.back().id;
  for (SchemaNode* ancestor : ancestors_) {
    ancestor->subtree_columns_.push_back(id);
  }
  return id;
}

std::unique_ptr<SchemaNode> Schema::CreateNodeFor(const Value& v,
                                                  int def_level) {
  std::unique_ptr<SchemaNode> node;
  if (v.is_object()) {
    node = std::make_unique<SchemaNode>(SchemaNode::Kind::kObject, def_level);
  } else if (v.is_array()) {
    node = std::make_unique<SchemaNode>(SchemaNode::Kind::kArray, def_level);
  } else {
    LSMCOL_DCHECK(IsAtomicValue(v));
    node = std::make_unique<SchemaNode>(SchemaNode::Kind::kAtomic, def_level);
    node->atomic_type_ = AtomicTypeOf(v);
    node->column_id_ = RegisterColumn(node->atomic_type_, def_level);
  }
  return node;
}

std::unique_ptr<SchemaNode> Schema::CreateAlternative(const Value& v,
                                                      int def_level) {
  const size_t path_size = path_.size();
  path_ += '<';
  path_ += v.is_object()  ? "object"
           : v.is_array() ? "array"
                          : AtomicTypeName(AtomicTypeOf(v));
  path_ += '>';
  std::unique_ptr<SchemaNode> alt = CreateNodeFor(v, def_level);
  path_.resize(path_size);
  return alt;
}

void Schema::MergeSlot(std::unique_ptr<SchemaNode>* slot, const Value& v,
                       int def_level) {
  LSMCOL_DCHECK(!v.is_null() && !v.is_missing());
  if (*slot == nullptr) {
    *slot = CreateNodeFor(v, def_level);
    MergeChildren(slot->get(), v);
    return;
  }
  SchemaNode* node = slot->get();
  if (node->is_union()) {
    auto* alt = const_cast<SchemaNode*>(node->FindAlternative(v));
    ancestors_.push_back(node);
    if (alt == nullptr) {
      node->alternatives_.push_back(CreateAlternative(v, def_level));
      alt = node->alternatives_.back().get();
    }
    MergeChildren(alt, v);
    ancestors_.pop_back();
    return;
  }
  if (Matches(*node, v)) {
    MergeChildren(node, v);
    return;
  }
  // Type conflict: promote the slot to a union of {existing, new}
  // (§3.2.2). The union sits at the same def level; existing columns are
  // untouched.
  auto union_node =
      std::make_unique<SchemaNode>(SchemaNode::Kind::kUnion, def_level);
  union_node->subtree_columns_.assign(node->columns().begin(),
                                      node->columns().end());
  union_node->alternatives_.push_back(std::move(*slot));
  SchemaNode* const promoted = union_node.get();
  *slot = std::move(union_node);
  ancestors_.push_back(promoted);
  promoted->alternatives_.push_back(CreateAlternative(v, def_level));
  MergeChildren(promoted->alternatives_.back().get(), v);
  ancestors_.pop_back();
}

void Schema::MergeChildren(SchemaNode* node, const Value& v) {
  if (node->is_atomic()) return;
  const size_t path_size = path_.size();
  ancestors_.push_back(node);
  if (node->is_object()) {
    LSMCOL_DCHECK(v.is_object());
    const bool root = node == root_.get();
    int hint = 0;
    for (const auto& [name, value] : v.object()) {
      if (value.is_null() || value.is_missing()) continue;
      if (root && name == pk_field_) continue;  // column 0, fixed type
      int i = node->FieldIndex(name, hint);
      if (i < 0) i = node->AddField(name);
      hint = i + 1;
      if (!root) path_ += '.';
      path_ += name;
      MergeSlot(&node->fields_[static_cast<size_t>(i)].second, value,
                node->def_level() + 1);
      path_.resize(path_size);
    }
  } else {
    LSMCOL_DCHECK(node->is_array() && v.is_array());
    array_defs_.push_back(node->def_level());
    path_ += "[*]";
    for (const Value& element : v.array()) {
      if (element.is_null() || element.is_missing()) continue;
      MergeSlot(&node->item_, element, node->def_level() + 1);
    }
    path_.resize(path_size);
    array_defs_.pop_back();
  }
  ancestors_.pop_back();
}

Status Schema::MergeRecord(const Value& record) {
  if (!record.is_object()) {
    return Status::InvalidArgument("record must be an object");
  }
  const Value& pk = record.Get(pk_field_);
  if (!pk.is_int()) {
    return Status::InvalidArgument("record primary key '" + pk_field_ +
                                   "' must be an int64");
  }
  MergeChildren(root_.get(), record);
  ++merged_record_count_;
  return Status::OK();
}

// --- Serialization ---
//
// Node wire format: byte kind, varint def_level, then kind-specific:
//   atomic: byte type, varint column_id
//   object: varint field_count, (len-prefixed name, node)*
//   array:  byte has_item, [node]
//   union:  varint alt_count, node*

void Schema::SerializeNode(const SchemaNode& node, Buffer* out) const {
  out->AppendByte(static_cast<uint8_t>(node.kind()));
  out->AppendVarint64(static_cast<uint64_t>(node.def_level()));
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic:
      out->AppendByte(static_cast<uint8_t>(node.atomic_type()));
      out->AppendVarint64(static_cast<uint64_t>(node.column_id()));
      break;
    case SchemaNode::Kind::kObject:
      out->AppendVarint64(node.fields().size());
      for (const auto& [name, child] : node.fields()) {
        out->AppendLengthPrefixed(Slice(name));
        SerializeNode(*child, out);
      }
      break;
    case SchemaNode::Kind::kArray:
      out->AppendByte(node.item() != nullptr ? 1 : 0);
      if (node.item() != nullptr) SerializeNode(*node.item(), out);
      break;
    case SchemaNode::Kind::kUnion:
      out->AppendVarint64(node.alternatives().size());
      for (const auto& alt : node.alternatives()) SerializeNode(*alt, out);
      break;
  }
}

void Schema::SerializeTo(Buffer* out) const {
  out->AppendLengthPrefixed(Slice(pk_field_));
  out->AppendVarint64(merged_record_count_);
  SerializeNode(*root_, out);
}

Status Schema::DeserializeNode(BufferReader* reader,
                               std::unique_ptr<SchemaNode>* out) {
  uint8_t kind_byte = 0;
  LSMCOL_RETURN_NOT_OK(reader->ReadByte(&kind_byte));
  if (kind_byte > 3) return Status::Corruption("bad schema node kind");
  auto kind = static_cast<SchemaNode::Kind>(kind_byte);
  uint64_t def_level = 0;
  LSMCOL_RETURN_NOT_OK(reader->ReadVarint64(&def_level));
  auto node = std::make_unique<SchemaNode>(kind, static_cast<int>(def_level));
  switch (kind) {
    case SchemaNode::Kind::kAtomic: {
      uint8_t type_byte = 0;
      LSMCOL_RETURN_NOT_OK(reader->ReadByte(&type_byte));
      if (type_byte > 3) return Status::Corruption("bad atomic type");
      node->atomic_type_ = static_cast<AtomicType>(type_byte);
      uint64_t column_id = 0;
      LSMCOL_RETURN_NOT_OK(reader->ReadVarint64(&column_id));
      node->column_id_ = static_cast<int>(column_id);
      break;
    }
    case SchemaNode::Kind::kObject: {
      uint64_t field_count = 0;
      LSMCOL_RETURN_NOT_OK(reader->ReadVarint64(&field_count));
      for (uint64_t i = 0; i < field_count; ++i) {
        Slice name;
        LSMCOL_RETURN_NOT_OK(reader->ReadLengthPrefixed(&name));
        std::unique_ptr<SchemaNode> child;
        LSMCOL_RETURN_NOT_OK(DeserializeNode(reader, &child));
        // A duplicate name keeps its first child reachable by name, as
        // a linear search would.
        node->fields_[node->AddField(name.view())].second = std::move(child);
      }
      break;
    }
    case SchemaNode::Kind::kArray: {
      uint8_t has_item = 0;
      LSMCOL_RETURN_NOT_OK(reader->ReadByte(&has_item));
      if (has_item) {
        LSMCOL_RETURN_NOT_OK(DeserializeNode(reader, &node->item_));
      }
      break;
    }
    case SchemaNode::Kind::kUnion: {
      uint64_t alt_count = 0;
      LSMCOL_RETURN_NOT_OK(reader->ReadVarint64(&alt_count));
      for (uint64_t i = 0; i < alt_count; ++i) {
        std::unique_ptr<SchemaNode> alt;
        LSMCOL_RETURN_NOT_OK(DeserializeNode(reader, &alt));
        node->alternatives_.push_back(std::move(alt));
      }
      break;
    }
  }
  *out = std::move(node);
  return Status::OK();
}

void Schema::RebuildColumnRegistry(const SchemaNode& node,
                                   const std::string& path,
                                   std::vector<int>* array_defs, bool is_pk) {
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic: {
      const int id = node.column_id();
      LSMCOL_CHECK(id >= 0);
      if (static_cast<size_t>(id) >= columns_.size()) {
        columns_.resize(id + 1);
      }
      ColumnInfo& info = columns_[id];
      info.id = id;
      info.type = node.atomic_type();
      info.max_def = node.def_level();
      info.array_defs = *array_defs;
      info.path = path;
      info.is_pk = is_pk;
      break;
    }
    case SchemaNode::Kind::kObject:
      for (const auto& [name, child] : node.fields()) {
        const std::string child_path =
            path.empty() ? name : path + "." + name;
        RebuildColumnRegistry(*child, child_path, array_defs,
                              path.empty() && name == pk_field_);
      }
      break;
    case SchemaNode::Kind::kArray:
      if (node.item() != nullptr) {
        array_defs->push_back(node.def_level());
        RebuildColumnRegistry(*node.item(), path + "[*]", array_defs, false);
        array_defs->pop_back();
      }
      break;
    case SchemaNode::Kind::kUnion:
      for (const auto& alt : node.alternatives()) {
        RebuildColumnRegistry(*alt, path, array_defs, false);
      }
      break;
  }
}

Result<Schema> Schema::Deserialize(Slice input) {
  BufferReader reader(input);
  Slice pk_field;
  LSMCOL_RETURN_NOT_OK(reader.ReadLengthPrefixed(&pk_field));
  uint64_t merged = 0;
  LSMCOL_RETURN_NOT_OK(reader.ReadVarint64(&merged));
  Schema schema(pk_field.ToString());
  schema.merged_record_count_ = merged;
  std::unique_ptr<SchemaNode> root;
  LSMCOL_RETURN_NOT_OK(DeserializeNode(&reader, &root));
  if (!root->is_object()) return Status::Corruption("schema root not object");
  schema.root_ = std::move(root);
  schema.columns_.clear();
  std::vector<int> array_defs;
  schema.RebuildColumnRegistry(*schema.root_, "", &array_defs, false);
  if (schema.columns_.empty() || !schema.columns_[0].is_pk) {
    return Status::Corruption("deserialized schema lacks pk column 0");
  }
  // The PK column keeps its special def semantics.
  schema.columns_[0].max_def = 1;
  CollectColumns(schema.root_.get());
  return schema;
}

void Schema::CollectColumns(SchemaNode* node) {
  if (node->is_atomic()) return;
  std::vector<int>& columns = node->subtree_columns_;
  columns.clear();
  auto take = [&columns](SchemaNode* child) {
    CollectColumns(child);
    columns.insert(columns.end(), child->columns().begin(),
                   child->columns().end());
  };
  if (node->is_object()) {
    for (auto& [name, child] : node->fields_) take(child.get());
  } else if (node->is_array()) {
    if (node->item_ != nullptr) take(node->item_.get());
  } else {
    for (auto& alt : node->alternatives_) take(alt.get());
  }
  std::sort(columns.begin(), columns.end());
}

const SchemaNode* Schema::ResolvePath(
    const std::vector<std::string>& steps) const {
  const SchemaNode* node = root_.get();
  for (const auto& step : steps) {
    // Implicitly descend through arrays and unions to reach an object that
    // can hold the field.
    while (node != nullptr && !node->is_object()) {
      if (node->is_array()) {
        node = node->item();
      } else if (node->is_union()) {
        const SchemaNode* object_alt = nullptr;
        for (const auto& alt : node->alternatives()) {
          if (alt->is_object()) {
            object_alt = alt.get();
            break;
          }
        }
        node = object_alt;
      } else {
        return nullptr;  // atomic cannot hold a field
      }
    }
    if (node == nullptr) return nullptr;
    node = node->FindField(step);
    if (node == nullptr) return nullptr;
  }
  return node;
}

std::vector<int> Schema::ColumnsUnder(const SchemaNode* node) {
  if (node == nullptr) return {};
  return std::vector<int>(node->columns().begin(), node->columns().end());
}

namespace {

void DumpNode(const SchemaNode& node, const std::string& name, int indent,
              std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (!name.empty()) {
    *out += name;
    *out += ": ";
  }
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic:
      *out += AtomicTypeName(node.atomic_type());
      *out += " (col ";
      *out += std::to_string(node.column_id());
      *out += ", def ";
      *out += std::to_string(node.def_level());
      *out += ")\n";
      break;
    case SchemaNode::Kind::kObject:
      *out += "object\n";
      for (const auto& [field_name, child] : node.fields()) {
        DumpNode(*child, field_name, indent + 1, out);
      }
      break;
    case SchemaNode::Kind::kArray:
      *out += "array\n";
      if (node.item() != nullptr) DumpNode(*node.item(), "[*]", indent + 1, out);
      break;
    case SchemaNode::Kind::kUnion:
      *out += "union\n";
      for (const auto& alt : node.alternatives()) {
        DumpNode(*alt, "|", indent + 1, out);
      }
      break;
  }
}

}  // namespace

std::string Schema::ToString() const {
  std::string out;
  DumpNode(*root_, "", 0, &out);
  return out;
}

}  // namespace lsmcol

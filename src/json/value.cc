#include "src/json/value.h"

namespace lsmcol {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kMissing:
      return "missing";
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "boolean";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kArray:
      return "array";
    case ValueType::kObject:
      return "object";
  }
  return "unknown";
}

const Value& MissingValue() {
  static const Value* kMissing = new Value();
  return *kMissing;
}

void Value::Set(std::string key, Value v) {
  Object& obj = mutable_object();
  for (Member& m : obj) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
}

const Value& Value::Get(std::string_view key) const {
  if (!is_object()) return MissingValue();
  for (const Member& m : object()) {
    if (m.first == key) return m.second;
  }
  return MissingValue();
}

bool Value::Equals(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kMissing:
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return bool_value() == other.bool_value();
    case ValueType::kInt64:
      return int_value() == other.int_value();
    case ValueType::kDouble:
      return double_value() == other.double_value();
    case ValueType::kString:
      return string_value() == other.string_value();
    case ValueType::kArray: {
      const Array& a = array();
      const Array& b = other.array();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].Equals(b[i])) return false;
      }
      return true;
    }
    case ValueType::kObject: {
      const Object& a = object();
      const Object& b = other.object();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first) return false;
        if (!a[i].second.Equals(b[i].second)) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {

/// Follows object steps from path[*step] without copying. Stops at an
/// array that a remaining step meets (*step names that step), or returns
/// Missing where a step finds no field or meets an atom.
const Value* Descend(const Value& root, const std::vector<std::string>& path,
                     size_t* step) {
  const Value* v = &root;
  for (; *step < path.size(); ++*step) {
    if (v->is_array()) return v;
    v = &v->Get(path[*step]);  // Missing for an absent field or an atom
    if (v->is_missing()) return v;
  }
  return v;
}

/// Maps path[step..] over the elements of `array`, dropping missing
/// results; an element that is itself an array is mapped over in turn.
void StepValueInto(const Value& array, const std::vector<std::string>& path,
                   size_t step, Value* out) {
  *out = Value::MakeArray();
  for (const Value& element : array.array()) {
    size_t i = step;
    const Value* v = Descend(element, path, &i);
    if (i < path.size() && v->is_array()) {
      Value mapped;
      StepValueInto(*v, path, i, &mapped);
      out->Push(std::move(mapped));
    } else if (!v->is_missing()) {
      out->Push(*v);
    }
  }
}

}  // namespace

const Value* FindValuePath(const Value& root,
                           const std::vector<std::string>& path,
                           size_t start) {
  const Value* v = Descend(root, path, &start);
  return start < path.size() && v->is_array() ? nullptr : v;
}

Value WalkValuePath(const Value& root, const std::vector<std::string>& path,
                    size_t start) {
  const Value* v = Descend(root, path, &start);
  if (start == path.size() || !v->is_array()) return *v;
  Value mapped;
  StepValueInto(*v, path, start, &mapped);
  return mapped;
}

bool ValueEquivalent(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kArray: {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!ValueEquivalent(a.array()[i], b.array()[i])) return false;
      }
      return true;
    }
    case ValueType::kObject: {
      if (a.size() != b.size()) return false;
      for (const auto& [key, value] : a.object()) {
        const Value& other = b.Get(key);
        if (other.is_missing() && !value.is_missing()) return false;
        if (!ValueEquivalent(value, other)) return false;
      }
      return true;
    }
    default:
      return a.Equals(b);
  }
}

}  // namespace lsmcol

// The document data model: a dynamically typed Value tree equivalent to a
// JSON document. Objects preserve field insertion order (document stores do
// not sort fields), and any field may hold values of different types in
// different documents — the heterogeneity the paper's extended Dremel
// format is designed for.
//
// Paths are read by reference: FindValuePath follows object fields to a
// value inside the tree and copies nothing. Only a step into an array
// builds a new value (SQL++ maps the rest of the path over the elements),
// which WalkValuePath returns.

#ifndef LSMCOL_JSON_VALUE_H_
#define LSMCOL_JSON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/logging.h"

namespace lsmcol {

/// Runtime type tag of a Value.
enum class ValueType : uint8_t {
  kMissing = 0,  // absent field (distinct from explicit null)
  kNull,
  kBool,
  kInt64,
  kDouble,
  kString,
  kArray,
  kObject,
};

const char* ValueTypeName(ValueType t);

/// \brief A dynamically typed document value (the JSON data model).
///
/// Value is a tree: atomic leaves (null/bool/int64/double/string) and
/// nested arrays/objects. It is copyable (deep copy) and movable. The
/// kMissing type represents "no value" — e.g. the result of accessing an
/// absent field — and never appears inside a stored document.
class Value {
 public:
  using Member = std::pair<std::string, Value>;
  using Array = std::vector<Value>;
  using Object = std::vector<Member>;  // insertion-ordered

  Value() : type_(ValueType::kMissing) {}

  static Value Missing() { return Value(); }
  static Value Null() {
    Value v;
    v.type_ = ValueType::kNull;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = ValueType::kBool;
    v.data_ = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = ValueType::kInt64;
    v.data_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = ValueType::kDouble;
    v.data_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = ValueType::kString;
    v.data_ = std::move(s);
    return v;
  }
  static Value MakeArray() {
    Value v;
    v.type_ = ValueType::kArray;
    v.data_ = Array{};
    return v;
  }
  static Value MakeObject() {
    Value v;
    v.type_ = ValueType::kObject;
    v.data_ = Object{};
    return v;
  }

  ValueType type() const { return type_; }
  bool is_missing() const { return type_ == ValueType::kMissing; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_bool() const { return type_ == ValueType::kBool; }
  bool is_int() const { return type_ == ValueType::kInt64; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_array() const { return type_ == ValueType::kArray; }
  bool is_object() const { return type_ == ValueType::kObject; }

  bool bool_value() const {
    LSMCOL_DCHECK(is_bool());
    return std::get<bool>(data_);
  }
  int64_t int_value() const {
    LSMCOL_DCHECK(is_int());
    return std::get<int64_t>(data_);
  }
  double double_value() const {
    LSMCOL_DCHECK(is_double());
    return std::get<double>(data_);
  }
  /// Numeric value as double regardless of int/double representation.
  double as_double() const {
    return is_int() ? static_cast<double>(int_value()) : double_value();
  }
  const std::string& string_value() const {
    LSMCOL_DCHECK(is_string());
    return std::get<std::string>(data_);
  }

  const Array& array() const {
    LSMCOL_DCHECK(is_array());
    return std::get<Array>(data_);
  }
  Array& mutable_array() {
    LSMCOL_DCHECK(is_array());
    return std::get<Array>(data_);
  }
  const Object& object() const {
    LSMCOL_DCHECK(is_object());
    return std::get<Object>(data_);
  }
  Object& mutable_object() {
    LSMCOL_DCHECK(is_object());
    return std::get<Object>(data_);
  }

  /// Append an element to an array value.
  void Push(Value v) { mutable_array().push_back(std::move(v)); }

  /// Add (or overwrite) a field on an object value.
  void Set(std::string key, Value v);

  /// Field access; returns Missing when absent or when this is not an
  /// object. Never throws.
  const Value& Get(std::string_view key) const;

  /// Structural deep equality. Int and double compare as distinct types.
  bool Equals(const Value& other) const;

  /// Number of fields/elements; 0 for atoms.
  size_t size() const {
    if (is_array()) return array().size();
    if (is_object()) return object().size();
    return 0;
  }

 private:
  ValueType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string, Array,
               Object>
      data_;
};

/// The canonical Missing singleton (returned by reference from Get).
const Value& MissingValue();

/// Structural equality that ignores object field order (record assembly
/// normalizes fields to schema order; see AssemblyPlan::Assemble).
bool ValueEquivalent(const Value& a, const Value& b);

/// The value at path[start..] below `root`, found without copying: object
/// steps follow the field (an absent field, or a step into an atom, gives
/// &MissingValue()). Returns nullptr at the first step that meets an
/// array, where SQL++ maps the rest of the path over the elements and the
/// result is a new value (WalkValuePath). Any other result points into
/// `root` or at MissingValue(), and lives as long as they do.
const Value* FindValuePath(const Value& root,
                           const std::vector<std::string>& path,
                           size_t start = 0);

/// SQL++-style path walk starting at path[start]: object steps access the
/// field; an array step maps the remaining path over the elements
/// (a[*].b), dropping missing results, so the result is an array of the
/// elements' results (nested arrays stay nested). Atoms yield Missing.
/// Copies only the result: the object steps go through FindValuePath.
Value WalkValuePath(const Value& root, const std::vector<std::string>& path,
                    size_t start = 0);

}  // namespace lsmcol

#endif  // LSMCOL_JSON_VALUE_H_

// Dynamically typed expression trees (the runtime the paper's Truffle code
// generation targets, §5). Values carry their types at runtime; operators
// follow SQL++ semantics: comparing or combining incompatible types yields
// Missing (the paper's example: 10 > "ten" → NULL, §5).
//
// Record fields are resolved through a FieldSource so the same expression
// tree runs against a fully assembled record (interpreted engine) or
// against lazily extracted column paths (compiled engine).
//
// Evaluation lends rather than copies: Expr::Ref points at a record field,
// a variable or a literal where one is the result, and evaluates into a
// caller's scratch Value only when the result is new (an operator's value,
// or a path mapped over an array). A borrowed pointer stays valid until the
// FieldSource moves to the next record; Eval copies a borrowed result into
// a Value it owns.

#ifndef LSMCOL_QUERY_EXPR_H_
#define LSMCOL_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/json/value.h"

namespace lsmcol {

/// Resolves a dotted record path for the current tuple.
class FieldSource {
 public:
  virtual ~FieldSource() = default;
  /// Points *out at the path's value: one the source holds, valid until it
  /// moves to the next record (two finds on one record never invalidate
  /// each other), or *scratch, filled with a new value.
  virtual Status Find(const std::vector<std::string>& path, Value* scratch,
                      const Value** out) = 0;
};

/// FieldSource over an assembled record Value (interpreted engine).
/// Stepping a path into an array maps the remaining path over the
/// elements (SQL++ `a[*].b` semantics); other paths borrow from the record.
class ValueFieldSource : public FieldSource {
 public:
  explicit ValueFieldSource(const Value* record) : record_(record) {}
  Status Find(const std::vector<std::string>& path, Value* scratch,
              const Value** out) override;

 private:
  const Value* record_;
};

/// Evaluation context: the record's field source plus named variables
/// (unnest items, quantifier bindings).
struct EvalContext {
  FieldSource* record = nullptr;
  std::vector<std::pair<std::string, const Value*>> vars;

  const Value* FindVar(const std::string& name) const {
    for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return nullptr;
  }
};

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// \brief A dynamically typed expression.
class Expr {
 public:
  enum class Kind : uint8_t {
    kLiteral,
    kField,     // path from the record
    kVar,       // named variable
    kVarPath,   // path below a variable
    kCompare,   // LT LE EQ GE GT NE
    kArith,     // ADD SUB MUL DIV
    kAnd,
    kOr,
    kNot,
    kIsArray,
    kIsMissing,
    kLength,      // string length
    kLower,       // lowercase string
    kArrayCount,  // number of elements
    kArrayDistinct,
    kArrayContains,  // (array, value)
    kArrayPairs,     // all unordered element pairs, as 2-element arrays
    kSome,           // SOME var IN array SATISFIES predicate
  };
  enum class CmpOp : uint8_t { kLt, kLe, kEq, kGe, kGt, kNe };
  enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

  /// Evaluate; type mismatches produce Missing, never an error. Status
  /// errors are reserved for storage-level failures in the FieldSource.
  /// Points *out at the result: kField, kVar, kVarPath and kLiteral borrow
  /// from the record, the variable or the literal (kField and kVarPath
  /// evaluate into *scratch when the path steps into an array); every other
  /// kind evaluates into *scratch.
  Status Ref(EvalContext* ctx, Value* scratch, const Value** out) const;
  /// Ref, copied into *out only when borrowed.
  Status Eval(EvalContext* ctx, Value* out) const;

  Kind kind() const { return kind_; }
  /// All record paths referenced by this tree (projection pushdown).
  void CollectPaths(std::vector<std::vector<std::string>>* out) const;

  // Structural accessors (predicate pushdown inspects filter trees).
  CmpOp cmp_op() const { return cmp_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  /// Valid for kField (the record path) and kVarPath (the path below the
  /// variable).
  const std::vector<std::string>& field_path() const { return path_; }
  /// Valid for kVar, kVarPath and kSome (the variable bound).
  const std::string& var_name() const { return var_name_; }
  /// Valid for kLiteral.
  const Value& literal_value() const { return literal_; }

  // --- Factories ---
  static ExprPtr Literal(Value v);
  static ExprPtr Int(int64_t v) { return Literal(Value::Int(v)); }
  static ExprPtr Str(std::string s) {
    return Literal(Value::String(std::move(s)));
  }
  /// Dotted record path, e.g. Field({"name", "first"}).
  static ExprPtr Field(std::vector<std::string> path);
  static ExprPtr Var(std::string name);
  static ExprPtr VarPath(std::string name, std::vector<std::string> path);
  static ExprPtr Compare(CmpOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr IsArray(ExprPtr e);
  static ExprPtr IsMissing(ExprPtr e);
  static ExprPtr Length(ExprPtr e);
  static ExprPtr Lower(ExprPtr e);
  static ExprPtr ArrayCount(ExprPtr e);
  static ExprPtr ArrayDistinct(ExprPtr e);
  static ExprPtr ArrayContains(ExprPtr array, ExprPtr value);
  static ExprPtr ArrayPairs(ExprPtr e);
  /// SOME `var` IN `array` SATISFIES `predicate`.
  static ExprPtr Some(std::string var, ExprPtr array, ExprPtr predicate);

 private:
  explicit Expr(Kind kind) : kind_(kind) {}
  /// The result of a kind with one operand (kNot, kIsArray, kIsMissing,
  /// kLength, kLower, kArrayCount, kArrayDistinct, kArrayPairs) on its
  /// operand's value.
  Value Unary(const Value& v) const;

  Kind kind_;
  Value literal_;
  std::vector<std::string> path_;
  std::string var_name_;
  CmpOp cmp_op_ = CmpOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  std::vector<ExprPtr> children_;
};

/// True iff v is boolean true (SQL++ WHERE semantics: missing/null/
/// non-boolean are not true).
bool IsTrue(const Value& v);

/// Total order over values for grouping/sorting: missing < null < bool <
/// numbers < strings < arrays < objects; numbers compare numerically.
int CompareValues(const Value& a, const Value& b);

/// Canonical grouping key (byte string) for a value.
std::string GroupKey(const Value& v);

}  // namespace lsmcol

#endif  // LSMCOL_QUERY_EXPR_H_

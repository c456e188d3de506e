#include "src/query/expr.h"

#include <algorithm>
#include <cctype>

#include "src/json/parser.h"

namespace lsmcol {

Status ValueFieldSource::Find(const std::vector<std::string>& path,
                              Value* scratch, const Value** out) {
  *out = FindValuePath(*record_, path);
  if (*out == nullptr) {  // the path steps into an array
    *scratch = WalkValuePath(*record_, path);
    *out = scratch;
  }
  return Status::OK();
}

bool IsTrue(const Value& v) { return v.is_bool() && v.bool_value(); }

int CompareValues(const Value& a, const Value& b) {
  auto rank = [](const Value& v) -> int {
    switch (v.type()) {
      case ValueType::kMissing:
        return 0;
      case ValueType::kNull:
        return 1;
      case ValueType::kBool:
        return 2;
      case ValueType::kInt64:
      case ValueType::kDouble:
        return 3;
      case ValueType::kString:
        return 4;
      case ValueType::kArray:
        return 5;
      case ValueType::kObject:
        return 6;
    }
    return 7;
  };
  const int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
    case 1:
      return 0;
    case 2:
      return static_cast<int>(a.bool_value()) -
             static_cast<int>(b.bool_value());
    case 3: {
      const double da = a.as_double(), db = b.as_double();
      if (da < db) return -1;
      if (da > db) return 1;
      return 0;
    }
    case 4:
      return a.string_value().compare(b.string_value());
    case 5: {
      const size_t n = std::min(a.array().size(), b.array().size());
      for (size_t i = 0; i < n; ++i) {
        int c = CompareValues(a.array()[i], b.array()[i]);
        if (c != 0) return c;
      }
      if (a.array().size() < b.array().size()) return -1;
      if (a.array().size() > b.array().size()) return 1;
      return 0;
    }
    default:
      // Objects: compare canonical JSON (grouping only).
      return ToJson(a).compare(ToJson(b));
  }
}

std::string GroupKey(const Value& v) { return ToJson(v); }

// --- factories ---

ExprPtr Expr::Literal(Value v) {
  auto e = ExprPtr(new Expr(Kind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}
ExprPtr Expr::Field(std::vector<std::string> path) {
  auto e = ExprPtr(new Expr(Kind::kField));
  e->path_ = std::move(path);
  return e;
}
ExprPtr Expr::Var(std::string name) {
  auto e = ExprPtr(new Expr(Kind::kVar));
  e->var_name_ = std::move(name);
  return e;
}
ExprPtr Expr::VarPath(std::string name, std::vector<std::string> path) {
  auto e = ExprPtr(new Expr(Kind::kVarPath));
  e->var_name_ = std::move(name);
  e->path_ = std::move(path);
  return e;
}
ExprPtr Expr::Compare(CmpOp op, ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(Kind::kCompare));
  e->cmp_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}
ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(Kind::kArith));
  e->arith_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}
ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(Kind::kAnd));
  e->children_ = {std::move(l), std::move(r)};
  return e;
}
ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(Kind::kOr));
  e->children_ = {std::move(l), std::move(r)};
  return e;
}
ExprPtr Expr::Not(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kNot));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::IsArray(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kIsArray));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::IsMissing(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kIsMissing));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::Length(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kLength));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::Lower(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kLower));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::ArrayCount(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kArrayCount));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::ArrayDistinct(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kArrayDistinct));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::ArrayContains(ExprPtr array, ExprPtr value) {
  auto e = ExprPtr(new Expr(Kind::kArrayContains));
  e->children_ = {std::move(array), std::move(value)};
  return e;
}
ExprPtr Expr::ArrayPairs(ExprPtr x) {
  auto e = ExprPtr(new Expr(Kind::kArrayPairs));
  e->children_ = {std::move(x)};
  return e;
}
ExprPtr Expr::Some(std::string var, ExprPtr array, ExprPtr predicate) {
  auto e = ExprPtr(new Expr(Kind::kSome));
  e->var_name_ = std::move(var);
  e->children_ = {std::move(array), std::move(predicate)};
  return e;
}

void Expr::CollectPaths(std::vector<std::vector<std::string>>* out) const {
  if (kind_ == Kind::kField) out->push_back(path_);
  for (const ExprPtr& child : children_) child->CollectPaths(out);
}

Status Expr::Eval(EvalContext* ctx, Value* out) const {
  const Value* v = nullptr;
  LSMCOL_RETURN_NOT_OK(Ref(ctx, out, &v));
  if (v != out) *out = *v;
  return Status::OK();
}

Status Expr::Ref(EvalContext* ctx, Value* scratch, const Value** out) const {
  *out = scratch;  // every kind but the four that borrow
  switch (kind_) {
    case Kind::kLiteral:
      *out = &literal_;
      return Status::OK();
    case Kind::kField:
      return ctx->record->Find(path_, scratch, out);
    case Kind::kVar: {
      const Value* v = ctx->FindVar(var_name_);
      *out = v != nullptr ? v : &MissingValue();
      return Status::OK();
    }
    case Kind::kVarPath: {
      const Value* v = ctx->FindVar(var_name_);
      if (v == nullptr) {
        *out = &MissingValue();
        return Status::OK();
      }
      ValueFieldSource source(v);
      return source.Find(path_, scratch, out);
    }
    case Kind::kCompare: {
      Value ls, rs;
      const Value* lp = nullptr;
      const Value* rp = nullptr;
      LSMCOL_RETURN_NOT_OK(children_[0]->Ref(ctx, &ls, &lp));
      LSMCOL_RETURN_NOT_OK(children_[1]->Ref(ctx, &rs, &rp));
      const Value& l = *lp;
      const Value& r = *rp;
      // Incompatible types -> Missing (the paper's 10 > "ten" example).
      const bool numeric = l.is_number() && r.is_number();
      const bool strings = l.is_string() && r.is_string();
      const bool bools = l.is_bool() && r.is_bool();
      if (!numeric && !strings && !bools) {
        if (cmp_op_ == CmpOp::kEq || cmp_op_ == CmpOp::kNe) {
          if (l.is_missing() || r.is_missing() || l.is_null() || r.is_null()) {
            *scratch = Value::Missing();
            return Status::OK();
          }
          const bool eq = CompareValues(l, r) == 0 && l.Equals(r);
          *scratch = Value::Bool(cmp_op_ == CmpOp::kEq ? eq : !eq);
          return Status::OK();
        }
        *scratch = Value::Missing();
        return Status::OK();
      }
      const int c = CompareValues(l, r);
      bool result = false;
      switch (cmp_op_) {
        case CmpOp::kLt:
          result = c < 0;
          break;
        case CmpOp::kLe:
          result = c <= 0;
          break;
        case CmpOp::kEq:
          result = c == 0;
          break;
        case CmpOp::kGe:
          result = c >= 0;
          break;
        case CmpOp::kGt:
          result = c > 0;
          break;
        case CmpOp::kNe:
          result = c != 0;
          break;
      }
      *scratch = Value::Bool(result);
      return Status::OK();
    }
    case Kind::kArith: {
      Value ls, rs;
      const Value* l = nullptr;
      const Value* r = nullptr;
      LSMCOL_RETURN_NOT_OK(children_[0]->Ref(ctx, &ls, &l));
      LSMCOL_RETURN_NOT_OK(children_[1]->Ref(ctx, &rs, &r));
      if (!l->is_number() || !r->is_number()) {
        *scratch = Value::Missing();
        return Status::OK();
      }
      if (l->is_int() && r->is_int() && arith_op_ != ArithOp::kDiv) {
        const int64_t a = l->int_value(), b = r->int_value();
        int64_t v = 0;
        bool overflow = false;
        switch (arith_op_) {
          case ArithOp::kAdd:
            overflow = __builtin_add_overflow(a, b, &v);
            break;
          case ArithOp::kSub:
            overflow = __builtin_sub_overflow(a, b, &v);
            break;
          case ArithOp::kMul:
            overflow = __builtin_mul_overflow(a, b, &v);
            break;
          case ArithOp::kDiv:
            break;
        }
        if (!overflow) {
          *scratch = Value::Int(v);
          return Status::OK();
        }
        // An int64 overflow promotes to double, as a double operand does.
      }
      const double a = l->as_double(), b = r->as_double();
      double v = 0;
      switch (arith_op_) {
        case ArithOp::kAdd:
          v = a + b;
          break;
        case ArithOp::kSub:
          v = a - b;
          break;
        case ArithOp::kMul:
          v = a * b;
          break;
        case ArithOp::kDiv:
          if (b == 0) {
            *scratch = Value::Missing();
            return Status::OK();
          }
          v = a / b;
          break;
      }
      *scratch = Value::Double(v);
      return Status::OK();
    }
    case Kind::kAnd:
    case Kind::kOr: {
      // Short circuit: AND stops at a left side that is not true, OR at
      // one that is.
      const bool is_and = kind_ == Kind::kAnd;
      Value s;
      const Value* v = nullptr;
      LSMCOL_RETURN_NOT_OK(children_[0]->Ref(ctx, &s, &v));
      if (IsTrue(*v) != is_and) {
        *scratch = Value::Bool(!is_and);
        return Status::OK();
      }
      LSMCOL_RETURN_NOT_OK(children_[1]->Ref(ctx, &s, &v));
      *scratch = Value::Bool(IsTrue(*v));
      return Status::OK();
    }
    case Kind::kNot:
    case Kind::kIsArray:
    case Kind::kIsMissing:
    case Kind::kLength:
    case Kind::kLower:
    case Kind::kArrayCount:
    case Kind::kArrayDistinct:
    case Kind::kArrayPairs: {
      Value s;
      const Value* v = nullptr;
      LSMCOL_RETURN_NOT_OK(children_[0]->Ref(ctx, &s, &v));
      *scratch = Unary(*v);
      return Status::OK();
    }
    case Kind::kArrayContains: {
      Value as, ns;
      const Value* arr = nullptr;
      const Value* needle = nullptr;
      LSMCOL_RETURN_NOT_OK(children_[0]->Ref(ctx, &as, &arr));
      LSMCOL_RETURN_NOT_OK(children_[1]->Ref(ctx, &ns, &needle));
      if (!arr->is_array()) {
        *scratch = Value::Missing();
        return Status::OK();
      }
      bool found = false;
      for (const Value& e : arr->array()) {
        if (e.Equals(*needle)) {
          found = true;
          break;
        }
      }
      *scratch = Value::Bool(found);
      return Status::OK();
    }
    case Kind::kSome: {
      Value as;
      const Value* arr = nullptr;
      LSMCOL_RETURN_NOT_OK(children_[0]->Ref(ctx, &as, &arr));
      bool satisfied = false;
      if (arr->is_array()) {
        Value ps;
        for (const Value& e : arr->array()) {
          ctx->vars.emplace_back(var_name_, &e);
          const Value* pred = nullptr;
          Status st = children_[1]->Ref(ctx, &ps, &pred);
          ctx->vars.pop_back();
          LSMCOL_RETURN_NOT_OK(st);
          if (IsTrue(*pred)) {
            satisfied = true;
            break;
          }
        }
      }
      *scratch = Value::Bool(satisfied);
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

Value Expr::Unary(const Value& v) const {
  switch (kind_) {
    case Kind::kNot:
      return v.is_bool() ? Value::Bool(!v.bool_value()) : Value::Missing();
    case Kind::kIsArray:
      return Value::Bool(v.is_array());
    case Kind::kIsMissing:
      return Value::Bool(v.is_missing() || v.is_null());
    case Kind::kLength:
      return v.is_string()
                 ? Value::Int(static_cast<int64_t>(v.string_value().size()))
                 : Value::Missing();
    case Kind::kLower: {
      if (!v.is_string()) return Value::Missing();
      std::string s = v.string_value();
      std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      return Value::String(std::move(s));
    }
    case Kind::kArrayCount:
      return v.is_array() ? Value::Int(static_cast<int64_t>(v.array().size()))
                          : Value::Missing();
    case Kind::kArrayDistinct: {
      if (!v.is_array()) return Value::Missing();
      Value result = Value::MakeArray();
      for (const Value& e : v.array()) {
        bool seen = false;
        for (const Value& existing : result.array()) {
          if (existing.Equals(e)) {
            seen = true;
            break;
          }
        }
        if (!seen) result.Push(e);
      }
      return result;
    }
    case Kind::kArrayPairs: {
      if (!v.is_array()) return Value::Missing();
      Value result = Value::MakeArray();
      const auto& elements = v.array();
      for (size_t i = 0; i < elements.size(); ++i) {
        for (size_t j = i + 1; j < elements.size(); ++j) {
          Value pair = Value::MakeArray();
          // Canonical order within the pair so {a,b} == {b,a}.
          if (CompareValues(elements[i], elements[j]) <= 0) {
            pair.Push(elements[i]);
            pair.Push(elements[j]);
          } else {
            pair.Push(elements[j]);
            pair.Push(elements[i]);
          }
          result.Push(std::move(pair));
        }
      }
      return result;
    }
    default:
      return Value::Missing();
  }
}

}  // namespace lsmcol

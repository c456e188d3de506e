#include "src/query/engine.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <unordered_map>

#include "src/query/pushdown.h"

namespace lsmcol {
namespace {

// Group keys are concatenated length-prefixed so a '\x1f' (or any other
// byte) inside a key part can never make two distinct key tuples collide.
void AppendGroupKeyPart(const std::string& part, std::string* key) {
  uint64_t len = part.size();
  while (len >= 0x80) {
    key->push_back(static_cast<char>(len | 0x80));
    len >>= 7;
  }
  key->push_back(static_cast<char>(len));
  key->append(part);
}

// ----------------------------------------------------------- aggregation

struct AggState {
  uint64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;  // missing until first value
  Value max;
};

/// An item column a column-native unnest reads. id -1: the field is
/// absent from the component, so every value is MISSING.
struct ItemColumn {
  int id = -1;
  AtomicType type = AtomicType::kInt64;
};

using ColumnSpan = ColumnarComponentCursor::ColumnSpan;

/// The values entries [begin, end) hold are [*v0, *v1): value indices
/// rise by one per entry that holds a value, so a span's values are
/// contiguous whether or not every entry holds one. Only entries without
/// a value at the span's two ends are stepped over.
void SpanValues(const ColumnEntryBatch& b, size_t begin, size_t end,
                size_t* v0, size_t* v1) {
  while (begin < end && b.value_index[begin] < 0) ++begin;
  while (end > begin && b.value_index[end - 1] < 0) --end;
  *v0 = begin == end ? 0 : static_cast<size_t>(b.value_index[begin]);
  *v1 = begin == end ? 0 : static_cast<size_t>(b.value_index[end - 1]) + 1;
}

/// The index of the first minimal (kMax: maximal) value among the values
/// [v0, v1), v0 < v1. `key` maps a value index to something whose
/// operator< is CompareValues' order within the column's type; the first
/// of equal values wins, as with Fold's strict comparisons.
template <bool kMax, typename Key>
size_t FirstBest(size_t v0, size_t v1, Key key) {
  size_t best = v0;
  auto best_key = key(v0);
  for (size_t vi = v0 + 1; vi < v1; ++vi) {
    const auto k = key(vi);
    if (kMax ? best_key < k : k < best_key) {
      best = vi;
      best_key = k;
    }
  }
  return best;
}

size_t BestValueIndex(const ColumnEntryBatch& b, AtomicType type, size_t v0,
                      size_t v1, bool max) {
  auto first_best = [&](auto key) {
    return max ? FirstBest<true>(v0, v1, key) : FirstBest<false>(v0, v1, key);
  };
  switch (type) {
    case AtomicType::kBoolean:
      return first_best([&](size_t i) { return b.bools[i]; });
    case AtomicType::kInt64:
      // CompareValues orders every number as a double.
      return first_best(
          [&](size_t i) { return static_cast<double>(b.ints[i]); });
    case AtomicType::kDouble:
      return first_best([&](size_t i) { return b.doubles[i]; });
    case AtomicType::kString:
      return first_best([&](size_t i) { return b.strings[i].view(); });
  }
  return v0;
}

Value BatchValue(const ColumnEntryBatch& b, AtomicType type, size_t vi) {
  switch (type) {
    case AtomicType::kBoolean:
      return Value::Bool(b.bools[vi] != 0);
    case AtomicType::kInt64:
      return Value::Int(b.ints[vi]);
    case AtomicType::kDouble:
      return Value::Double(b.doubles[vi]);
    case AtomicType::kString:
      return Value::String(b.strings[vi].ToString());
  }
  return Value::Missing();
}

class Aggregator {
 public:
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };

  explicit Aggregator(const QueryPlan* plan) : plan_(plan) {}

  /// The current tuple's group (keys evaluated in ctx), created on first
  /// use. The keys are read by reference; a new group copies them, so a
  /// group keeps the key values it was first seen with.
  Result<Group*> GroupFor(EvalContext* ctx) {
    const size_t n = plan_->group_keys.size();
    key_scratch_.resize(n);
    key_refs_.resize(n);
    key_.clear();
    for (size_t i = 0; i < n; ++i) {
      LSMCOL_RETURN_NOT_OK(
          plan_->group_keys[i]->Ref(ctx, &key_scratch_[i], &key_refs_[i]));
      AppendGroupKeyPart(GroupKey(*key_refs_[i]), &key_);
    }
    auto [it, created] = groups_.try_emplace(key_);
    Group& group = it->second;
    if (created) {
      group.keys.reserve(n);
      for (const Value* v : key_refs_) group.keys.push_back(*v);
      group.states.resize(plan_->aggregates.size());
    }
    return &group;
  }

  Status Add(EvalContext* ctx) {
    LSMCOL_ASSIGN_OR_RETURN(Group * group, GroupFor(ctx));
    for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
      const AggSpec& spec = plan_->aggregates[i];
      AggState& state = group->states[i];
      if (spec.input == nullptr) {  // COUNT(*)
        ++state.count;
        continue;
      }
      Value scratch;
      const Value* v = nullptr;
      LSMCOL_RETURN_NOT_OK(spec.input->Ref(ctx, &scratch, &v));
      Fold(spec, *v, &state);
    }
    return Status::OK();
  }

  /// Add() for aggregate i over the n elements of one record's unnested
  /// array at once: the input reads `column`, whose values for the
  /// elements are `span`'s first n entries (span.batch null: all
  /// MISSING). Folds the same values in the same order as n Add() calls,
  /// except that MIN/MAX fold only the record's first-best value, which
  /// ends in the same state. The elements' values are contiguous in the
  /// decode (SpanValues), so each aggregate folds over them directly.
  void AddElements(Group* group, size_t i, size_t n, const ItemColumn& column,
                   const ColumnSpan& span) {
    const AggSpec& spec = plan_->aggregates[i];
    AggState& state = group->states[i];
    if (spec.input == nullptr) {  // COUNT(*)
      state.count += n;
      return;
    }
    if (span.batch == nullptr) return;
    const ColumnEntryBatch& b = *span.batch;
    size_t v0 = 0;
    size_t v1 = 0;
    SpanValues(b, span.begin, span.begin + n, &v0, &v1);
    if (v0 == v1) return;  // no element holds a value
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        state.count += v1 - v0;
        break;
      case AggSpec::Kind::kSum:
        if (column.type == AtomicType::kInt64) {
          Sum(b.ints.data() + v0, v1 - v0, &state);
        } else if (column.type == AtomicType::kDouble) {
          Sum(b.doubles.data() + v0, v1 - v0, &state);
        }
        break;  // SUM skips non-numbers
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax: {
        const size_t vi = BestValueIndex(b, column.type, v0, v1,
                                         spec.kind == AggSpec::Kind::kMax);
        Fold(spec, BatchValue(b, column.type, vi), &state);
        break;
      }
    }
  }

  void FinishInto(QueryResult* result) {
    for (auto& [key, group] : groups_) {
      std::vector<Value> row = std::move(group.keys);
      for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
        const AggSpec& spec = plan_->aggregates[i];
        AggState& state = group.states[i];
        switch (spec.kind) {
          case AggSpec::Kind::kCount:
            row.push_back(Value::Int(static_cast<int64_t>(state.count)));
            break;
          case AggSpec::Kind::kSum:
            if (state.count == 0) {
              row.push_back(Value::Null());
            } else if (state.sum_is_int) {
              row.push_back(Value::Int(state.isum));
            } else {
              row.push_back(Value::Double(state.sum));
            }
            break;
          case AggSpec::Kind::kMin:
            row.push_back(state.min.is_missing() ? Value::Null() : state.min);
            break;
          case AggSpec::Kind::kMax:
            row.push_back(state.max.is_missing() ? Value::Null() : state.max);
            break;
        }
      }
      result->rows.push_back(std::move(row));
    }
  }

 private:
  /// Fold's SUM over n numbers of one type, in order.
  static void Sum(const int64_t* v, size_t n, AggState* state) {
    state->count += n;
    size_t i = 0;
    if (state->sum_is_int) {
      for (; i < n; ++i) {
        int64_t sum = 0;
        if (__builtin_add_overflow(state->isum, v[i], &sum)) break;
        state->isum = sum;
      }
      if (i == n) return;
      state->sum = static_cast<double>(state->isum);  // overflow at v[i]
      state->sum_is_int = false;
    }
    for (; i < n; ++i) state->sum += static_cast<double>(v[i]);
  }
  static void Sum(const double* v, size_t n, AggState* state) {
    state->count += n;
    if (state->sum_is_int) {
      state->sum = static_cast<double>(state->isum);
      state->sum_is_int = false;
    }
    for (size_t i = 0; i < n; ++i) state->sum += v[i];
  }

  /// Folds one input value into an aggregate's state.
  static void Fold(const AggSpec& spec, const Value& v, AggState* state) {
    if (v.is_missing() || v.is_null()) return;
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        ++state->count;
        break;
      case AggSpec::Kind::kSum:
        if (!v.is_number()) break;
        ++state->count;
        if (v.is_int() && state->sum_is_int) {
          int64_t sum = 0;
          if (!__builtin_add_overflow(state->isum, v.int_value(), &sum)) {
            state->isum = sum;
            break;
          }
        }
        // A double, or an int64 overflow: the sum is a double from here on.
        if (state->sum_is_int) {
          state->sum = static_cast<double>(state->isum);
          state->sum_is_int = false;
        }
        state->sum += v.as_double();
        break;
      case AggSpec::Kind::kMin:
        if (state->min.is_missing() || CompareValues(v, state->min) < 0) {
          state->min = v;
        }
        break;
      case AggSpec::Kind::kMax:
        if (state->max.is_missing() || CompareValues(v, state->max) > 0) {
          state->max = v;
        }
        break;
    }
  }

  const QueryPlan* plan_;
  std::unordered_map<std::string, Group> groups_;
  // GroupFor's per-tuple state, reused across tuples.
  std::string key_;
  std::vector<Value> key_scratch_;
  std::vector<const Value*> key_refs_;
};

/// ORDER BY and LIMIT: a stable sort, then a cut. When the LIMIT k cuts
/// rows, only a top-k is ordered: a partial sort of row positions by
/// (value, position), a total order that breaks ties as the stable sort
/// does, so it keeps the same rows in the same order.
void ApplyOrderAndLimit(const QueryPlan& plan, QueryResult* result) {
  std::vector<std::vector<Value>>& rows = result->rows;
  const bool cut = plan.limit > 0 && rows.size() > plan.limit;
  if (plan.order_by >= 0) {
    const size_t column = static_cast<size_t>(plan.order_by);
    auto before = [&](int c) { return plan.order_desc ? c > 0 : c < 0; };
    if (!cut) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const auto& a, const auto& b) {
                         return before(CompareValues(a[column], b[column]));
                       });
    } else {
      std::vector<size_t> order(rows.size());
      std::iota(order.begin(), order.end(), size_t{0});
      const auto k = order.begin() + static_cast<ptrdiff_t>(plan.limit);
      std::partial_sort(order.begin(), k, order.end(),
                        [&](size_t a, size_t b) {
                          const int c =
                              CompareValues(rows[a][column], rows[b][column]);
                          return c != 0 ? before(c) : a < b;
                        });
      std::vector<std::vector<Value>> top;
      top.reserve(plan.limit);
      for (auto it = order.begin(); it != k; ++it) {
        top.push_back(std::move(rows[*it]));
      }
      rows = std::move(top);
    }
  }
  if (cut) rows.resize(plan.limit);
}

// Runs the epilogue-facing part for one pipeline tuple.
Status EmitTuple(const QueryPlan& plan, EvalContext* ctx,
                 Aggregator* aggregator, QueryResult* result) {
  ++result->pipeline_tuples;
  if (!plan.aggregates.empty()) {
    return aggregator->Add(ctx);
  }
  std::vector<Value> row(plan.projections.size());
  for (size_t i = 0; i < plan.projections.size(); ++i) {
    LSMCOL_RETURN_NOT_OK(plan.projections[i]->Eval(ctx, &row[i]));
  }
  result->rows.push_back(std::move(row));
  return Status::OK();
}

// Applies unnests [level..] recursively, then the post-unnest filter and
// the epilogue. Shared by both engines (the engines differ in how record
// fields are *resolved*, not in tuple semantics). skip_filter is set by
// the compiled engine when pushed-down predicates already proved the
// post-unnest filter true for this record.
Status ApplyUnnests(const QueryPlan& plan, EvalContext* ctx, size_t level,
                    Aggregator* aggregator, QueryResult* result,
                    bool skip_filter = false) {
  if (level == plan.unnests.size()) {
    if (plan.filter != nullptr && !skip_filter) {
      Value pass;
      LSMCOL_RETURN_NOT_OK(plan.filter->Eval(ctx, &pass));
      if (!IsTrue(pass)) return Status::OK();
    }
    return EmitTuple(plan, ctx, aggregator, result);
  }
  const UnnestSpec& unnest = plan.unnests[level];
  Value scratch;
  const Value* arr = nullptr;
  LSMCOL_RETURN_NOT_OK(unnest.array->Ref(ctx, &scratch, &arr));
  if (!arr->is_array()) return Status::OK();  // UNNEST of non-array: no rows
  for (const Value& element : arr->array()) {
    ctx->vars.emplace_back(unnest.var, &element);
    Status st =
        ApplyUnnests(plan, ctx, level + 1, aggregator, result, skip_filter);
    ctx->vars.pop_back();
    LSMCOL_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Projection ScanProjection(const QueryPlan& plan) {
  return Projection::Of(plan.ScanPaths());
}

// --------------------------------------------------- interpreted engine

// Hyracks-style: operators materialize whole batches of row tuples.
constexpr size_t kBatchSize = 1024;

struct InterpretedRow {
  Value record;                    // fully assembled (projected) record
  std::vector<Value> unnest_vars;  // one per applied unnest level
};

}  // namespace

Result<QueryResult> RunInterpreted(const Snapshot& snapshot,
                                   const QueryPlan& plan) {
  QueryResult result;
  Aggregator aggregator(&plan);
  LSMCOL_ASSIGN_OR_RETURN(auto cursor, snapshot.Scan(ScanProjection(plan)));

  std::vector<InterpretedRow> batch;
  batch.reserve(kBatchSize);

  auto process_batch = [&]() -> Status {
    // FILTER operator: materializes the passing subset.
    std::vector<InterpretedRow> current;
    if (plan.pre_filter != nullptr) {
      for (InterpretedRow& row : batch) {
        ValueFieldSource source(&row.record);
        EvalContext ctx;
        ctx.record = &source;
        Value pass;
        LSMCOL_RETURN_NOT_OK(plan.pre_filter->Eval(&ctx, &pass));
        if (IsTrue(pass)) current.push_back(std::move(row));
      }
    } else {
      current = std::move(batch);
    }
    batch.clear();
    // UNNEST operators: each level materializes a widened batch.
    for (size_t level = 0; level < plan.unnests.size(); ++level) {
      std::vector<InterpretedRow> next;
      for (InterpretedRow& row : current) {
        ValueFieldSource source(&row.record);
        EvalContext ctx;
        ctx.record = &source;
        for (size_t i = 0; i < row.unnest_vars.size(); ++i) {
          ctx.vars.emplace_back(plan.unnests[i].var, &row.unnest_vars[i]);
        }
        Value scratch;
        const Value* arr = nullptr;
        LSMCOL_RETURN_NOT_OK(
            plan.unnests[level].array->Ref(&ctx, &scratch, &arr));
        if (!arr->is_array()) continue;
        for (const Value& element : arr->array()) {
          InterpretedRow widened;
          widened.record = row.record;  // the materialization copy
          widened.unnest_vars = row.unnest_vars;
          widened.unnest_vars.push_back(element);
          next.push_back(std::move(widened));
        }
      }
      current = std::move(next);
    }
    // Post-unnest filter + epilogue feed.
    for (InterpretedRow& row : current) {
      ValueFieldSource source(&row.record);
      EvalContext ctx;
      ctx.record = &source;
      for (size_t i = 0; i < row.unnest_vars.size(); ++i) {
        ctx.vars.emplace_back(plan.unnests[i].var, &row.unnest_vars[i]);
      }
      if (plan.filter != nullptr) {
        Value pass;
        LSMCOL_RETURN_NOT_OK(plan.filter->Eval(&ctx, &pass));
        if (!IsTrue(pass)) continue;
      }
      LSMCOL_RETURN_NOT_OK(EmitTuple(plan, &ctx, &aggregator, &result));
    }
    return Status::OK();
  };

  while (true) {
    LSMCOL_ASSIGN_OR_RETURN(bool ok, cursor->Next());
    if (!ok) break;
    InterpretedRow row;
    // SCAN operator: assemble the (projected) record into a row tuple.
    LSMCOL_RETURN_NOT_OK(cursor->Record(&row.record));
    batch.push_back(std::move(row));
    if (batch.size() >= kBatchSize) {
      LSMCOL_RETURN_NOT_OK(process_batch());
    }
  }
  LSMCOL_RETURN_NOT_OK(process_batch());

  if (!plan.aggregates.empty()) aggregator.FinishInto(&result);
  ApplyOrderAndLimit(plan, &result);
  return result;
}

// ------------------------------------------------------ compiled engine

namespace {

/// FieldSource over the live scan cursor: paths are extracted straight
/// from the storage (columnar layouts assemble only the requested
/// subtree), memoized per record, and lent from the memo. The memo is
/// keyed by the path vector's ADDRESS — the plan's expression nodes are
/// stable for the query's lifetime, so pointer identity replaces
/// per-record string hashing.
class CursorFieldSource : public FieldSource {
 public:
  explicit CursorFieldSource(TupleCursor* cursor) : cursor_(cursor) {}

  void NewRecord() { used_ = 0; }

  Status Find(const std::vector<std::string>& path, Value* /*scratch*/,
              const Value** out) override {
    for (size_t i = 0; i < used_; ++i) {
      const MemoEntry& entry = memo_[i];
      // Pointer identity first (same Expr node); content equality catches
      // distinct nodes naming the same path.
      if (entry.key == &path || *entry.key == path) {
        *out = &entry.value;
        return Status::OK();
      }
    }
    if (used_ == memo_.size()) memo_.emplace_back();
    MemoEntry& entry = memo_[used_];
    LSMCOL_RETURN_NOT_OK(cursor_->Path(path, &entry.value));
    entry.key = &path;
    ++used_;
    *out = &entry.value;
    return Status::OK();
  }

 private:
  struct MemoEntry {
    const std::vector<std::string>* key = nullptr;
    Value value;
  };

  TupleCursor* cursor_;
  // The first used_ entries are the current record's: a handful of paths,
  // so a linear scan wins. A deque keeps every entry at its address, so a
  // value lent for one path stays valid while later paths are added, and
  // the entries are reused across records.
  std::deque<MemoEntry> memo_;
  size_t used_ = 0;
};

bool UsesVar(const Expr& e, const std::string& var) {
  const bool binds = e.kind() == Expr::Kind::kVar ||
                     e.kind() == Expr::Kind::kVarPath ||
                     e.kind() == Expr::Kind::kSome;
  if (binds && e.var_name() == var) return true;
  for (const ExprPtr& child : e.children()) {
    if (UsesVar(*child, var)) return true;
  }
  return false;
}

/// The compiled engine's column-native UNNEST (docs/ARCHITECTURE.md,
/// "Compiled engine: column-native unnest").
///
/// A plan qualifies when its one UNNEST walks a record path, it
/// aggregates, and the unnest variable appears only as VarPath(var, p)
/// aggregate inputs: group keys and the post-unnest filter then read
/// record fields alone, so they hold for every element of a record.
///
/// A record qualifies when its LSM winner is a columnar component whose
/// schema reaches the array through object fields, with an item that is
/// neither a union nor an array, and resolves every p through object
/// fields to one atomic column (or to nothing: the value is MISSING).
/// Its elements are then read from per-record column spans and folded
/// into the aggregates in typed loops; every other record takes the
/// Path() route, which assembles the array.
class ColumnUnnest {
 public:
  explicit ColumnUnnest(const QueryPlan& plan) : plan_(plan) {
    if (plan.unnests.size() != 1 || plan.aggregates.empty()) return;
    const UnnestSpec& unnest = plan.unnests[0];
    if (unnest.array->kind() != Expr::Kind::kField) return;
    for (const AggSpec& spec : plan.aggregates) {
      if (spec.input == nullptr) continue;  // COUNT(*)
      if (spec.input->kind() != Expr::Kind::kVarPath ||
          spec.input->var_name() != unnest.var ||
          spec.input->field_path().empty()) {
        return;
      }
    }
    for (const ExprPtr& key : plan.group_keys) {
      if (UsesVar(*key, unnest.var)) return;
    }
    if (plan.filter != nullptr && UsesVar(*plan.filter, unnest.var)) return;
    eligible_ = true;
  }

  /// The scan's projection. A qualifying plan names the item fields its
  /// aggregates read (array path + p) instead of the whole array, and no
  /// path under the array for a COUNT(*)-only unnest, which counts
  /// elements from one column.
  Projection ScanProjection() const {
    if (!eligible_) return Projection::Of(plan_.ScanPaths());
    QueryPlan record_only = plan_;
    record_only.unnests.clear();
    std::vector<std::vector<std::string>> paths = record_only.ScanPaths();
    for (const AggSpec& spec : plan_.aggregates) {
      if (spec.input == nullptr) continue;
      std::vector<std::string> path = plan_.unnests[0].array->field_path();
      const auto& item_path = spec.input->field_path();
      path.insert(path.end(), item_path.begin(), item_path.end());
      paths.push_back(std::move(path));
    }
    return Projection::Of(std::move(paths));
  }

  /// Unnests the current record from its columns and aggregates its
  /// tuples (after the pre-filter passed). False, having done nothing,
  /// when the plan or the record's winner does not qualify.
  Result<bool> Run(TupleCursor* winner, EvalContext* ctx,
                   Aggregator* aggregator, QueryResult* result) {
    if (!eligible_) return false;
    auto* columnar = dynamic_cast<ColumnarComponentCursor*>(winner);
    if (columnar == nullptr) return false;
    const Binding& binding = BindingFor(columnar);
    if (!binding.eligible) return false;
    // A column under the array holds, per record, one entry below the
    // array's def level when the array is missing, else one entry per
    // element plus the closing delimiter. A column created after the
    // record was written holds one backfilled entry: all its values are
    // MISSING, and only the count column then knows the array's length.
    const int array_def = binding.array_def;
    auto present = [array_def](const ColumnSpan& span) {
      return span.batch != nullptr &&
             span.batch->defs[span.begin] >= array_def;
    };
    spans_.assign(binding.inputs.size(), ColumnSpan());
    ColumnSpan length;  // the first span holding the array
    for (size_t i = 0; i < binding.inputs.size(); ++i) {
      if (binding.inputs[i].id < 0) continue;
      ColumnSpan& span = spans_[i];
      LSMCOL_RETURN_NOT_OK(columnar->RecordSpan(binding.inputs[i].id, &span));
      if (!present(span)) {
        span = ColumnSpan();
      } else if (length.batch == nullptr) {
        length = span;
      } else if (span.end - span.begin != length.end - length.begin) {
        return Status::Corruption("array columns disagree on its length");
      }
    }
    if (length.batch == nullptr) {
      // Only the array's length is wanted: the count column's def levels.
      LSMCOL_RETURN_NOT_OK(columnar->RecordSpan(binding.count_column, &length,
                                                /*values=*/false));
      if (!present(length)) return true;  // no array: no rows
    }
    // A lone element at the array's own level is an empty array.
    const size_t n = length.end - length.begin - 1;
    if (n == 1 && length.batch->defs[length.begin] == array_def) {
      return true;
    }
    if (plan_.filter != nullptr) {
      Value pass;
      LSMCOL_RETURN_NOT_OK(plan_.filter->Eval(ctx, &pass));
      if (!IsTrue(pass)) return true;
    }
    result->pipeline_tuples += n;
    LSMCOL_ASSIGN_OR_RETURN(Aggregator::Group * group,
                            aggregator->GroupFor(ctx));
    for (size_t i = 0; i < spans_.size(); ++i) {
      aggregator->AddElements(group, i, n, binding.inputs[i], spans_[i]);
    }
    return true;
  }

 private:
  /// How one component's schema binds the plan.
  struct Binding {
    const TupleCursor* cursor = nullptr;
    bool eligible = false;
    int array_def = 0;
    int count_column = -1;
    std::vector<ItemColumn> inputs;  // per aggregate; id -1 for COUNT(*)
  };

  const Binding& BindingFor(ColumnarComponentCursor* cursor) {
    for (const Binding& binding : bindings_) {
      if (binding.cursor == cursor) return binding;
    }
    bindings_.push_back(Bind(*cursor->component_schema()));
    bindings_.back().cursor = cursor;
    return bindings_.back();
  }

  Binding Bind(const Schema& schema) const {
    Binding binding;
    const SchemaNode* array = &schema.root();
    for (const std::string& step : plan_.unnests[0].array->field_path()) {
      array = array->is_object() ? array->FindField(step) : nullptr;
      if (array == nullptr) return binding;
    }
    const SchemaNode* item = array->is_array() ? array->item() : nullptr;
    if (item == nullptr || item->is_union() || item->is_array()) {
      return binding;
    }
    // Column ids grow in discovery order, so the array's first column
    // existed whenever any of its columns did: its entries count the
    // elements of every record (later columns are backfilled).
    const std::vector<int> columns = Schema::ColumnsUnder(array);
    if (columns.empty() || schema.column(columns[0]).array_count() != 1) {
      return binding;
    }
    binding.array_def = array->def_level();
    binding.count_column = columns[0];
    for (const AggSpec& spec : plan_.aggregates) {
      ItemColumn column;
      if (spec.input != nullptr) {
        const SchemaNode* field = item;
        for (const std::string& step : spec.input->field_path()) {
          if (!field->is_object()) return binding;
          field = field->FindField(step);
          if (field == nullptr) break;  // absent here: MISSING
        }
        if (field != nullptr) {
          if (!field->is_atomic()) return binding;
          const ColumnInfo& info = schema.column(field->column_id());
          column = ItemColumn{info.id, info.type};
        }
      }
      binding.inputs.push_back(column);
    }
    binding.eligible = true;
    return binding;
  }

  const QueryPlan& plan_;
  bool eligible_ = false;
  std::vector<Binding> bindings_;  // one per columnar source met
  std::vector<ColumnSpan> spans_;  // per aggregate, reused across records
};

}  // namespace

Result<QueryResult> RunCompiled(const Snapshot& snapshot,
                                const QueryPlan& plan) {
  QueryResult result;
  Aggregator aggregator(&plan);
  // Pushdown: hand the storage layer the filter's necessary conditions so
  // zone maps can veto whole leaves/megapages before any decode.
  PredicatePushdown pushdown;
  if (plan.pushdown) pushdown = ExtractPushdown(plan);
  ColumnUnnest column_unnest(plan);
  LSMCOL_ASSIGN_OR_RETURN(
      auto cursor,
      snapshot.Scan(column_unnest.ScanProjection(), pushdown.predicates));
  CursorFieldSource source(cursor.get());
  EvalContext ctx;  // reused across records; unnest vars stay balanced
  ctx.record = &source;
  // The fused loop of Figure 11: while (c.hasNext()) { ... } with no
  // materialization between operators.
  while (true) {
    LSMCOL_ASSIGN_OR_RETURN(bool ok, cursor->Next());
    if (!ok) break;
    PredicateVerdict verdict = PredicateVerdict::kUnknown;
    if (pushdown.any()) {
      LSMCOL_ASSIGN_OR_RETURN(verdict, cursor->TestPushedPredicates());
      // kNoMatch: some necessary condition of the filter is false — the
      // record contributes nothing; skip without touching its columns.
      if (verdict == PredicateVerdict::kNoMatch) continue;
    }
    source.NewRecord();
    const bool covered = verdict == PredicateVerdict::kMatch;
    if (plan.pre_filter != nullptr &&
        !(covered && pushdown.pre_filter_exact)) {
      Value pass;
      LSMCOL_RETURN_NOT_OK(plan.pre_filter->Eval(&ctx, &pass));
      if (!IsTrue(pass)) continue;
    }
    LSMCOL_ASSIGN_OR_RETURN(
        bool unnested,
        column_unnest.Run(cursor->winner(), &ctx, &aggregator, &result));
    if (unnested) continue;
    const bool skip_post_filter =
        covered && pushdown.filter_extracted && pushdown.filter_exact;
    LSMCOL_RETURN_NOT_OK(
        ApplyUnnests(plan, &ctx, 0, &aggregator, &result, skip_post_filter));
  }
  if (!plan.aggregates.empty()) aggregator.FinishInto(&result);
  ApplyOrderAndLimit(plan, &result);
  return result;
}

Result<QueryResult> RunQuery(const Snapshot& snapshot, const QueryPlan& plan,
                             bool compiled) {
  return compiled ? RunCompiled(snapshot, plan)
                  : RunInterpreted(snapshot, plan);
}

}  // namespace lsmcol

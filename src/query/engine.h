// The two execution engines of the evaluation (§5, Figure 10):
//
//  * RunInterpreted — the Hyracks-style batch-at-a-time model: the scan
//    assembles full (projected) records into row tuples, and every
//    operator materializes its output batch before the next operator runs.
//
//  * RunCompiled — the code-generation analog: the whole pipeline (scan →
//    filter → unnest → project) is fused into one loop over the LSM scan
//    cursor, with no inter-operator materialization. Record fields are
//    extracted per record with Path(), which assembles only the requested
//    subtree. An aggregating UNNEST of a plain record path whose variable
//    is read only as VarPath(var, p) aggregate inputs skips assembly for
//    records that a columnar component wins: it reads the p columns as
//    typed per-record spans of their whole-leaf decodes and folds them into
//    the aggregates directly (docs/ARCHITECTURE.md, "Compiled engine:
//    column-native unnest"). Memtable and row-layout winners, unions or
//    nested arrays on the path, and other uses of the variable take the
//    Path() route. Pipeline breakers (group-by / order-by / limit) remain
//    shared operators, exactly like the paper's partial code generation
//    (§5).
//
// Both engines execute against a Snapshot — an immutable view of one
// dataset (Dataset::GetSnapshot()) — so a running query is never
// disturbed by concurrent flushes or merges.

#ifndef LSMCOL_QUERY_ENGINE_H_
#define LSMCOL_QUERY_ENGINE_H_

#include "src/lsm/snapshot.h"
#include "src/query/plan.h"

namespace lsmcol {

Result<QueryResult> RunInterpreted(const Snapshot& snapshot,
                                   const QueryPlan& plan);
Result<QueryResult> RunCompiled(const Snapshot& snapshot,
                                const QueryPlan& plan);

/// Dispatch by engine name ("interpreted" / "compiled").
Result<QueryResult> RunQuery(const Snapshot& snapshot, const QueryPlan& plan,
                             bool compiled);

}  // namespace lsmcol

#endif  // LSMCOL_QUERY_ENGINE_H_

// Flush and merge builders: functions from a sealed memtable, or from a
// range of adjacent on-disk components, to the leaves of one new
// component. They take the dataset's options, their inputs and the
// ComponentWriter to fill, and nothing else: no Dataset, no lock. The
// Dataset (src/lsm/dataset.h) owns everything around them — the temp
// file, the component metadata, retries, and publication.
//
// Flush (§4.5): row layouts write slotted leaves; columnar layouts shred
// each record against the schema (which grows the columns the records
// discover) and cut a leaf when the layout's budget fills (APAX: pending
// chunk bytes reach apax_fill_fraction of a page; AMAX: amax_max_records
// records, or a Page 0 that would overflow one page).
//
// Merge (§4.5.3): row layouts merge entry by entry, copying the winning
// encoded rows. Columnar layouts run the vertical merge: primary keys
// first, into a run-length survivor plan, then one column at a time
// following that plan; an output leaf that is exactly one input leaf is
// adopted byte for byte without decoding.

#ifndef LSMCOL_LSM_MERGE_H_
#define LSMCOL_LSM_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/lsm/component.h"
#include "src/lsm/memtable.h"
#include "src/lsm/options.h"

namespace lsmcol {

/// One merge's execution counters, filled by the build (which runs without
/// the dataset lock) and folded into DatasetStats at publish time.
struct MergeOutcome {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t runs_copied = 0;
  uint64_t leaves_adopted = 0;
};

/// Write `memtable`'s entries (records and anti-matter, in key order) as
/// leaves. Columnar layouts shred against `schema` and add the columns
/// the records discover to it; row layouts ignore it.
Status BuildFlushLeaves(const DatasetOptions& options,
                        const MemTable& memtable, ComponentWriter* writer,
                        Schema* schema);

/// Write the reconciliation of `inputs` (adjacent components, newest
/// first) as leaves: the newest entry of each key wins, and anti-matter
/// annihilates only when `includes_oldest` (no older component can hold
/// a record it deletes). `schema` (columnar layouts) must cover every
/// column of every input. `outcome->records_out` is the exact surviving
/// entry count, the output's ComponentMeta::entry_count.
Status BuildMergeLeaves(const DatasetOptions& options,
                        const std::vector<std::shared_ptr<Component>>& inputs,
                        bool includes_oldest, ComponentWriter* writer,
                        Schema* schema, MergeOutcome* outcome);

}  // namespace lsmcol

#endif  // LSMCOL_LSM_MERGE_H_

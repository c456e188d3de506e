// Merge selection ("compaction policy") for the primary LSM index. The
// policy answers two questions:
//
//   1. Given the current stack of disk components, how many of the
//      newest should the next merge rewrite?  (PickMergeCount)
//   2. How many disk components may pile up before writers stall to let
//      merges catch up?  (StallComponentLimit)
//
// Both are pure functions of the options and a snapshot of component
// descriptors (CompactionComponentView): no I/O, no clock, no state. That
// makes plan selection deterministic and directly unit-testable with
// injected descriptors (tests/compaction_test.cc). The two policies are
// described at CompactionStrategy in options.h and in
// docs/ARCHITECTURE.md.

#ifndef LSMCOL_LSM_COMPACTION_POLICY_H_
#define LSMCOL_LSM_COMPACTION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/lsm/options.h"

namespace lsmcol {

/// What a policy may know about one disk component. Views are listed
/// newest-first, matching Dataset's component stack: index 0 is the most
/// recent flush/merge output, the last index is the oldest data.
struct CompactionComponentView {
  /// On-disk file size — the currency of amplification accounting.
  uint64_t size_bytes = 0;
  /// Damaged component fenced off by the checksum/corruption path. No
  /// policy may select a quarantined component: merging one would read
  /// damaged pages.
  bool quarantined = false;
};

/// Select the next merge from a newest-first component snapshot: merge
/// the newest `count` components, or none when the result is 0 (merging
/// a single component is never useful, so a merge count is 0 or >= 2).
/// Never selects a quarantined component.
size_t PickMergeCount(const DatasetOptions& options,
                      const std::vector<CompactionComponentView>& components);

/// Writer back-pressure bound: once this many disk components exist,
/// writers block in WaitForWriteRoomLocked until merges shrink the
/// stack. Exceeds the policy's steady-state component count, or writers
/// would stall permanently.
size_t StallComponentLimit(const DatasetOptions& options);

}  // namespace lsmcol

#endif  // LSMCOL_LSM_COMPACTION_POLICY_H_

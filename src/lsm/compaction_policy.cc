#include "src/lsm/compaction_policy.h"

namespace lsmcol {
namespace {

/// Lazy-leveling absorbs the young components into the oldest run once
/// they reach 1/kLazyLevelingFanout of its size.
constexpr uint64_t kLazyLevelingFanout = 4;

/// The size-tiered rule over the newest `n` views: merge the newest
/// prefix [0, i] whose accumulated size reaches size_ratio times
/// component i, else force the two newest once the stack exceeds
/// max_components.
size_t TieredCount(const std::vector<CompactionComponentView>& views,
                   size_t n, double size_ratio, int max_components) {
  if (n < 2) return 0;
  size_t merge_count = 0;
  uint64_t younger_total = 0;
  for (size_t i = 0; i + 1 <= n; ++i) {
    if (i > 0) younger_total += views[i - 1].size_bytes;
    if (i >= 1 && static_cast<double>(younger_total) >=
                      size_ratio * static_cast<double>(views[i].size_bytes)) {
      merge_count = i + 1;
    }
  }
  if (merge_count < 2 && n > static_cast<size_t>(max_components)) {
    merge_count = 2;
  }
  return merge_count < 2 ? 0 : merge_count;
}

/// Tiered: any quarantined component suspends merging entirely
/// (quarantine is rare and an operator decision point, so the policy
/// goes quiet rather than merging around damage).
size_t TieredPick(const DatasetOptions& options,
                  const std::vector<CompactionComponentView>& views) {
  for (const auto& view : views) {
    if (view.quarantined) return 0;
  }
  return TieredCount(views, views.size(), options.size_ratio,
                     options.max_components);
}

/// Lazy-leveling (Dostoevsky): tiering everywhere except the last level.
/// The oldest component is kept as a single large run; the younger part
/// of the stack runs the tiered rule among themselves, and the big run
/// absorbs them only when their combined size reaches 1/fanout of its
/// own — so the expensive full rewrite happens once per fanout-fold of
/// growth instead of per size_ratio trigger.
size_t LazyLevelingPick(const DatasetOptions& options,
                        const std::vector<CompactionComponentView>& views) {
  // Only the healthy newest prefix is compactable: quarantined components
  // and everything older stay fenced off, but fresh flushes in front of
  // them must still merge or ingest would wedge behind one damaged
  // component.
  size_t n = 0;
  while (n < views.size() && !views[n].quarantined) ++n;
  if (n < 2) return 0;
  if (n == views.size()) {
    // The prefix reaches the oldest component — the "last level" run.
    uint64_t young_bytes = 0;
    for (size_t i = 0; i + 1 < n; ++i) young_bytes += views[i].size_bytes;
    if (young_bytes * kLazyLevelingFanout >= views[n - 1].size_bytes) {
      // Absorb: one full merge leaves a single last-level run again.
      return n;
    }
    // Otherwise tier among the young components only.
    --n;
  }
  // (A quarantined component hides the oldest run: everything healthy
  // counts as young and tiers among itself.)
  return TieredCount(views, n, options.size_ratio, options.max_components);
}

}  // namespace

size_t PickMergeCount(const DatasetOptions& options,
                      const std::vector<CompactionComponentView>& components) {
  return options.compaction == CompactionStrategy::kLazyLeveling
             ? LazyLevelingPick(options, components)
             : TieredPick(options, components);
}

size_t StallComponentLimit(const DatasetOptions& options) {
  // Tiered keeps at most max_components in steady state, so twice that
  // absorbs a merge backlog before writers stall. Lazy-leveling's young
  // part obeys the same max_components, plus the one resident last-level
  // run and one slot of slack for a merge output in flight.
  const size_t tiered = static_cast<size_t>(options.max_components) * 2;
  return options.compaction == CompactionStrategy::kLazyLeveling ? tiered + 2
                                                                 : tiered;
}

}  // namespace lsmcol

#include "src/lsm/scrubber.h"

#include <algorithm>
#include <chrono>

#include "src/lsm/dataset.h"
#include "src/lsm/snapshot.h"

namespace lsmcol {

using Clock = std::chrono::steady_clock;

namespace {

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

}  // namespace

Scrubber::Scrubber(FlushMergeScheduler* scheduler,
                   const ScrubOptions& options)
    : scheduler_(scheduler), options_(options) {}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Register(Dataset* dataset) {
  MutexLock lock(&mu_);
  datasets_.push_back(dataset);
}

void Scrubber::Start() {
  MutexLock lock(&mu_);
  if (started_ || scheduler_ == nullptr) return;
  started_ = true;
  ScheduleNext(Clock::now());
}

void Scrubber::Stop() {
  stopping_.store(true, std::memory_order_release);
  MutexLock lock(&mu_);
  while (running_) cv_.Wait(&mu_);
}

uint64_t Scrubber::slices_run() const {
  MutexLock lock(&mu_);
  return slices_;
}

void Scrubber::ScheduleNext(Clock::time_point not_before) {
  // Dropped silently when the scheduler is stopping — a scrub slice that
  // never runs costs nothing (the low lane's documented contract).
  (void)scheduler_->ScheduleLow([this] { RunSlice(); }, not_before);
}

void Scrubber::RunSlice() {
  Dataset* dataset = nullptr;
  ResumePoint at;
  {
    MutexLock lock(&mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      cv_.NotifyAll();
      return;
    }
    if (datasets_.empty()) {
      ScheduleNext(Clock::now() +
                   std::chrono::milliseconds(options_.interval_ms));
      return;
    }
    if (dataset_ >= datasets_.size()) {
      dataset_ = 0;
      at_ = ResumePoint{};
    }
    dataset = datasets_[dataset_];
    at = at_;
    running_ = true;
  }

  // --- I/O outside mu_: one slice against a snapshot pinned just for it
  // and released before any sleep. A transient error ends the slice with
  // `at` on the failed leaf; the next slice retries it.
  const Clock::time_point slice_start = Clock::now();
  ScrubPassResult tally;
  const Result<bool> walked = Walk(*dataset->GetSnapshot(),
                                   options_.max_slice_bytes, &stopping_, &at,
                                   &tally);
  const bool dataset_pass_done = walked.ok() && *walked;
  if (tally.leaves > 0 || dataset_pass_done) {
    dataset->NoteScrub(tally.leaves, tally.bytes, tally.damaged,
                       MicrosSince(slice_start), dataset_pass_done);
  }

  // Rate budget: a slice of N bytes earns N / bytes_per_sec of sleep.
  Clock::time_point next = Clock::now();
  if (options_.bytes_per_sec > 0 && tally.bytes > 0) {
    next += std::chrono::microseconds(tally.bytes * 1000000 /
                                      options_.bytes_per_sec);
  }

  MutexLock lock(&mu_);
  at_ = at;
  ++slices_;
  running_ = false;
  cv_.NotifyAll();
  if (stopping_.load(std::memory_order_acquire)) return;
  if (dataset_pass_done) {
    at_ = ResumePoint{};
    if (++dataset_ >= datasets_.size()) {
      // Full rotation over every dataset: idle until the next pass — but
      // never earlier than the rate budget allows, or a store small
      // enough to scan in one slice would be re-read at unbounded rate.
      dataset_ = 0;
      next = std::max(
          next, Clock::now() + std::chrono::milliseconds(options_.interval_ms));
    }
  }
  ScheduleNext(next);
}

Result<bool> Scrubber::Walk(const Snapshot& snap, uint64_t max_bytes,
                            const std::atomic<bool>* stop, ResumePoint* at,
                            ScrubPassResult* tally) {
  auto out_of_budget = [&] {
    return tally->bytes >= max_bytes ||
           (stop != nullptr && stop->load(std::memory_order_acquire));
  };
  Buffer payload;
  while (true) {
    // The next component of the pass: the smallest id >= the resume id.
    const Component* comp = nullptr;
    for (size_t i = 0; i < snap.component_count(); ++i) {
      const Component& c = snap.component(i);
      const uint64_t id = c.meta().component_id;
      if (id >= at->component &&
          (comp == nullptr || id < comp->meta().component_id)) {
        comp = &c;
      }
    }
    if (comp == nullptr) return true;
    const uint64_t id = comp->meta().component_id;
    if (id != at->component) *at = ResumePoint{id, 0};
    if (comp->quarantined()) {
      ++tally->skipped_quarantined;
      *at = ResumePoint{id + 1, 0};
      continue;
    }
    const size_t leaf_count = comp->reader().leaves().size();
    bool damaged = false;
    while (at->leaf < leaf_count && !damaged) {
      if (out_of_budget()) return false;
      Status st = comp->ReadLeaf(at->leaf, &payload);
      ++tally->leaves;
      if (st.ok()) {
        tally->bytes += payload.size();
        ++at->leaf;
      } else if (st.IsDataDamage()) {
        // The first damage quarantined the component; the rest of its
        // leaves would fail fast, so stop probing it.
        damaged = true;
      } else {
        return st;
      }
    }
    ++(damaged ? tally->damaged : tally->components);
    *at = ResumePoint{id + 1, 0};
  }
}

Result<ScrubPassResult> Scrubber::ScrubDataset(Dataset* dataset) {
  const Clock::time_point start = Clock::now();
  ScrubPassResult result;
  ResumePoint from;
  LSMCOL_RETURN_NOT_OK(Walk(*dataset->GetSnapshot(), UINT64_MAX,
                            /*stop=*/nullptr, &from, &result)
                           .status());
  dataset->NoteScrub(result.leaves, result.bytes, result.damaged,
                     MicrosSince(start), /*pass_complete=*/true);
  return result;
}

}  // namespace lsmcol

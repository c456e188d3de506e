#include "src/lsm/scrubber.h"

#include <algorithm>
#include <chrono>

#include "src/lsm/dataset.h"
#include "src/lsm/snapshot.h"

namespace lsmcol {

using Clock = std::chrono::steady_clock;

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
  Cursor cur;
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
    if (cursor_.dataset >= datasets_.size()) {
      cursor_.dataset = 0;
      cursor_.done.clear();
      cursor_.current_id = 0;
      cursor_.next_leaf = 0;
    }
    dataset = datasets_[cursor_.dataset];
    cur = cursor_;
    running_ = true;
  }

  // --- I/O outside mu_: one slice against a snapshot pinned just for it.
  const Clock::time_point slice_start = Clock::now();
  uint64_t leaves = 0, bytes = 0, damaged = 0, skipped = 0;
  bool dataset_pass_done = false;
  bool transient_error = false;
  {
    Snapshot::Ref snap = dataset->GetSnapshot();
    Buffer payload;
    while (!stopping_.load(std::memory_order_acquire) &&
           bytes < options_.max_slice_bytes && !transient_error) {
      // Resume the in-progress component, or pick the lowest-id one not
      // yet finished this pass (ids are stable; snapshot order is not).
      const Component* comp = nullptr;
      if (cur.current_id != 0) {
        for (size_t i = 0; i < snap->component_count(); ++i) {
          if (snap->component(i).meta().component_id == cur.current_id) {
            comp = &snap->component(i);
            break;
          }
        }
        if (comp == nullptr) {  // merged away between slices
          cur.current_id = 0;
          cur.next_leaf = 0;
        }
      }
      if (comp == nullptr) {
        uint64_t best = 0;
        for (size_t i = 0; i < snap->component_count(); ++i) {
          const Component& c = snap->component(i);
          const uint64_t id = c.meta().component_id;
          if (cur.done.count(id) != 0) continue;
          if (comp == nullptr || id < best) {
            comp = &c;
            best = id;
          }
        }
        if (comp == nullptr) {
          dataset_pass_done = true;
          break;
        }
        cur.current_id = comp->meta().component_id;
        cur.next_leaf = 0;
      }
      if (comp->quarantined()) {
        ++skipped;
        cur.done.insert(cur.current_id);
        cur.current_id = 0;
        continue;
      }
      const size_t leaf_count = comp->reader().leaves().size();
      while (cur.next_leaf < leaf_count &&
             bytes < options_.max_slice_bytes &&
             !stopping_.load(std::memory_order_acquire)) {
        Status st = comp->ReadLeaf(cur.next_leaf, &payload);
        ++leaves;
        if (st.ok()) {
          bytes += payload.size();
          ++cur.next_leaf;
        } else if (st.IsDataDamage()) {
          // First damage quarantined the component; the rest of its
          // leaves would fail fast — stop probing it.
          ++damaged;
          cur.done.insert(cur.current_id);
          cur.current_id = 0;
          break;
        } else {
          // Transient I/O error: end the slice, leave the cursor on the
          // same leaf so the next slice retries it.
          transient_error = true;
          break;
        }
      }
      if (cur.current_id != 0 && cur.next_leaf >= leaf_count) {
        cur.done.insert(cur.current_id);
        cur.current_id = 0;
        cur.next_leaf = 0;
      }
    }
  }  // snapshot released before any sleep

  const uint64_t micros =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - slice_start)
                                .count());
  if (leaves > 0 || damaged > 0 || dataset_pass_done) {
    dataset->NoteScrub(leaves, bytes, damaged, micros, dataset_pass_done);
  }

  // Rate budget: a slice of N bytes earns N / bytes_per_sec of sleep.
  Clock::time_point next = Clock::now();
  if (options_.bytes_per_sec > 0 && bytes > 0) {
    next += std::chrono::microseconds(bytes * 1000000 /
                                      options_.bytes_per_sec);
  }

  MutexLock lock(&mu_);
  cursor_ = std::move(cur);
  ++slices_;
  running_ = false;
  cv_.NotifyAll();
  if (stopping_.load(std::memory_order_acquire)) return;
  if (dataset_pass_done) {
    cursor_.done.clear();
    cursor_.current_id = 0;
    cursor_.next_leaf = 0;
    ++cursor_.dataset;
    if (cursor_.dataset >= datasets_.size()) {
      // Full rotation over every dataset: idle until the next pass — but
      // never earlier than the rate budget allows, or a store small
      // enough to scan in one slice would be re-read at unbounded rate.
      cursor_.dataset = 0;
      next = std::max(
          next, Clock::now() + std::chrono::milliseconds(options_.interval_ms));
    }
  }
  ScheduleNext(next);
}

Result<ScrubPassResult> Scrubber::ScrubDataset(Dataset* dataset) {
  const Clock::time_point start = Clock::now();
  ScrubPassResult result;
  Snapshot::Ref snap = dataset->GetSnapshot();
  Buffer payload;
  for (size_t i = 0; i < snap->component_count(); ++i) {
    const Component& c = snap->component(i);
    if (c.quarantined()) {
      ++result.skipped_quarantined;
      continue;
    }
    bool comp_damaged = false;
    const size_t leaf_count = c.reader().leaves().size();
    for (size_t leaf = 0; leaf < leaf_count; ++leaf) {
      Status st = c.ReadLeaf(leaf, &payload);
      ++result.leaves;
      if (st.ok()) {
        result.bytes += payload.size();
      } else if (st.IsDataDamage()) {
        comp_damaged = true;
        break;
      } else {
        return st;  // transient I/O error: surface, don't quarantine
      }
    }
    if (comp_damaged) {
      ++result.damaged;
    } else {
      ++result.components;
    }
  }
  const uint64_t micros =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - start)
                                .count());
  dataset->NoteScrub(result.leaves, result.bytes, result.damaged, micros,
                     /*pass_complete=*/true);
  return result;
}

}  // namespace lsmcol

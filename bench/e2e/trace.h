// In-memory span recorder for the traced benchmark run.
//
// A span is one call the benchmark made into a module: name ("layer.what",
// e.g. "storage.leaf_read"), start, end, its own id, the id of the span
// that was open on the same thread when it began (its parent), and the id
// of the benchmark operation it belongs to. Spans are kept in per-thread
// buffers and written once, at exit, as Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing).
//
// Self time is a span's duration minus the part of it covered by its
// child spans; per-layer metrics are built from self times grouped by
// operation (SelfTimeByOp).
//
// A disabled tracer records nothing: Scope's constructor is one branch.

#ifndef LSMCOL_BENCH_E2E_TRACE_H_
#define LSMCOL_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace lsmcol::e2e {

/// Monotonic clock in nanoseconds (the one clock every timer uses).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadBuffer;

struct Span {
  const char* name = "";  ///< string literal: static storage
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t op = 0;      ///< benchmark operation id; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh operation id (1, 2, ...).
  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }

  /// RAII span. With op == 0 the span inherits the op of the span open on
  /// this thread (if any).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buffer_ = nullptr;
    size_t index_ = 0;
  };

  /// Every span recorded so far. Call only after the recording threads
  /// have finished (or from the only recording thread).
  std::vector<Span> Collect() const;

  /// Per operation: span name -> summed self time in nanoseconds.
  static std::map<uint64_t, std::map<std::string, int64_t>> SelfTimeByOp(
      const std::vector<Span>& spans);

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  static Status WriteChromeTrace(const std::vector<Span>& spans,
                                 const std::string& path);

 private:
  ThreadBuffer* BufferForThisThread();

  const bool enabled_;
  const int64_t origin_ns_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration and Collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace lsmcol::e2e

#endif  // LSMCOL_BENCH_E2E_TRACE_H_

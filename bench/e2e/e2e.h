// Shared pieces of the end-to-end benchmark program (lsmcol_e2e): the run
// configuration, the failure ledger, named sample series, and the
// counter windows the per-layer metrics are built from. See README.md for
// what is measured and why.
//
// The program measures the library strictly from the outside: every timer
// and trace span wraps a call into a public function of one module, and
// nothing here reaches into src/ internals.

#ifndef LSMCOL_BENCH_E2E_E2E_H_
#define LSMCOL_BENCH_E2E_E2E_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/e2e/trace.h"
#include "src/common/status.h"
#include "src/json/value.h"
#include "src/lsm/dataset.h"
#include "src/storage/buffer_cache.h"

namespace lsmcol::e2e {

/// Command-line configuration of one workload process.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10;
  /// Multiplies every input size (the smoke run uses 0.02).
  double scale = 1.0;
  /// Fewest set-ups (short ones repeat further, see TimedSetups);
  /// setup_s is their median.
  int setups = 5;
  /// Store directory (created fresh, removed at exit).
  std::string dir;
  /// Chrome trace output; empty = tracing off.
  std::string trace_path;
  std::string out_path;

  bool traced() const { return !trace_path.empty(); }
  /// `n` scaled, never below `floor`.
  uint64_t Scaled(uint64_t n, uint64_t floor) const;
};

/// Seconds elapsed since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples;
/// 0 for an empty set.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Order-insensitive structural digest of a document: object members
/// combine commutatively, arrays in order. Equal digests = equal
/// documents up to object key order (record assembly reorders fields into
/// schema order, so byte comparison would be wrong).
uint64_t DocDigest(const Value& v);

/// Thread-safe ledger of attempted and failed operations, plus failed
/// post-run checks. The first few failure descriptions are kept.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  /// One failed operation of the timed phase.
  void Fail(const std::string& what);
  /// A failed post-run check: the run becomes incorrect.
  void FailCheck(const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool checks_passed() const { return check_failures_.load() == 0; }
  std::vector<std::string> errors() const;

 private:
  void Note(const std::string& what);

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> check_failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
};

/// Write-path counters summed over the workload's write window (the
/// set-up load for the scans, the traced rounds for wos_ingest, the
/// timed phase for tweet2_mixed).
struct WriteWindow {
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t merge_micros = 0;
  uint64_t merge_records_in = 0;
  uint64_t merge_leaves_adopted = 0;
  uint64_t flush_bytes_out = 0;
  uint64_t merge_bytes_out = 0;
  uint64_t write_stalls = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_group_max = 0;
  /// Compact-JSON bytes of the documents written in the window.
  uint64_t user_bytes = 0;

  /// Adds end - begin of one dataset's counters.
  void Add(const DatasetStats& begin, const DatasetStats& end);
};

/// Everything a workload run reports back to main().
class RunContext {
 public:
  explicit RunContext(const Config& c) : config(c), tracer(c.traced()) {}

  const Config& config;
  Tracer tracer;
  Ledger ledger;

  /// Appends to a named sample series (thread-safe).
  void Sample(const std::string& series, double value);
  std::vector<double> Series(const std::string& series) const;

  /// Sets an end-to-end or per-layer metric.
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples = 1);
  struct MetricValue {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };
  const std::map<std::string, MetricValue>& metrics() const {
    return metrics_;
  }

  /// Free-form facts for the result file (sizes, counts, settings).
  std::map<std::string, std::string> info;

  // Filled by the workloads for the per-layer report (trace mode).
  /// Root span name of the workload's main read operation ("op.query" or
  /// "op.lookup"): the read-path layer metrics are medians over it.
  std::string primary_read_op = "op.query";
  CacheStats timed_cache;  ///< cache counter delta over the timed phase
  uint64_t timed_ops = 0;
  WriteWindow write;
  int schema_columns = 0;

  /// Computes the end-to-end throughput of the run's fastest pass, `ops`
  /// operations in `seconds`, and peak memory from getrusage. Other
  /// tenants of the host only ever slow a pass down, so the fastest one is
  /// the steadiest measure of the program's own cost (README.md,
  /// "Passes").
  void ReportTimedPhase(uint64_t ops, double seconds);
  /// Computes every per-layer metric from the recorded spans, series and
  /// windows above (trace mode).
  void ReportLayers(const std::vector<Span>& spans);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, MetricValue> metrics_;
};

/// `end - begin` of every counter.
CacheStats CacheDelta(const CacheStats& begin, const CacheStats& end);
/// Adds every counter of `delta` into `*sum`.
void AddCache(CacheStats* sum, const CacheStats& delta);

/// Workload entry points (workloads.cc). Each runs set-up, the timed
/// phase and the post-run checks, reporting into `ctx`; an error status
/// means the run could not complete (failed operations and checks go to
/// the ledger instead).
Status RunSensorsScan(RunContext* ctx);
Status RunTweetColdScan(RunContext* ctx);
Status RunWosIngest(RunContext* ctx);
Status RunTweet2Mixed(RunContext* ctx);

}  // namespace lsmcol::e2e

#endif  // LSMCOL_BENCH_E2E_E2E_H_

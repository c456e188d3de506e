// Shared benchmark harness: dataset building, timing, table printing.
// Every figure/table binary prints the same rows/series the paper reports,
// plus the buffer-cache I/O counters (bytes read), which reproduce the
// I/O-cost shapes independent of the machine.
//
// Scale: datasets are scaled from the paper's ~200 GB to laptop-size runs.
// Set LSMCOL_BENCH_SCALE (a float, default 1.0) to shrink or grow every
// dataset, e.g. LSMCOL_BENCH_SCALE=0.1 for a smoke run.

#ifndef LSMCOL_BENCH_BENCH_UTIL_H_
#define LSMCOL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/datagen/datagen.h"
#include "src/index/indexed_dataset.h"
#include "src/lsm/dataset.h"
#include "src/query/engine.h"

namespace lsmcol::bench {

inline double Scale() {
  const char* env = std::getenv("LSMCOL_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline uint64_t ScaledRecords(Workload w) {
  uint64_t n = static_cast<uint64_t>(
      static_cast<double>(DefaultBenchRecords(w)) * Scale());
  return n < 100 ? 100 : n;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

constexpr LayoutKind kAllLayouts[] = {LayoutKind::kOpen, LayoutKind::kVb,
                                      LayoutKind::kApax, LayoutKind::kAmax};

/// Workspace: a temp directory + a paper-configured buffer cache.
struct Workspace {
  explicit Workspace(const std::string& name,
                     size_t page_size = 128 * 1024,
                     size_t cache_bytes = 1536u << 20) {
    dir = std::string("/tmp/lsmcol_bench_") + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    cache = std::make_unique<BufferCache>(cache_bytes, page_size);
    this->page_size = page_size;
  }
  ~Workspace() { std::filesystem::remove_all(dir); }

  std::string dir;
  size_t page_size;
  std::unique_ptr<BufferCache> cache;
};

inline DatasetOptions BenchOptions(const Workspace& ws, LayoutKind layout,
                                   const std::string& name) {
  DatasetOptions options;
  options.layout = layout;
  options.dir = ws.dir;
  options.name = name;
  options.page_size = ws.page_size;
  options.memtable_bytes = 12u << 20;  // several flushes per dataset
  options.amax_max_records = 15000;
  return options;
}

/// Mega-leaf granularity scaled to the dataset: the paper's 15000-record
/// Page-0 limit assumes million-record datasets; at bench scale it would
/// collapse a whole component into one leaf, leaving zone maps nothing
/// to skip, while very small leaves waste a physical page per megapage.
inline size_t BenchAmaxMaxRecords(uint64_t records) {
  const uint64_t per_leaf = records / 16;
  if (per_leaf < 2000) return 2000;
  if (per_leaf > 15000) return 15000;
  return static_cast<size_t>(per_leaf);
}

/// Build (ingest + final flush) one workload into one layout. Returns the
/// dataset; *ingest_seconds gets the wall time including flushes/merges.
inline std::unique_ptr<Dataset> BuildDataset(Workspace* ws, Workload w,
                                             LayoutKind layout,
                                             uint64_t records,
                                             double* ingest_seconds) {
  auto options = BenchOptions(*ws, layout,
                              std::string(WorkloadName(w)) + "_" +
                                  LayoutKindName(layout));
  options.amax_max_records = BenchAmaxMaxRecords(records);
  // Open = create-or-recover; the workspace directory is fresh, so this
  // creates an empty dataset (and validates the options up front).
  auto ds = Dataset::Open(options, ws->cache.get());
  LSMCOL_CHECK(ds.ok());
  Rng rng(42);
  Timer timer;
  for (uint64_t i = 0; i < records; ++i) {
    Value v = MakeRecord(w, static_cast<int64_t>(i), &rng);
    LSMCOL_CHECK_OK((*ds)->Insert(v));
  }
  LSMCOL_CHECK_OK((*ds)->Flush());
  if (ingest_seconds != nullptr) *ingest_seconds = timer.Seconds();
  return std::move(*ds);
}

/// Run a query cold (cache cleared) and return seconds; fills bytes_read
/// (and pages_read when requested).
inline double TimeQuery(Dataset* ds, const QueryPlan& plan, bool compiled,
                        uint64_t* bytes_read, QueryResult* result = nullptr,
                        uint64_t* pages_read = nullptr) {
  ds->cache()->Clear();
  ds->cache()->ResetStats();
  Timer timer;
  auto r = RunQuery(*ds->GetSnapshot(), plan, compiled);
  LSMCOL_CHECK(r.ok());
  double seconds = timer.Seconds();
  if (bytes_read != nullptr) *bytes_read = ds->cache()->stats().bytes_read;
  if (pages_read != nullptr) *pages_read = ds->cache()->stats().pages_read;
  if (result != nullptr) *result = std::move(*r);
  return seconds;
}

/// Repeat a query: one warm-up + `reps` timed runs (paper: 6 runs, report
/// the average of the last 5). Cache stays warm across the timed runs,
/// like the paper's repeated executions.
inline double TimeQueryAvg(Dataset* ds, const QueryPlan& plan, bool compiled,
                           int reps, uint64_t* cold_bytes_read) {
  double first = TimeQuery(ds, plan, compiled, cold_bytes_read);
  (void)first;
  double total = 0;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    auto r = RunQuery(*ds->GetSnapshot(), plan, compiled);
    LSMCOL_CHECK(r.ok());
    total += timer.Seconds();
  }
  return total / reps;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Order-insensitive result comparison (engines may break ORDER BY ties
/// differently): rows serialize to canonical byte strings, sorted.
inline bool ResultsEquivalent(const QueryResult& a, const QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  auto canon = [](const QueryResult& r) {
    std::vector<std::string> rows;
    rows.reserve(r.rows.size());
    for (const auto& row : r.rows) {
      std::string s;
      for (const Value& v : row) {
        const std::string part = GroupKey(v);
        s += std::to_string(part.size());
        s.push_back(':');
        s += part;
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  return canon(a) == canon(b);
}

/// Minimal JSON results file: an array of flat objects, written on
/// Finish(). Keys/strings here are ASCII identifiers; escaping covers
/// quotes and backslashes.
class BenchJson {
 public:
  /// Empty path disables recording (all calls become no-ops).
  explicit BenchJson(std::string path) : path_(std::move(path)) {}

  class Obj {
   public:
    Obj& Str(const char* key, const std::string& v) {
      Field(key) += '"' + Escaped(v) + '"';
      return *this;
    }
    Obj& Num(const char* key, double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f", v);
      Field(key) += buf;
      return *this;
    }
    Obj& Int(const char* key, uint64_t v) {
      Field(key) += std::to_string(v);
      return *this;
    }
    const std::string& body() const { return body_; }

   private:
    static std::string Escaped(const std::string& s) {
      std::string out;
      for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      return out;
    }
    std::string& Field(const char* key) {
      if (!body_.empty()) body_ += ", ";
      body_ += '"';
      body_ += key;
      body_ += "\": ";
      return body_;
    }
    std::string body_;
  };

  bool enabled() const { return !path_.empty(); }

  void Add(const Obj& obj) {
    if (enabled()) entries_.push_back("  {" + obj.body() + "}");
  }

  /// Write the file; returns false (with a message) on I/O failure.
  bool Finish() const {
    if (!enabled()) return true;
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    out << "[\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out << entries_[i] << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::string path_;
  std::vector<std::string> entries_;
};

inline std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(bytes) / 1024.0);
  }
  return buf;
}

}  // namespace lsmcol::bench

#endif  // LSMCOL_BENCH_BENCH_UTIL_H_

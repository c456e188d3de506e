// Statistics helpers, the failure ledger, and the computation of the
// end-to-end and per-layer metrics from samples, counters and spans.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench/e2e/e2e.h"

namespace lsmcol::e2e {

uint64_t Config::Scaled(uint64_t n, uint64_t floor) const {
  const auto scaled = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) * scale));
  return std::max(scaled, floor);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

uint64_t DocDigest(const Value& v) {
  switch (v.type()) {
    case ValueType::kMissing:
      return Mix(1);
    case ValueType::kNull:
      return Mix(2);
    case ValueType::kBool:
      return Mix(3 + (v.bool_value() ? 16 : 0));
    case ValueType::kInt64:
      return Mix(Mix(4) ^ static_cast<uint64_t>(v.int_value()));
    case ValueType::kDouble: {
      uint64_t bits = 0;
      const double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(Mix(5) ^ bits);
    }
    case ValueType::kString:
      return Mix(Mix(6) ^ HashBytes(v.string_value()));
    case ValueType::kArray: {
      uint64_t h = Mix(7);
      for (const Value& e : v.array()) h = Mix(h * 31 + DocDigest(e));
      return h;
    }
    case ValueType::kObject: {
      uint64_t sum = 0;  // commutative: member order does not matter
      for (const auto& [key, member] : v.object()) {
        sum += Mix(HashBytes(key) ^ Mix(DocDigest(member)));
      }
      return Mix(Mix(8) ^ sum);
    }
  }
  return 0;
}

// ------------------------------------------------------------- Ledger

void Ledger::Note(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_.size() < 8) errors_.push_back(what);
}

void Ledger::Fail(const std::string& what) {
  failed_.fetch_add(1);
  Note(what);
}

void Ledger::FailCheck(const std::string& what) {
  check_failures_.fetch_add(1);
  Note(what);
}

std::vector<std::string> Ledger::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

// ------------------------------------------------------------- windows

void WriteWindow::Add(const DatasetStats& begin, const DatasetStats& end) {
  flushes += end.flushes - begin.flushes;
  merges += end.merges - begin.merges;
  merge_micros += end.merge_micros - begin.merge_micros;
  merge_records_in += end.merge_records_in - begin.merge_records_in;
  merge_leaves_adopted += end.merge_leaves_adopted - begin.merge_leaves_adopted;
  flush_bytes_out += end.flush_bytes_out - begin.flush_bytes_out;
  merge_bytes_out += end.merge_bytes_out - begin.merge_bytes_out;
  write_stalls += end.write_stalls - begin.write_stalls;
  wal_appends += end.wal_appends - begin.wal_appends;
  wal_syncs += end.wal_syncs - begin.wal_syncs;
  wal_bytes += end.wal_bytes - begin.wal_bytes;
  wal_group_max = std::max(wal_group_max, end.wal_group_entries_max);
}

CacheStats CacheDelta(const CacheStats& begin, const CacheStats& end) {
  CacheStats d;
  d.pages_read = end.pages_read - begin.pages_read;
  d.bytes_read = end.bytes_read - begin.bytes_read;
  d.pages_written = end.pages_written - begin.pages_written;
  d.bytes_written = end.bytes_written - begin.bytes_written;
  d.hits = end.hits - begin.hits;
  d.misses = end.misses - begin.misses;
  d.evictions = end.evictions - begin.evictions;
  d.confiscations = end.confiscations - begin.confiscations;
  return d;
}

void AddCache(CacheStats* sum, const CacheStats& delta) {
  sum->pages_read += delta.pages_read;
  sum->bytes_read += delta.bytes_read;
  sum->pages_written += delta.pages_written;
  sum->bytes_written += delta.bytes_written;
  sum->hits += delta.hits;
  sum->misses += delta.misses;
  sum->evictions += delta.evictions;
  sum->confiscations += delta.confiscations;
}

// ---------------------------------------------------------- RunContext

void RunContext::Sample(const std::string& series, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[series].push_back(value);
}

std::vector<double> RunContext::Series(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  return it == series_.end() ? std::vector<double>() : it->second;
}

void RunContext::Metric(const std::string& name, double value,
                        const std::string& unit, uint64_t samples) {
  metrics_[name] = MetricValue{value, unit, samples};
}

void RunContext::ReportTimedPhase(uint64_t ops, double seconds) {
  // Peak memory through set-up and the timed phase; the post-run checks
  // come later and do not count.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MiB");
  Metric("ops_per_s", static_cast<double>(ops) / seconds, "1/s", ops);
  info["pass_seconds"] = std::to_string(seconds);
  info["pass_ops"] = std::to_string(ops);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void RunContext::ReportLayers(const std::vector<Span>& spans) {
  const auto self = Tracer::SelfTimeByOp(spans);
  std::map<uint64_t, std::string> roots;  // op id -> root span name
  for (const Span& s : spans) {
    if (s.parent == 0 && s.op != 0 && std::strncmp(s.name, "op.", 3) == 0) {
      roots[s.op] = s.name;
    }
  }
  auto kind_of = [&roots](uint64_t op) {
    auto it = roots.find(op);
    return it == roots.end() ? std::string() : it->second;
  };
  // Per-op self time of `span` (ns) over the ops that contain it,
  // optionally only ops of one kind.
  auto per_op = [&](const std::string& span, const std::string& of_kind) {
    std::vector<double> out;
    for (const auto& [op, names] : self) {
      if (!of_kind.empty() && kind_of(op) != of_kind) continue;
      auto it = names.find(span);
      if (it != names.end()) out.push_back(static_cast<double>(it->second));
    }
    return out;
  };
  auto median_ms = [&](const char* metric, const std::string& span,
                       const std::string& of_kind) {
    const auto v = per_op(span, of_kind);
    Metric(metric, Median(v) / 1e6, "ms", v.size());
  };

  // Write path (flush replays hang off the op that flushed).
  {
    const auto v = per_op("json.parse", "op.insert");
    Metric("json.parse_us", Median(v) / 1e3, "us", v.size());
  }
  median_ms("schema.infer_ms", "schema.infer", "");
  Metric("schema.columns", schema_columns, "count");
  median_ms("columnar.shred_ms", "columnar.shred", "");
  median_ms("layouts.emit_leaf_ms", "layouts.emit_leaf", "");
  median_ms("storage.component_finish_ms", "storage.component_finish", "");
  median_ms("encoding.lz_compress_ms", "encoding.lz_compress", "");

  // Read path: medians over the workload's main read operation.
  const std::string& read = primary_read_op;
  median_ms("storage.leaf_read_ms", "storage.leaf_read", read);
  median_ms("storage.checksum_ms", "storage.checksum", read);
  median_ms("encoding.lz_decompress_ms", "encoding.lz_decompress", read);
  median_ms("layouts.leaf_open_ms", "layouts.leaf_open", read);
  median_ms("columnar.decode_ms", "columnar.decode", read);
  median_ms("columnar.assemble_ms", "columnar.assemble", read);
  {
    const auto v = Series("entries." + read);
    Metric("columnar.entries_decoded", Median(v), "count", v.size());
  }
  {
    const auto v = Series("components." + read);
    Metric("lsm.components", Median(v), "count", v.size());
  }
  {
    const auto v = per_op("lsm.get_snapshot", read);
    Metric("lsm.snapshot_us", Median(v) / 1e3, "us", v.size());
  }

  auto get = [](const std::map<std::string, int64_t>& names, const char* n) {
    auto it = names.find(n);
    return it == names.end() ? 0.0 : static_cast<double>(it->second);
  };

  // Query decomposition: the Next()-only drain, what materializing adds
  // to it, and what RunQuery spends beyond the materializing drain.
  std::vector<double> next_ms, materialize_ms, engine_ms;
  for (const auto& [op, names] : self) {
    const double drain = get(names, "lsm.materialize");
    if (kind_of(op) != "op.query" || drain == 0) continue;
    const double next = get(names, "lsm.scan_next");
    next_ms.push_back(next / 1e6);
    materialize_ms.push_back((drain - next) / 1e6);
    engine_ms.push_back((get(names, "query.run_query") - drain) / 1e6);
  }
  Metric("lsm.scan_next_ms", Median(next_ms), "ms", next_ms.size());
  Metric("lsm.materialize_ms", Median(materialize_ms), "ms",
         materialize_ms.size());
  Metric("query.engine_self_ms", Median(engine_ms), "ms", engine_ms.size());

  // Replay coverage over the main read operation: the replayed layers'
  // time against the read they replay (a query's materializing drain, a
  // lookup's Snapshot::Lookup call).
  const char* replayed_read =
      read == "op.lookup" ? "lsm.lookup" : "lsm.materialize";
  const char* kReplayLayers[] = {"storage.leaf_read",      "storage.checksum",
                                 "encoding.lz_decompress", "layouts.leaf_open",
                                 "columnar.decode",        "columnar.assemble"};
  double replay_ns = 0, read_ns = 0;
  uint64_t replayed_ops = 0;
  for (const auto& [op, names] : self) {
    if (kind_of(op) != read) continue;
    double layers = 0;
    for (const char* layer : kReplayLayers) layers += get(names, layer);
    if (layers == 0) continue;  // not replayed, or nothing on disk to read
    replay_ns += layers;
    read_ns += get(names, replayed_read);
    ++replayed_ops;
  }
  Metric("trace.replay_coverage", Ratio(replay_ns, read_ns), "ratio",
         replayed_ops);
  // Medians of sample series the workloads recorded directly.
  const struct {
    const char* series;
    const char* metric;
    const char* unit;
  } kSeriesMedians[] = {
      {"pushdown_pages_saved", "query.pushdown_pages_saved", "count"},
      {"lookup_hit_us", "lsm.lookup_hit_p50_us", "us"},
      {"lookup_miss_us", "lsm.lookup_miss_p50_us", "us"},
      {"memtable_insert_us", "lsm.memtable_insert_p50_us", "us"},
      {"flush_ms", "lsm.flush_ms", "ms"},
  };
  for (const auto& m : kSeriesMedians) {
    const auto v = Series(m.series);
    Metric(m.metric, Median(v), m.unit, v.size());
  }

  // LSM write-path counters of the write window.
  Metric("lsm.flushes", static_cast<double>(write.flushes), "count");
  Metric("lsm.merges", static_cast<double>(write.merges), "count");
  Metric("lsm.merge_ms",
         Ratio(static_cast<double>(write.merge_micros) / 1e3,
               static_cast<double>(write.merges)),
         "ms", write.merges);
  Metric("lsm.merge_records_per_s",
         Ratio(static_cast<double>(write.merge_records_in),
               static_cast<double>(write.merge_micros) / 1e6),
         "1/s", write.merges);
  Metric("lsm.merge_leaves_adopted",
         static_cast<double>(write.merge_leaves_adopted), "count");
  Metric("lsm.write_amp",
         Ratio(static_cast<double>(write.flush_bytes_out +
                                   write.merge_bytes_out),
               static_cast<double>(write.flush_bytes_out)),
         "ratio");
  Metric("lsm.write_stalls", static_cast<double>(write.write_stalls),
         "count");

  // Storage counters.
  const auto ops = static_cast<double>(timed_ops);
  Metric("storage.pages_read_per_op",
         Ratio(static_cast<double>(timed_cache.pages_read), ops), "count");
  Metric("storage.bytes_read_per_op",
         Ratio(static_cast<double>(timed_cache.bytes_read), ops), "bytes");
  Metric("storage.evictions_per_op",
         Ratio(static_cast<double>(timed_cache.evictions), ops), "count");
  Metric("storage.cache_hit_ratio",
         Ratio(static_cast<double>(timed_cache.hits),
               static_cast<double>(timed_cache.hits + timed_cache.misses)),
         "ratio");
  Metric("storage.bytes_written_per_user_byte",
         Ratio(static_cast<double>(write.flush_bytes_out +
                                   write.merge_bytes_out),
               static_cast<double>(write.user_bytes)),
         "ratio");
  Metric("storage.wal_syncs_per_write",
         Ratio(static_cast<double>(write.wal_syncs),
               static_cast<double>(write.wal_appends)),
         "ratio");
  Metric("storage.wal_bytes_per_write",
         Ratio(static_cast<double>(write.wal_bytes),
               static_cast<double>(write.wal_appends)),
         "bytes");
  Metric("storage.wal_group_max", static_cast<double>(write.wal_group_max),
         "count");

  // Tracing cost: the traced half of the timed phase against the
  // untraced half (op latency medians).
  Metric("trace.overhead_frac",
         Ratio(Median(Series("op_us_traced")), Median(Series("op_us"))) - 1,
         "ratio", Series("op_us_traced").size());
}

}  // namespace lsmcol::e2e

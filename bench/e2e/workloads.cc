// The four workloads. Each one generates its inputs from the seed before
// any timer starts, sets up the store several times (setup_s is the
// median), runs a closed-loop timed phase of `seconds`, and checks the
// store's outputs afterwards. README.md gives the sizes and the reasons.
//
// Trace mode runs one set-up with spans on, the first half of the timed
// phase without spans and the second half with spans plus the per-op
// decomposition and replays, and finally probe operations for the layers
// the timed phase does not reach (queries on the write workloads, point
// lookups on the scans), so every workload reports every layer metric.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <thread>

#include "bench/e2e/e2e.h"
#include "bench/e2e/replay.h"
#include "bench/queries.h"
#include "src/datagen/datagen.h"
#include "src/json/parser.h"
#include "src/lsm/component.h"
#include "src/query/engine.h"
#include "src/query/expr.h"
#include "src/query/pushdown.h"
#include "src/store/store.h"

namespace lsmcol::e2e {
namespace {

constexpr size_t kMiB = 1u << 20;
constexpr char kDatasetName[] = "data";
/// Point lookups of each kind (hit, miss) the probe phase runs.
constexpr int kProbeLookups = 16;

// ---------------------------------------------------------------- inputs

/// Generated documents as compact JSON text, with the digest of the
/// document each one parses to (the value the store must give back).
struct Docs {
  std::vector<std::string> json;
  std::vector<uint64_t> digest;
  uint64_t bytes = 0;
};

bool HasEmptyArray(const Value& v) {
  if (v.is_array()) {
    if (v.array().empty()) return true;
    for (const Value& e : v.array()) {
      if (HasEmptyArray(e)) return true;
    }
  } else if (v.is_object()) {
    for (const auto& member : v.object()) {
      if (HasEmptyArray(member.second)) return true;
    }
  }
  return false;
}

Docs MakeDocs(Workload workload, uint64_t count, uint64_t seed) {
  Docs docs;
  Rng rng(seed);
  for (uint64_t id = 0; id < count; ++id) {
    Value doc = MakeRecord(workload, static_cast<int64_t>(id), &rng);
    // Known library bug: a document shredded while one of its arrays is
    // empty and the array's element type is still unknown to the schema
    // (e.g. the first document of a store with "hashtags": []) reads back
    // without that field. The first document is therefore redrawn until
    // every array in it is non-empty, so no run trips over the bug.
    while (id == 0 && HasEmptyArray(doc)) doc = MakeRecord(workload, 0, &rng);
    std::string json = ToJson(doc);
    auto parsed = ParseJson(json);
    LSMCOL_CHECK_OK(parsed.status());
    docs.digest.push_back(DocDigest(*parsed));
    docs.bytes += json.size();
    docs.json.push_back(std::move(json));
  }
  return docs;
}

// ----------------------------------------------------------------- store

/// An open store with its one dataset.
struct Db {
  std::unique_ptr<Store> store;
  Dataset* ds = nullptr;
};

Status OpenDb(const StoreOptions& store_options,
              const DatasetOptions& dataset_options, Db* db) {
  *db = Db();
  LSMCOL_ASSIGN_OR_RETURN(db->store, Store::Open(store_options));
  LSMCOL_ASSIGN_OR_RETURN(
      db->ds, db->store->OpenDataset(kDatasetName, dataset_options));
  return Status::OK();
}

/// Fresh store directory under the run directory.
std::string FreshDir(const Config& config, const std::string& name) {
  const std::string dir = config.dir + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- loader

/// Parses and inserts documents one operation at a time (ParseJson, then
/// Dataset::Insert). Traced, each document is an "op.insert" with
/// json.parse and lsm.insert spans; an insert during which the dataset
/// flushed gives a flush sample, and that flush's documents are replayed
/// through the write path (ReplayFlush).
class Loader {
 public:
  Loader(RunContext* ctx, Dataset* ds, bool traced)
      : ctx_(ctx),
        ds_(ds),
        traced_(traced),
        replay_schema_(ds->options().pk_field),
        scratch_(ctx->config.dir + "/replay.cmp") {}

  /// One document; *us gets the parse+insert latency.
  Status Insert(const std::string& json, double* us) {
    if (!traced_) {
      const int64_t start = NowNs();
      auto parsed = ParseJson(json);
      Status st = parsed.ok() ? ds_->Insert(*parsed) : parsed.status();
      *us = static_cast<double>(NowNs() - start) / 1e3;
      return st;
    }
    Tracer* tracer = &ctx_->tracer;
    const DatasetStats before = ds_->stats();
    const uint64_t op = tracer->NewOp();
    std::optional<Result<Value>> parsed;
    Status st;
    int64_t write_ns = 0;
    const int64_t start = NowNs();
    {
      Tracer::Scope span(tracer, "op.insert", op);
      {
        Tracer::Scope parse(tracer, "json.parse");
        parsed.emplace(ParseJson(json));
      }
      if (parsed->ok()) {
        const int64_t write_start = NowNs();
        Tracer::Scope insert(tracer, "lsm.insert");
        st = ds_->Insert(**parsed);
        write_ns = NowNs() - write_start;
      }
    }
    *us = static_cast<double>(NowNs() - start) / 1e3;
    LSMCOL_RETURN_NOT_OK(parsed->status());
    LSMCOL_RETURN_NOT_OK(st);
    pending_.push_back(std::move(**parsed));
    const DatasetStats after = ds_->stats();
    if (after.flushes > before.flushes) {
      NoteFlush(op, before, after, write_ns);
    } else if (after.merges == before.merges) {
      ctx_->Sample("memtable_insert_us", static_cast<double>(write_ns) / 1e3);
    }
    return Status::OK();
  }

  Status Flush() {
    if (!traced_) return ds_->Flush();
    Tracer* tracer = &ctx_->tracer;
    const DatasetStats before = ds_->stats();
    const uint64_t op = tracer->NewOp();
    Status st;
    const int64_t start = NowNs();
    {
      Tracer::Scope span(tracer, "op.flush", op);
      Tracer::Scope flush(tracer, "lsm.flush");
      st = ds_->Flush();
    }
    const int64_t write_ns = NowNs() - start;
    LSMCOL_RETURN_NOT_OK(st);
    const DatasetStats after = ds_->stats();
    if (after.flushes > before.flushes) {
      NoteFlush(op, before, after, write_ns);
    }
    return Status::OK();
  }

 private:
  // An inline flush runs its merges on the same call: the flush's own
  // time is the call minus the merge builds' wall time.
  void NoteFlush(uint64_t op, const DatasetStats& before,
                 const DatasetStats& after, int64_t write_ns) {
    const double merge_ms =
        static_cast<double>(after.merge_micros - before.merge_micros) / 1e3;
    ctx_->Sample("flush_ms", static_cast<double>(write_ns) / 1e6 - merge_ms);
    std::vector<const Value*> docs;
    docs.reserve(pending_.size());
    for (const Value& doc : pending_) docs.push_back(&doc);
    size_t leaves = 0;
    {
      Tracer::Scope replay(&ctx_->tracer, "replay", op);
      Status st = ReplayFlush(&ctx_->tracer, docs, ds_->options(),
                              &replay_schema_, scratch_, &leaves);
      if (!st.ok()) ctx_->ledger.FailCheck("flush replay: " + st.ToString());
    }
    pending_.clear();
    // The replay copies the dataset's leaf-cut rule: when no merge has
    // replaced the flushed component yet (the newest one), both must have
    // cut the same leaves, or the replay times another layout.
    if (after.merges != before.merges) return;
    const Snapshot::Ref snapshot = ds_->GetSnapshot();
    if (snapshot->component_count() == 0) return;
    const size_t flushed = snapshot->component(0).reader().leaves().size();
    if (flushed != leaves) {
      ctx_->ledger.FailCheck("flush replay cut " + std::to_string(leaves) +
                             " leaves, the flush wrote " +
                             std::to_string(flushed));
    }
  }

  RunContext* ctx_;
  Dataset* ds_;
  bool traced_;
  Schema replay_schema_;
  std::vector<Value> pending_;  // documents since the last flush (traced)
  std::string scratch_;
};

/// Loads every document through a Loader (traced in trace mode), then
/// flushes.
Status LoadDocs(RunContext* ctx, Dataset* ds, const Docs& docs) {
  Loader loader(ctx, ds, ctx->config.traced());
  double us = 0;
  for (const std::string& json : docs.json) {
    LSMCOL_RETURN_NOT_OK(loader.Insert(json, &us));
  }
  return loader.Flush();
}

/// Runs `setup` config.setups times (once in trace mode), each time after
/// closing `db` and emptying `dir`, and reports the median as setup_s.
/// Set-ups that add up to less than kMinSetupSeconds are repeated further,
/// up to kMaxSetupFactor times as often: a sub-second set-up falls into
/// one of the host's fast or slow spells, and more of them steady the
/// median. The timed phase runs on what the last set-up left in `db`.
constexpr double kMinSetupSeconds = 3.0;
constexpr int kMaxSetupFactor = 3;

Status TimedSetups(RunContext* ctx, const std::string& dir, Db* db,
                   const std::function<Status()>& setup) {
  std::vector<double> seconds;
  const int setups = ctx->config.traced() ? 1 : ctx->config.setups;
  const int most = ctx->config.traced() ? 1 : setups * kMaxSetupFactor;
  double total = 0;
  while (static_cast<int>(seconds.size()) < setups ||
         (static_cast<int>(seconds.size()) < most &&
          total < kMinSetupSeconds)) {
    *db = Db();
    std::filesystem::remove_all(dir);
    const int64_t start = NowNs();
    LSMCOL_RETURN_NOT_OK(setup());
    seconds.push_back(SecondsSince(start));
    total += seconds.back();
  }
  ctx->Metric("setup_s", Median(seconds), "s", seconds.size());
  return Status::OK();
}

// ------------------------------------------------------------ operations

/// Order-insensitive query result comparison: the engines may break
/// ORDER BY ties differently.
bool SameResult(const QueryResult& a, const QueryResult& b) {
  auto canonical = [](const QueryResult& r) {
    std::vector<std::string> rows;
    for (const auto& row : r.rows) {
      std::string s;
      for (const Value& v : row) {
        const std::string part = GroupKey(v);
        s += std::to_string(part.size()) + ":" + part;
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  return a.rows.size() == b.rows.size() && canonical(a) == canonical(b);
}

/// Cache pages fetched (hits + misses) by one run of `plan`.
uint64_t PagesFetched(Dataset* ds, const Snapshot& snapshot,
                      const QueryPlan& plan) {
  const CacheStats before = ds->cache()->stats();
  auto result = RunQuery(snapshot, plan, /*compiled=*/true);
  const CacheStats delta = CacheDelta(before, ds->cache()->stats());
  return result.ok() ? delta.hits + delta.misses : 0;
}

/// Traced decomposition of one query op on its own snapshot: the scan
/// drained with Next() only, then with Record() (interpreted) or Path()
/// per scan path (compiled), then the read replay; plus, for plans with
/// pushable filters, the pages pushdown saved.
Status DecomposeQuery(RunContext* ctx, Dataset* ds, uint64_t op,
                      const Snapshot& snapshot, const QueryPlan& plan,
                      bool compiled) {
  Tracer* tracer = &ctx->tracer;
  Tracer::Scope root(tracer, "replay", op);
  const auto paths = plan.ScanPaths();
  const Projection projection = Projection::Of(paths);
  PredicatePushdown pushdown;
  if (compiled && plan.pushdown) {
    Tracer::Scope span(tracer, "query.extract_pushdown");
    pushdown = ExtractPushdown(plan);
  }
  {
    Tracer::Scope span(tracer, "lsm.scan_next");
    LSMCOL_ASSIGN_OR_RETURN(auto cursor,
                            snapshot.Scan(projection, pushdown.predicates));
    while (true) {
      LSMCOL_ASSIGN_OR_RETURN(bool more, cursor->Next());
      if (!more) break;
    }
  }
  {
    Tracer::Scope span(tracer, "lsm.materialize");
    LSMCOL_ASSIGN_OR_RETURN(auto cursor,
                            snapshot.Scan(projection, pushdown.predicates));
    Value value;
    while (true) {
      LSMCOL_ASSIGN_OR_RETURN(bool more, cursor->Next());
      if (!more) break;
      if (!compiled) {
        LSMCOL_RETURN_NOT_OK(cursor->Record(&value));
        continue;
      }
      LSMCOL_ASSIGN_OR_RETURN(PredicateVerdict verdict,
                              cursor->TestPushedPredicates());
      if (verdict == PredicateVerdict::kNoMatch) continue;
      for (const auto& path : paths) {
        LSMCOL_RETURN_NOT_OK(cursor->Path(path, &value));
      }
    }
  }
  uint64_t entries = 0;
  LSMCOL_RETURN_NOT_OK(
      ReplayRead(tracer, snapshot, projection, std::nullopt, &entries));
  ctx->Sample("entries.op.query", static_cast<double>(entries));
  ctx->Sample("components.op.query",
              static_cast<double>(snapshot.component_count()));
  if (pushdown.any()) {
    QueryPlan unpushed = plan;
    unpushed.pushdown = false;
    const uint64_t with = PagesFetched(ds, snapshot, plan);
    const uint64_t without = PagesFetched(ds, snapshot, unpushed);
    ctx->Sample("pushdown_pages_saved",
                static_cast<double>(without) - static_cast<double>(with));
  }
  return Status::OK();
}

/// One query: GetSnapshot + RunQuery. Returns the latency in
/// microseconds; a failed or wrong result goes to the ledger.
double QueryOp(RunContext* ctx, Dataset* ds, const bench::NamedQuery& query,
               bool compiled, const QueryResult* reference, bool traced) {
  Tracer* tracer = traced ? &ctx->tracer : nullptr;
  const uint64_t op = traced ? tracer->NewOp() : 0;
  Snapshot::Ref snapshot;
  std::optional<Result<QueryResult>> result;
  const int64_t start = NowNs();
  {
    Tracer::Scope span(tracer, "op.query", op);
    {
      Tracer::Scope get(tracer, "lsm.get_snapshot");
      snapshot = ds->GetSnapshot();
    }
    Tracer::Scope run(tracer, "query.run_query");
    result.emplace(RunQuery(*snapshot, query.plan, compiled));
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  ctx->ledger.Attempt();
  if (!result->ok()) {
    ctx->ledger.Fail(query.id + ": " + result->status().ToString());
  } else if (reference != nullptr && !SameResult(**result, *reference)) {
    ctx->ledger.Fail(query.id + ": result differs from its reference");
  }
  if (traced) {
    Status st =
        DecomposeQuery(ctx, ds, op, *snapshot, query.plan, compiled);
    if (!st.ok()) ctx->ledger.FailCheck("query replay: " + st.ToString());
  }
  return us;
}

/// One point lookup (GetSnapshot + Snapshot::Lookup). `expected` is the
/// digest of the stored document, or nullopt for a key that must miss.
double LookupOp(RunContext* ctx, Dataset* ds, int64_t key,
                std::optional<uint64_t> expected, bool traced, bool replay) {
  Tracer* tracer = traced ? &ctx->tracer : nullptr;
  const uint64_t op = traced ? tracer->NewOp() : 0;
  Snapshot::Ref snapshot;
  Value value;
  Status st;
  int64_t lookup_ns = 0;
  const int64_t start = NowNs();
  {
    Tracer::Scope span(tracer, "op.lookup", op);
    {
      Tracer::Scope get(tracer, "lsm.get_snapshot");
      snapshot = ds->GetSnapshot();
    }
    const int64_t lookup_start = NowNs();
    Tracer::Scope lookup(tracer, "lsm.lookup");
    st = snapshot->Lookup(key, &value);
    lookup_ns = NowNs() - lookup_start;
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  ctx->ledger.Attempt();
  const std::string what = "lookup " + std::to_string(key) + ": ";
  if (expected.has_value()) {
    if (!st.ok()) {
      ctx->ledger.Fail(what + st.ToString());
    } else if (DocDigest(value) != *expected) {
      ctx->ledger.Fail(what + "value differs from the stored document");
    }
  } else if (st.ok()) {
    ctx->ledger.Fail(what + "a miss returned a record");
  } else if (!st.IsNotFound()) {
    ctx->ledger.Fail(what + st.ToString());
  }
  if (traced) {
    ctx->Sample(expected.has_value() ? "lookup_hit_us" : "lookup_miss_us",
                static_cast<double>(lookup_ns) / 1e3);
  }
  if (traced && replay) {
    Tracer::Scope root(tracer, "replay", op);
    uint64_t entries = 0;
    Status replayed =
        ReplayRead(tracer, *snapshot, Projection::All(), key, &entries);
    if (!replayed.ok()) {
      ctx->ledger.FailCheck("lookup replay: " + replayed.ToString());
    }
    ctx->Sample("entries.op.lookup", static_cast<double>(entries));
    ctx->Sample("components.op.lookup",
                static_cast<double>(snapshot->component_count()));
  }
  return us;
}

/// Traced probe lookups: hits on keys [0, docs.size()), misses beyond.
void ProbeLookups(RunContext* ctx, Dataset* ds, const Docs& docs) {
  Rng rng(ctx->config.seed ^ 0x5eedULL);
  const auto n = static_cast<int64_t>(docs.json.size());
  for (int i = 0; i < kProbeLookups; ++i) {
    const int64_t hit = static_cast<int64_t>(rng.Uniform(docs.json.size()));
    LookupOp(ctx, ds, hit, docs.digest[static_cast<size_t>(hit)], true, true);
    LookupOp(ctx, ds, n + static_cast<int64_t>(rng.Uniform(docs.json.size())),
             std::nullopt, true, true);
  }
}

/// Traced probe queries (one run each, compiled engine).
void ProbeQueries(RunContext* ctx, Dataset* ds, Workload data) {
  for (const bench::NamedQuery& query : bench::QueriesFor(data)) {
    QueryOp(ctx, ds, query, /*compiled=*/true, nullptr, /*traced=*/true);
  }
}

void NoteSchema(RunContext* ctx, Dataset* ds) {
  const Snapshot::Ref snapshot = ds->GetSnapshot();
  if (snapshot->schema() != nullptr) {
    ctx->schema_columns = snapshot->schema()->column_count();
  }
}

// ------------------------------------------------------------------ scans

struct ScanSpec {
  Workload data;
  LayoutKind layout;
  uint64_t docs;
  size_t memtable_bytes;
  size_t amax_max_records;
  size_t cache_bytes;
  bool compiled;
  /// The cross-engine check runs on every check_stride-th document (1 =
  /// on the benchmark's own store).
  uint64_t check_stride;
};

/// Both engines must agree on every query over a store holding every
/// `spec.check_stride`-th document (ids kept, so range filters still
/// select a slice of it).
Status CrossCheckEngines(RunContext* ctx, const ScanSpec& spec,
                         const Docs& docs, StoreOptions store_options,
                         const DatasetOptions& dataset_options,
                         const std::vector<bench::NamedQuery>& queries) {
  store_options.dir = FreshDir(ctx->config, "check");
  Db db;
  LSMCOL_RETURN_NOT_OK(OpenDb(store_options, dataset_options, &db));
  for (size_t i = 0; i < docs.json.size(); i += spec.check_stride) {
    LSMCOL_RETURN_NOT_OK(db.ds->InsertJson(docs.json[i]));
  }
  LSMCOL_RETURN_NOT_OK(db.ds->Flush());
  const Snapshot::Ref snapshot = db.ds->GetSnapshot();
  for (const bench::NamedQuery& query : queries) {
    LSMCOL_ASSIGN_OR_RETURN(QueryResult compiled,
                            RunQuery(*snapshot, query.plan, true));
    LSMCOL_ASSIGN_OR_RETURN(QueryResult interpreted,
                            RunQuery(*snapshot, query.plan, false));
    if (!SameResult(compiled, interpreted)) {
      ctx->ledger.FailCheck(query.id + ": engines disagree");
    }
  }
  return Status::OK();
}

Status RunScan(RunContext* ctx, const ScanSpec& spec) {
  const Config& config = ctx->config;
  const Docs docs = MakeDocs(spec.data, config.Scaled(spec.docs, 50),
                             config.seed);
  StoreOptions store_options;
  store_options.dir = FreshDir(config, "store");
  store_options.cache_bytes = spec.cache_bytes;
  DatasetOptions dataset_options;
  dataset_options.layout = spec.layout;
  dataset_options.memtable_bytes = spec.memtable_bytes;
  dataset_options.amax_max_records = spec.amax_max_records;

  // Set-up: load through the JSON front door (inline flushes and merges),
  // close, and reopen — the timed phase starts from a recovered store.
  Db db;
  LSMCOL_RETURN_NOT_OK(TimedSetups(ctx, store_options.dir, &db, [&] {
    LSMCOL_RETURN_NOT_OK(OpenDb(store_options, dataset_options, &db));
    const DatasetStats before = db.ds->stats();
    LSMCOL_RETURN_NOT_OK(LoadDocs(ctx, db.ds, docs));
    ctx->write = WriteWindow();
    ctx->write.Add(before, db.ds->stats());
    ctx->write.user_bytes = docs.bytes;
    return OpenDb(store_options, dataset_options, &db);
  }));
  ctx->Metric("bytes_per_user_byte",
              static_cast<double>(db.ds->OnDiskBytes()) /
                  static_cast<double>(docs.bytes),
              "ratio");
  ctx->info["docs"] = std::to_string(docs.json.size());
  ctx->info["user_bytes"] = std::to_string(docs.bytes);
  ctx->info["disk_bytes"] = std::to_string(db.ds->OnDiskBytes());
  ctx->info["components"] = std::to_string(db.ds->component_count());

  // References, taken once (this also warms the cache) and checked twice:
  // against the same engine without pushdown, and against the other
  // engine.
  const auto queries = bench::QueriesFor(spec.data);
  std::vector<QueryResult> references;
  for (const bench::NamedQuery& query : queries) {
    const Snapshot::Ref snapshot = db.ds->GetSnapshot();
    LSMCOL_ASSIGN_OR_RETURN(QueryResult reference,
                            RunQuery(*snapshot, query.plan, spec.compiled));
    QueryPlan unpushed = query.plan;
    unpushed.pushdown = false;
    LSMCOL_ASSIGN_OR_RETURN(QueryResult plain,
                            RunQuery(*snapshot, unpushed, spec.compiled));
    if (!SameResult(reference, plain)) {
      ctx->ledger.FailCheck(query.id + ": pushdown changed the result");
    }
    references.push_back(std::move(reference));
  }

  // Timed phase: whole passes over the queries until the time is up. The
  // queries are independent, so the run's fastest pass is each query's
  // fastest run. The metrics and counters cover the untraced passes only
  // (all of them outside trace mode): the traced half's decomposition
  // re-reads data.
  const CacheStats cache_begin = db.ds->cache()->stats();
  CacheStats cache_end;
  const int64_t start = NowNs();
  std::vector<double> fastest_us(queries.size(),
                                 std::numeric_limits<double>::infinity());
  uint64_t untraced_ops = 0;
  bool tracing = false;
  do {
    if (config.traced() && SecondsSince(start) >= config.seconds / 2) {
      if (!tracing) cache_end = db.ds->cache()->stats();
      tracing = true;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      const double us = QueryOp(ctx, db.ds, queries[q], spec.compiled,
                                &references[q], tracing);
      ctx->Sample(tracing ? "op_us_traced" : "op_us", us);
      if (tracing) continue;
      fastest_us[q] = std::min(fastest_us[q], us);
      ++untraced_ops;
    }
  } while (SecondsSince(start) < config.seconds);
  if (!tracing) cache_end = db.ds->cache()->stats();
  ctx->timed_cache = CacheDelta(cache_begin, cache_end);
  ctx->timed_ops = untraced_ops;
  double pass_us = 0;
  for (double us : fastest_us) pass_us += us;
  ctx->ReportTimedPhase(queries.size(), pass_us / 1e6);
  ctx->info["timed_queries"] = std::to_string(untraced_ops);

  // The cross-engine check runs after the timed phase so its memory does
  // not count in peak_rss_mb.
  if (spec.check_stride == 1) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const Snapshot::Ref snapshot = db.ds->GetSnapshot();
      LSMCOL_ASSIGN_OR_RETURN(
          QueryResult other,
          RunQuery(*snapshot, queries[q].plan, !spec.compiled));
      if (!SameResult(references[q], other)) {
        ctx->ledger.FailCheck(queries[q].id + ": engines disagree");
      }
    }
  } else {
    LSMCOL_RETURN_NOT_OK(CrossCheckEngines(ctx, spec, docs, store_options,
                                           dataset_options, queries));
  }
  if (config.traced()) ProbeLookups(ctx, db.ds, docs);
  NoteSchema(ctx, db.ds);
  ctx->primary_read_op = "op.query";
  return Status::OK();
}

// ------------------------------------------------------------- wos_ingest

Status CheckReadBack(RunContext* ctx, Dataset* ds, const Docs& docs) {
  const Snapshot::Ref snapshot = ds->GetSnapshot();
  LSMCOL_ASSIGN_OR_RETURN(auto cursor, snapshot->Scan(Projection::All()));
  uint64_t seen = 0;
  Value doc;
  while (true) {
    LSMCOL_ASSIGN_OR_RETURN(bool more, cursor->Next());
    if (!more) break;
    LSMCOL_RETURN_NOT_OK(cursor->Record(&doc));
    const int64_t key = cursor->key();
    if (key < 0 || static_cast<uint64_t>(key) >= docs.json.size() ||
        DocDigest(doc) != docs.digest[static_cast<size_t>(key)]) {
      ctx->ledger.FailCheck("doc " + std::to_string(key) +
                            " does not read back equal to its source");
    }
    ++seen;
  }
  if (seen != docs.json.size()) {
    ctx->ledger.FailCheck("read back " + std::to_string(seen) + " of " +
                          std::to_string(docs.json.size()) + " docs");
  }
  return Status::OK();
}

// ----------------------------------------------------------- tweet2_mixed

constexpr int kMixedClients = 3;
constexpr size_t kUpsertPool = 256;
constexpr uint64_t kTraceEvery = 4;
/// Seconds the mix runs untimed before the timed phase.
constexpr double kMixedWarmupS = 2.0;
/// Key state in the model: a pool index, or one of these.
constexpr int32_t kDeleted = -1;
constexpr int32_t kPreloaded = -2;

/// The key model of the mixed workload. Keys [0, half) are preloaded and
/// read-only; [half, n) are split into one stripe per client, which only
/// that client writes; lookups that must miss use keys >= n.
struct MixedModel {
  uint64_t n = 0;
  uint64_t half = 0;
  std::vector<int32_t> state;  // for keys [half, n)
  std::vector<std::vector<Value>> pools;  // per client: upsert documents
  std::vector<std::vector<uint64_t>> pool_bytes;

  int Client(int64_t key) const {
    const uint64_t stripe = (n - half + kMixedClients - 1) / kMixedClients;
    return static_cast<int>((static_cast<uint64_t>(key) - half) / stripe);
  }
  std::pair<int64_t, int64_t> Stripe(int client) const {
    const uint64_t stripe = (n - half + kMixedClients - 1) / kMixedClients;
    const uint64_t lo = half + stripe * static_cast<uint64_t>(client);
    return {static_cast<int64_t>(lo),
            static_cast<int64_t>(std::min(n, lo + stripe))};
  }
  /// The upsert document of `client`'s pool slot, stored under `key`.
  Value PoolDoc(int client, int32_t slot, int64_t key) const {
    Value doc = pools[static_cast<size_t>(client)][static_cast<size_t>(slot)];
    doc.Set("id", Value::Int(key));
    return doc;
  }
};

/// Full-scan digest check of the store against the model; returns the
/// compact-JSON bytes of the live documents.
Result<uint64_t> CheckModel(RunContext* ctx, Dataset* ds, const Docs& docs,
                            const MixedModel& model, const char* when) {
  const Snapshot::Ref snapshot = ds->GetSnapshot();
  LSMCOL_ASSIGN_OR_RETURN(auto cursor, snapshot->Scan(Projection::All()));
  uint64_t seen = 0;
  Value doc;
  while (true) {
    LSMCOL_ASSIGN_OR_RETURN(bool more, cursor->Next());
    if (!more) break;
    LSMCOL_RETURN_NOT_OK(cursor->Record(&doc));
    const int64_t key = cursor->key();
    ++seen;
    std::optional<uint64_t> expected;
    if (key >= 0 && static_cast<uint64_t>(key) < model.n) {
      const int32_t state =
          static_cast<uint64_t>(key) < model.half
              ? kPreloaded
              : model.state[static_cast<size_t>(key) - model.half];
      if (state == kPreloaded) {
        expected = docs.digest[static_cast<size_t>(key)];
      } else if (state >= 0) {
        expected = DocDigest(model.PoolDoc(model.Client(key), state, key));
      }
    }
    if (!expected.has_value() || DocDigest(doc) != *expected) {
      ctx->ledger.FailCheck(std::string(when) + ": key " +
                            std::to_string(key) + " differs from the model");
    }
  }
  uint64_t live = model.half, live_bytes = 0;
  for (uint64_t k = 0; k < model.half; ++k) live_bytes += docs.json[k].size();
  for (size_t i = 0; i < model.state.size(); ++i) {
    const int32_t state = model.state[i];
    if (state == kDeleted) continue;
    ++live;
    const int64_t key = static_cast<int64_t>(model.half + i);
    live_bytes += state == kPreloaded
                      ? docs.json[static_cast<size_t>(key)].size()
                      : model.pool_bytes[static_cast<size_t>(
                            model.Client(key))][static_cast<size_t>(state)];
  }
  if (seen != live) {
    ctx->ledger.FailCheck(std::string(when) + ": scan saw " +
                          std::to_string(seen) + " docs, model has " +
                          std::to_string(live));
  }
  return live_bytes;
}

/// One client: 80% upserts and 5% deletes on its own stripe, 15% lookups
/// (80% hits on the read-only half, 20% misses). Ops before `timed_ns`
/// warm the reopened store up and count in no metric.
void MixedClient(RunContext* ctx, Dataset* ds, const Docs& docs,
                 MixedModel* model, int client, int64_t timed_ns,
                 int64_t half_ns, int64_t deadline_ns, uint64_t* ops,
                 uint64_t* user_bytes) {
  const Config& config = ctx->config;
  Rng rng(config.seed * 1000003ULL + static_cast<uint64_t>(client) + 1);
  const auto [lo, hi] = model->Stripe(client);
  std::vector<Value>& pool = model->pools[static_cast<size_t>(client)];
  size_t next_slot = 0;
  uint64_t lookups = 0, op_index = 0;
  while (NowNs() < deadline_ns) {
    const bool warming = NowNs() < timed_ns;
    // In the traced half every kTraceEvery-th op carries spans (enough
    // samples per layer, and a trace file Perfetto opens quickly); the
    // other ops of that half count in neither latency series.
    const bool second_half = config.traced() && NowNs() >= half_ns;
    const bool traced = second_half && op_index++ % kTraceEvery == 0;
    Tracer* tracer = traced ? &ctx->tracer : nullptr;
    const double r = rng.NextDouble();
    double us = 0;
    if (r < 0.85) {
      const int64_t key = lo + static_cast<int64_t>(
                                   rng.Uniform(static_cast<uint64_t>(hi - lo)));
      int32_t& state = model->state[static_cast<size_t>(key) - model->half];
      const bool upsert = r < 0.80;
      const int32_t slot =
          upsert ? static_cast<int32_t>(next_slot++ % kUpsertPool) : kDeleted;
      if (upsert) pool[static_cast<size_t>(slot)].Set("id", Value::Int(key));
      Status st;
      const int64_t start = NowNs();
      {
        Tracer::Scope span(tracer, upsert ? "op.upsert" : "op.delete",
                           traced ? ctx->tracer.NewOp() : 0);
        Tracer::Scope write(tracer, upsert ? "lsm.insert" : "lsm.delete");
        st = upsert ? ds->Insert(pool[static_cast<size_t>(slot)])
                    : ds->Delete(key);
      }
      us = static_cast<double>(NowNs() - start) / 1e3;
      ctx->ledger.Attempt();
      if (!st.ok()) {
        ctx->ledger.Fail((upsert ? "upsert: " : "delete: ") + st.ToString());
      } else {
        state = slot;
        if (upsert && !warming) {
          *user_bytes += model->pool_bytes[static_cast<size_t>(client)]
                                          [static_cast<size_t>(slot)];
        }
      }
    } else if (rng.Bernoulli(0.8)) {
      const auto key = static_cast<int64_t>(rng.Uniform(model->half));
      us = LookupOp(ctx, ds, key, docs.digest[static_cast<size_t>(key)],
                    traced, lookups++ % 10 == 0);
    } else {
      const auto key = static_cast<int64_t>(model->n + rng.Uniform(model->n));
      us = LookupOp(ctx, ds, key, std::nullopt, traced, lookups++ % 10 == 0);
    }
    if (warming) continue;
    if (!second_half) {
      ctx->Sample("op_us", us);
      ++*ops;
    } else if (traced) {
      ctx->Sample("op_us_traced", us);
    }
  }
}

}  // namespace

Status RunSensorsScan(RunContext* ctx) {
  // Warm: ~4 MB on disk under a 1.5 GiB cache, compiled engine. The
  // interpreted engine takes 7-14 s and ~3.7 GB per sensors query at
  // 4,000 docs, so the cross-engine check runs on every tenth doc.
  return RunScan(ctx, ScanSpec{Workload::kSensors, LayoutKind::kAmax, 2000,
                               2 * kMiB, 500, 1536 * kMiB, true, 10});
}

Status RunTweetColdScan(RunContext* ctx) {
  // Cold: ~8 MB on disk through a 2 MiB cache, interpreted engine.
  return RunScan(ctx, ScanSpec{Workload::kTweet1, LayoutKind::kApax, 3000,
                               2 * kMiB, 15000, 2 * kMiB, false, 1});
}

Status RunWosIngest(RunContext* ctx) {
  const Config& config = ctx->config;
  const Docs docs = MakeDocs(Workload::kWos, config.Scaled(10000, 100),
                             config.seed);
  const size_t warmup_docs = docs.json.size() / 5;
  StoreOptions store_options;
  store_options.dir = FreshDir(config, "store");
  store_options.cache_bytes = 64 * kMiB;
  DatasetOptions dataset_options;
  dataset_options.layout = LayoutKind::kApax;
  dataset_options.memtable_bytes = 4 * kMiB;

  // Set-up: open an empty store and ingest a warm-up fifth of the input.
  Db db;
  LSMCOL_RETURN_NOT_OK(TimedSetups(ctx, store_options.dir, &db, [&] {
    LSMCOL_RETURN_NOT_OK(OpenDb(store_options, dataset_options, &db));
    for (size_t d = 0; d < warmup_docs; ++d) {
      LSMCOL_RETURN_NOT_OK(db.ds->InsertJson(docs.json[d]));
    }
    LSMCOL_RETURN_NOT_OK(db.ds->Flush());
    db = Db();
    return Status::OK();
  }));

  // Timed phase: rounds of the whole input into a fresh empty store; a
  // round's clock covers the inserts and the final Flush, not the store
  // creation between rounds. The metrics describe the fastest untraced
  // round (the first round is always untraced).
  uint64_t rounds = 0;
  double fastest_s = std::numeric_limits<double>::infinity();
  const int64_t start = NowNs();
  while (rounds == 0 || SecondsSince(start) < config.seconds) {
    const bool traced =
        config.traced() && SecondsSince(start) >= config.seconds / 2;
    db = Db();
    std::filesystem::remove_all(store_options.dir);
    LSMCOL_RETURN_NOT_OK(OpenDb(store_options, dataset_options, &db));
    const CacheStats cache_begin = db.ds->cache()->stats();
    const DatasetStats before = db.ds->stats();
    Loader loader(ctx, db.ds, traced);
    const int64_t round_start = NowNs();
    for (const std::string& json : docs.json) {
      double us = 0;
      Status st = loader.Insert(json, &us);
      ctx->ledger.Attempt();
      if (!st.ok()) ctx->ledger.Fail("insert: " + st.ToString());
      ctx->Sample(traced ? "op_us_traced" : "op_us", us);
    }
    Status st = loader.Flush();
    if (!st.ok()) ctx->ledger.Fail("flush: " + st.ToString());
    const double seconds = SecondsSince(round_start);
    if (traced) {
      ctx->write.Add(before, db.ds->stats());
      ctx->write.user_bytes += docs.bytes;
    } else {
      fastest_s = std::min(fastest_s, seconds);
    }
    ++rounds;
    // Every round has its own store and cache: sum the rounds' windows.
    AddCache(&ctx->timed_cache,
             CacheDelta(cache_begin, db.ds->cache()->stats()));
  }
  ctx->timed_ops = rounds * docs.json.size();
  ctx->ReportTimedPhase(docs.json.size(), fastest_s);
  ctx->info["rounds"] = std::to_string(rounds);
  ctx->info["docs_per_round"] = std::to_string(docs.json.size());
  ctx->info["user_bytes"] = std::to_string(docs.bytes);
  ctx->info["disk_bytes"] = std::to_string(db.ds->OnDiskBytes());
  ctx->info["flushes_last_round"] = std::to_string(db.ds->stats().flushes);
  ctx->info["merges_last_round"] = std::to_string(db.ds->stats().merges);
  ctx->Metric("bytes_per_user_byte",
              static_cast<double>(db.ds->OnDiskBytes()) /
                  static_cast<double>(docs.bytes),
              "ratio");

  LSMCOL_RETURN_NOT_OK(CheckReadBack(ctx, db.ds, docs));
  if (config.traced()) {
    ProbeQueries(ctx, db.ds, Workload::kWos);
    ProbeLookups(ctx, db.ds, docs);
  }
  NoteSchema(ctx, db.ds);
  ctx->primary_read_op = "op.query";
  return Status::OK();
}

Status RunTweet2Mixed(RunContext* ctx) {
  const Config& config = ctx->config;
  MixedModel model;
  model.n = config.Scaled(20000, 120);
  model.half = model.n / 2;
  model.state.assign(model.n - model.half, kPreloaded);
  const Docs docs = MakeDocs(Workload::kTweet2, model.n, config.seed);
  Rng pool_rng(config.seed ^ 0x9001ULL);
  for (int c = 0; c < kMixedClients; ++c) {
    model.pools.emplace_back();
    model.pool_bytes.emplace_back();
    for (size_t i = 0; i < kUpsertPool; ++i) {
      Value doc = MakeTweet2Record(
          0, 1460000000000 + static_cast<int64_t>(i) * 1000, &pool_rng);
      model.pool_bytes.back().push_back(ToJson(doc).size());
      model.pools.back().push_back(std::move(doc));
    }
  }

  StoreOptions load_options;
  load_options.dir = FreshDir(config, "store");
  load_options.cache_bytes = 64 * kMiB;
  StoreOptions serve_options = load_options;
  serve_options.background_threads = 1;
  serve_options.wal.enabled = true;  // group commit
  DatasetOptions dataset_options;
  dataset_options.layout = LayoutKind::kAmax;
  dataset_options.memtable_bytes = 1 * kMiB;

  // Set-up: preload inline without the WAL, then reopen as the serving
  // store (WAL on, one background flush/merge worker).
  Db db;
  LSMCOL_RETURN_NOT_OK(TimedSetups(ctx, load_options.dir, &db, [&] {
    LSMCOL_RETURN_NOT_OK(OpenDb(load_options, dataset_options, &db));
    LSMCOL_RETURN_NOT_OK(LoadDocs(ctx, db.ds, docs));
    LSMCOL_RETURN_NOT_OK(OpenDb(serve_options, dataset_options, &db));
    return db.ds->WaitForBackgroundWork();
  }));

  // Warm-up, then the timed phase. The reopened store starts with a cold
  // cache, so the clients first run the mix untimed for a while; the
  // counter windows start when the timed phase does.
  std::vector<uint64_t> ops(kMixedClients, 0), user_bytes(kMixedClients, 0);
  const int64_t start = NowNs() + static_cast<int64_t>(kMixedWarmupS * 1e9);
  const auto seconds_ns = static_cast<int64_t>(config.seconds * 1e9);
  DatasetStats stats_begin;
  CacheStats cache_begin;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kMixedClients; ++c) {
      clients.emplace_back(MixedClient, ctx, db.ds, std::cref(docs), &model, c,
                           start, start + seconds_ns / 2, start + seconds_ns,
                           &ops[static_cast<size_t>(c)],
                           &user_bytes[static_cast<size_t>(c)]);
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(start - NowNs()));
    stats_begin = db.ds->stats();
    cache_begin = db.ds->cache()->stats();
    for (std::thread& t : clients) t.join();
  }
  const double elapsed = SecondsSince(start);
  uint64_t total_ops = 0;
  for (int c = 0; c < kMixedClients; ++c) {
    total_ops += ops[static_cast<size_t>(c)];
    ctx->write.user_bytes += user_bytes[static_cast<size_t>(c)];
  }
  ctx->write.Add(stats_begin, db.ds->stats());
  ctx->timed_cache = CacheDelta(cache_begin, db.ds->cache()->stats());
  ctx->timed_ops = ctx->ledger.attempted();
  // The store never returns to the same state, so the whole (untraced)
  // timed phase is this workload's one pass.
  ctx->ReportTimedPhase(total_ops, config.traced() ? elapsed / 2 : elapsed);

  // Post-run checks: the full-scan digest against the model, then again
  // after destroying the store without Flush and reopening it (the WAL
  // replay must bring back every acknowledged write).
  LSMCOL_RETURN_NOT_OK(CheckModel(ctx, db.ds, docs, model, "live").status());
  db = Db();
  LSMCOL_RETURN_NOT_OK(OpenDb(serve_options, dataset_options, &db));
  LSMCOL_ASSIGN_OR_RETURN(uint64_t live_bytes,
                          CheckModel(ctx, db.ds, docs, model, "reopened"));
  // Space is measured fully merged: how many components the background
  // merges left behind at this instant varies from run to run.
  LSMCOL_RETURN_NOT_OK(db.ds->Flush());
  LSMCOL_RETURN_NOT_OK(db.ds->WaitForBackgroundWork());
  LSMCOL_RETURN_NOT_OK(db.ds->MergeAll());
  ctx->Metric("bytes_per_user_byte",
              static_cast<double>(db.ds->OnDiskBytes()) /
                  static_cast<double>(live_bytes),
              "ratio");
  ctx->info["preloaded_docs"] = std::to_string(model.n);
  ctx->info["live_user_bytes"] = std::to_string(live_bytes);
  ctx->info["disk_bytes"] = std::to_string(db.ds->OnDiskBytes());
  ctx->info["flushes"] = std::to_string(ctx->write.flushes);
  ctx->info["merges"] = std::to_string(ctx->write.merges);
  ctx->info["write_stalls"] = std::to_string(ctx->write.write_stalls);

  if (config.traced()) ProbeQueries(ctx, db.ds, Workload::kTweet2);
  NoteSchema(ctx, db.ds);
  ctx->primary_read_op = "op.lookup";
  return Status::OK();
}

}  // namespace lsmcol::e2e

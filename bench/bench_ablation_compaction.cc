// Ablation A5: compaction policy — where each point sits on the
// write-amplification vs read-cost curve.
//
// One long mixed workload (update-heavy ingest with deletes, periodic
// full scans, point lookups) runs under each compaction policy:
//
//   tiered         the default (§6.3 setup). The paper's size_ratio of
//                  1.2 is aggressive: once the oldest component is
//                  large, the newest-prefix trigger keeps re-including
//                  it, so at depth this config re-rewrites the whole
//                  stack often. It bounds the stack at max_components;
//                  it does not minimize rewrites (a low-write-amp
//                  tiered wants a ratio of 2–4+).
//   lazy-leveling  tiering above a single big bottom run, absorbed
//                  only when the young part reaches a quarter of it —
//                  the big run is rewritten the least often.
//
// Which policy wins on write-amp therefore depends on how deep the
// stack grows relative to the triggers: at the recorded full scale
// (hundreds of flushes) tiered@1.2 pays more than lazy-leveling; at the
// tiny CI smoke scale the stack stays shallow and the ordering can lean
// the textbook way (tiered cheapest). Both are real — the JSON records
// ops so rows are comparable like-for-like.
//
// Flushes and merges run on the writer thread (the dataset's own
// zero-worker scheduler), so ingest throughput honestly pays each
// policy's merge bill and the run is deterministic. Layout is fixed to
// AMAX (the paper's headline columnar layout); the policy machinery is
// layout-independent.
//
// Usage: bench_ablation_compaction [--json PATH] [--verify]
//   --json PATH  record per-row results as a JSON array.
//   --verify     exit 1 unless both policies' datasets contain
//                byte-identical logical contents (sorted scan digests)
//                and every timed lookup returned what that policy's
//                scan digest holds for its key.
//   LSMCOL_BENCH_SCALE shrinks the op and lookup counts (CI: 0.02).

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/json/parser.h"

namespace lsmcol::bench {
namespace {

const CompactionStrategy kStrategies[] = {
    CompactionStrategy::kTiered,
    CompactionStrategy::kLazyLeveling,
};

/// Sorted logical contents of the dataset — the cross-policy digest.
std::map<int64_t, std::string> ScanDigest(Dataset* ds) {
  std::map<int64_t, std::string> out;
  auto cursor = ds->Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  while (true) {
    auto ok = (*cursor)->Next();
    LSMCOL_CHECK(ok.ok());
    if (!*ok) break;
    Value v;
    LSMCOL_CHECK_OK((*cursor)->Record(&v));
    out[(*cursor)->key()] = ToJson(v);
  }
  return out;
}

bool Run(bool verify, BenchJson* json) {
  const uint64_t ops =
      std::max<uint64_t>(2000, static_cast<uint64_t>(60000 * Scale()));
  const uint64_t key_space = std::max<uint64_t>(500, ops / 3);
  const uint64_t lookups = std::max<uint64_t>(500, ops / 20);
  PrintHeader(
      "Ablation A5: compaction policy (write amplification vs read cost)");
  std::printf(
      "dataset: sensors (AMAX), %llu mixed ops over %llu keys (10%% deletes),"
      " merges on the writer thread\n",
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(key_space));
  std::printf("%-14s %12s %9s %9s %6s %10s %10s %9s\n", "policy",
              "ingest", "write-amp", "space-amp", "comps", "scan", "lookups",
              "merged");

  bool ok = true;
  std::map<int64_t, std::string> reference;
  const char* reference_policy = nullptr;
  for (CompactionStrategy strategy : kStrategies) {
    const char* name = CompactionStrategyName(strategy);
    Workspace ws(std::string("ablation_compaction_") + name,
                 /*page_size=*/8 * 1024, /*cache_bytes=*/256u << 20);
    auto options = BenchOptions(ws, LayoutKind::kAmax,
                                std::string("cmp_") + name);
    // Small memtable: the run flushes hundreds of times, so the policies
    // genuinely diverge in merge cadence.
    options.memtable_bytes = 64 * 1024;
    options.amax_max_records = 2000;
    options.compaction = strategy;
    auto ds = Dataset::Open(options, ws.cache.get());
    LSMCOL_CHECK(ds.ok());

    // Mixed ingest: updates dominate (each key is rewritten ~3 times),
    // 10% blind deletes — the anti-matter merges must annihilate.
    Rng rng(42);
    Timer ingest_timer;
    for (uint64_t i = 0; i < ops; ++i) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(key_space));
      if (rng.Bernoulli(0.1)) {
        LSMCOL_CHECK_OK((*ds)->Delete(key));
      } else {
        LSMCOL_CHECK_OK(
            (*ds)->Insert(MakeRecord(Workload::kSensors, key, &rng)));
      }
    }
    LSMCOL_CHECK_OK((*ds)->Flush());
    const double ingest_seconds = ingest_timer.Seconds();
    const double ingest_rps =
        static_cast<double>(ops) / (ingest_seconds > 0 ? ingest_seconds : 1e-9);

    // Read cost of the resulting component stack: full scans (cold
    // cache) and random point lookups.
    uint64_t scanned = 0;
    ws.cache->Clear();
    Timer scan_timer;
    for (int rep = 0; rep < 3; ++rep) {
      auto cursor = (*ds)->Scan(Projection::All());
      LSMCOL_CHECK(cursor.ok());
      while (true) {
        auto has = (*cursor)->Next();
        LSMCOL_CHECK(has.ok());
        if (!*has) break;
        ++scanned;
      }
    }
    const double scan_seconds = scan_timer.Seconds() / 3;
    // Each answer is kept (a move, not a copy) for --verify; a key whose
    // lookup found nothing keeps a null Value.
    std::vector<std::pair<int64_t, Value>> answers;
    answers.reserve(lookups);
    Timer lookup_timer;
    uint64_t hits = 0;
    for (uint64_t i = 0; i < lookups; ++i) {
      const auto key = static_cast<int64_t>(rng.Uniform(key_space));
      Value v;
      Status st = (*ds)->Lookup(key, &v);
      if (st.ok()) {
        ++hits;
      } else {
        LSMCOL_CHECK(st.IsNotFound());
        v = Value::Null();
      }
      answers.emplace_back(key, std::move(v));
    }
    const double lookup_seconds = lookup_timer.Seconds();

    const DatasetStats stats = (*ds)->stats();
    const size_t components = (*ds)->component_count();
    std::printf("%-14s %8.0f r/s %9.2f %9.2f %6zu %7.1f ms %7.1f us %9s\n",
                name, ingest_rps, stats.write_amplification(),
                stats.space_amplification(), components, scan_seconds * 1e3,
                lookup_seconds * 1e6 / static_cast<double>(lookups),
                HumanBytes(stats.merged_bytes_in).c_str());

    if (verify) {
      std::map<int64_t, std::string> digest = ScanDigest(ds->get());
      for (const auto& [key, value] : answers) {
        const auto it = digest.find(key);
        const bool found = !value.is_null();
        if (found != (it != digest.end()) ||
            (found && ToJson(value) != it->second)) {
          std::fprintf(stderr,
                       "VERIFY FAIL: %s lookup of key %lld disagrees with "
                       "its scan (%s)\n",
                       name, static_cast<long long>(key),
                       found ? "found" : "not found");
          ok = false;
          break;
        }
      }
      if (reference_policy == nullptr) {
        reference = std::move(digest);
        reference_policy = name;
      } else if (digest != reference) {
        std::fprintf(stderr,
                     "VERIFY FAIL: %s and %s disagree on logical contents "
                     "(%zu vs %zu records)\n",
                     name, reference_policy, digest.size(), reference.size());
        ok = false;
      }
    }

    if (json != nullptr && json->enabled()) {
      BenchJson::Obj obj;
      obj.Str("bench", "ablation_compaction")
          .Str("policy", name)
          .Int("ops", ops)
          .Int("key_space", key_space)
          .Num("ingest_seconds", ingest_seconds)
          .Num("ingest_ops_per_sec", ingest_rps)
          .Num("scan_seconds", scan_seconds)
          .Num("lookup_seconds", lookup_seconds)
          .Int("lookups", lookups)
          .Int("lookup_hits", hits)
          .Int("records_scanned", scanned / 3)
          .Int("components", components)
          .Int("flushes", stats.flushes)
          .Int("merges", stats.merges)
          .Int("write_stalls", stats.write_stalls)
          .Int("flush_bytes_out", stats.flush_bytes_out)
          .Int("merge_bytes_in", stats.merged_bytes_in)
          .Int("merge_bytes_out", stats.merge_bytes_out)
          .Int("on_disk_bytes", stats.on_disk_bytes)
          .Num("write_amplification", stats.write_amplification())
          .Num("space_amplification", stats.space_amplification())
          .Int("verified", verify ? 1 : 0)
          .Int("hardware_threads", std::thread::hardware_concurrency());
      json->Add(obj);
    }
  }
  return ok;
}

}  // namespace
}  // namespace lsmcol::bench

int main(int argc, char** argv) {
  using namespace lsmcol::bench;
  bool verify = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  BenchJson json(json_path);
  bool ok = Run(verify, &json);
  if (!json.Finish()) ok = false;
  return ok ? 0 : 1;
}

// Point lookups: warm Snapshot::Lookup latency on tweet_2 documents, per
// layout and compaction policy, for three hit/miss mixes.
//
// Each (layout, policy) pair ingests the same stream into a dataset with
// a 1 MiB memtable: every key once, then rewrites of a quarter of them
// and deletes of a twentieth, so the stack holds several components with
// overlapping key ranges and anti-matter. The lookups run on one thread
// against a warm 64 MiB cache (one untimed pass over the same keys first):
//
//   hits     keys of live records
//   mixed    80% live keys, 20% keys past every component's key fences
//   misses   keys past every key fence only
//
// Each row also counts the work: units_per_hit is the cache units (hits +
// misses in CacheStats) the timed lookups fetched, per hit. It repeats
// exactly from run to run, so a change in it is a finding.
//
// Usage: bench_lookup [--json PATH] [--verify]
//   --json PATH  record one row per (layout, policy, mix) as a JSON array.
//   --verify     check every result against scan-and-seek (a merged scan
//                of the same snapshot sought to the key); exit 1 on any
//                difference.
//   LSMCOL_BENCH_SCALE shrinks the record and lookup counts (CI: 0.02).

#include <algorithm>
#include <cstdio>
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

struct Mix {
  const char* name;
  double hit_fraction;
};
const Mix kMixes[] = {{"hits", 1.0}, {"mixed", 0.8}, {"misses", 0.0}};

// Scan-and-seek: the --verify oracle.
bool ScanAndSeek(const Snapshot& snapshot, int64_t key, Value* out) {
  auto batch = snapshot.NewLookupBatch(Projection::All());
  LSMCOL_CHECK(batch.ok());
  bool found = false;
  LSMCOL_CHECK_OK((*batch)->Find(key, &found, out));
  return found;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
}

bool Run(bool verify, BenchJson* json) {
  const auto records =
      std::max<uint64_t>(1000, static_cast<uint64_t>(20000 * Scale()));
  const auto lookups =
      std::max<uint64_t>(200, static_cast<uint64_t>(2000 * Scale()));
  PrintHeader("Point lookups: warm Snapshot::Lookup by layout and policy");
  std::printf(
      "dataset: tweet_2, %llu records (+25%% rewrites, 5%% deletes), "
      "1 MiB memtable, 64 MiB cache; %llu lookups per mix%s\n",
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(lookups),
      verify ? ", each verified" : "");
  std::printf("%-6s %-14s %-7s %6s %6s %10s %10s %10s %7s\n", "layout",
              "policy", "mix", "comps", "hits", "mean", "p50", "p99",
              "units");
  bool ok = true;
  for (LayoutKind layout : kAllLayouts) {
    for (CompactionStrategy strategy : kStrategies) {
      const char* policy = CompactionStrategyName(strategy);
      Workspace ws(std::string("lookup_") + LayoutKindName(layout) + "_" +
                       policy,
                   /*page_size=*/32 * 1024, /*cache_bytes=*/64u << 20);
      auto options = BenchOptions(ws, layout, "lookup");
      options.memtable_bytes = 1u << 20;
      options.compaction = strategy;
      auto ds = Dataset::Open(options, ws.cache.get());
      LSMCOL_CHECK(ds.ok());
      Rng rng(42);
      std::vector<bool> live(records, true);
      for (uint64_t i = 0; i < records; ++i) {
        LSMCOL_CHECK_OK((*ds)->Insert(
            MakeRecord(Workload::kTweet2, static_cast<int64_t>(i), &rng)));
      }
      for (uint64_t i = 0; i < records / 4; ++i) {
        const auto key = static_cast<int64_t>(rng.Uniform(records));
        LSMCOL_CHECK_OK(
            (*ds)->Insert(MakeRecord(Workload::kTweet2, key, &rng)));
        live[static_cast<size_t>(key)] = true;
      }
      for (uint64_t i = 0; i < records / 20; ++i) {
        const auto key = static_cast<int64_t>(rng.Uniform(records));
        LSMCOL_CHECK_OK((*ds)->Delete(key));
        live[static_cast<size_t>(key)] = false;
      }
      LSMCOL_CHECK_OK((*ds)->Flush());
      LSMCOL_CHECK_OK((*ds)->WaitForBackgroundWork());
      std::vector<int64_t> live_keys;
      for (uint64_t k = 0; k < records; ++k) {
        if (live[k]) live_keys.push_back(static_cast<int64_t>(k));
      }
      Snapshot::Ref snapshot = (*ds)->GetSnapshot();
      for (const Mix& mix : kMixes) {
        std::vector<int64_t> keys(lookups);
        for (int64_t& key : keys) {
          key = rng.Bernoulli(mix.hit_fraction)
                    ? live_keys[rng.Uniform(live_keys.size())]
                    : static_cast<int64_t>(records + rng.Uniform(records));
        }
        Value v;
        for (int64_t key : keys) (void)snapshot->Lookup(key, &v);  // warm
        std::vector<double> us;
        us.reserve(keys.size());
        uint64_t hits = 0;
        const CacheStats before = ws.cache->stats();
        for (int64_t key : keys) {
          Timer timer;
          Status st = snapshot->Lookup(key, &v);
          us.push_back(timer.Seconds() * 1e6);
          if (st.ok()) {
            ++hits;
          } else {
            LSMCOL_CHECK(st.IsNotFound());
          }
        }
        const CacheStats after = ws.cache->stats();
        const double units_per_hit =
            hits == 0 ? 0
                      : static_cast<double>((after.hits + after.misses) -
                                            (before.hits + before.misses)) /
                            static_cast<double>(hits);
        double total = 0;
        for (double u : us) total += u;
        const double mean = total / static_cast<double>(us.size());
        const double p50 = Percentile(us, 0.5);
        const double p99 = Percentile(us, 0.99);
        std::printf(
            "%-6s %-14s %-7s %6zu %6llu %7.1f us %7.1f us %7.1f us %7.2f\n",
            LayoutKindName(layout), policy, mix.name,
            snapshot->component_count(), static_cast<unsigned long long>(hits),
            mean, p50, p99, units_per_hit);
        if (verify) {
          for (int64_t key : keys) {
            Value expected;
            const bool found = ScanAndSeek(*snapshot, key, &expected);
            Status st = snapshot->Lookup(key, &v);
            if (found != st.ok() || (found && ToJson(v) != ToJson(expected))) {
              std::fprintf(stderr,
                           "VERIFY FAIL: %s %s key %lld: lookup %s, "
                           "scan-and-seek %s\n",
                           LayoutKindName(layout), policy,
                           static_cast<long long>(key), st.ToString().c_str(),
                           found ? "found it" : "did not");
              ok = false;
            }
          }
        }
        if (json != nullptr && json->enabled()) {
          BenchJson::Obj obj;
          obj.Str("bench", "lookup")
              .Str("dataset", "tweet_2")
              .Str("layout", LayoutKindName(layout))
              .Str("policy", policy)
              .Str("mix", mix.name)
              .Int("records", records)
              .Int("lookups", lookups)
              .Int("hits", hits)
              .Int("components", snapshot->component_count())
              .Num("mean_us", mean)
              .Num("p50_us", p50)
              .Num("p99_us", p99)
              .Num("units_per_hit", units_per_hit)
              .Int("verified", verify ? 1 : 0)
              .Int("hardware_threads", std::thread::hardware_concurrency());
          json->Add(obj);
        }
      }
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

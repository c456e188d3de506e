// Ablation A4: write-ahead-log cost and the group-commit win.
//
// Three durability modes over the same concurrent-ingest workload:
//
//   off        no WAL — the historical volatile-memtable contract
//              (Flush() is the durability point); the raw ingest ceiling.
//   sync       WAL with group_commit = false: every acknowledged write
//              pays its own fsync. Throughput is pinned to the device's
//              fsync rate no matter how many writers pile on.
//   group      WAL with leader/follower group commit (the default): the
//              leader's single fsync covers every writer that joined the
//              batch, so throughput scales with the writer count even on
//              one core — the whole point of the design.
//
// Expected shape: `group` beats `sync` by roughly the writer count at
// >= 4 writers. At 1 writer `group` can trail `sync` slightly — the
// leader yields once for writers mid-append to join its batch, and with
// no other writer that yield buys nothing; the penalty is honest and
// reported, not hidden.
//
// Layout is fixed to VB: the WAL frames the already-encoded row before
// layout-specific work happens, so its cost is layout-independent.
//
// Usage: bench_ablation_wal [--json PATH] [--verify]
//   --json PATH  record per-row results as a JSON array.
//   --verify     for the WAL modes, simulate a crash (copy the live
//                dataset directory, no Flush) and exit 1 unless replay
//                recovers every acknowledged record.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace lsmcol::bench {
namespace {

struct Mode {
  const char* name;
  bool wal;
  bool group_commit;
};

const Mode kModes[] = {
    {"off", false, false},
    {"sync", true, false},
    {"group", true, true},
};

/// Count records visible in a dataset's current snapshot.
uint64_t CountRecords(Dataset* ds) {
  auto cursor = ds->Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  uint64_t n = 0;
  while (true) {
    auto ok = (*cursor)->Next();
    LSMCOL_CHECK(ok.ok());
    if (!*ok) break;
    ++n;
  }
  return n;
}

/// Crash-recover the live directory: copy it (the crash image), open the
/// copy with a fresh cache, and return how many records replay restores.
uint64_t RecoverImage(const std::string& live_dir, const DatasetOptions& base,
                      size_t page_size) {
  const std::string img = live_dir + "_img";
  std::filesystem::remove_all(img);
  std::filesystem::copy(live_dir, img,
                        std::filesystem::copy_options::recursive);
  BufferCache cache(256u << 20, page_size);
  DatasetOptions options = base;
  options.dir = img;
  auto ds = Dataset::Open(options, &cache);
  LSMCOL_CHECK(ds.ok());
  const uint64_t n = CountRecords(ds->get());
  ds->reset();
  std::filesystem::remove_all(img);
  return n;
}

bool Run(bool verify, BenchJson* json) {
  const uint64_t records =
      std::max<uint64_t>(500, static_cast<uint64_t>(4000 * Scale()));
  PrintHeader("Ablation A4: WAL durability cost (group commit vs fsync/write)");
  std::printf("dataset: sensors (VB rows), %llu records per run\n",
              static_cast<unsigned long long>(records));
  std::printf("%-8s %8s %12s %10s %10s %10s\n", "mode", "writers",
              "throughput", "fsyncs", "max group", "vs sync");

  bool ok = true;
  for (int writers : {1, 4, 8}) {
    double sync_rps = 0;
    for (const Mode& mode : kModes) {
      Workspace ws(std::string("ablation_wal_") + mode.name + "_" +
                   std::to_string(writers));
      auto options = BenchOptions(ws, LayoutKind::kVb,
                                  std::string("wal_") + mode.name);
      options.memtable_bytes = 1u << 30;  // no flushes inside the window
      options.wal.enabled = mode.wal;
      options.wal.group_commit = mode.group_commit;
      auto ds = Dataset::Open(options, ws.cache.get());
      LSMCOL_CHECK(ds.ok());

      const uint64_t per_writer = records / writers;
      Timer timer;
      std::vector<std::thread> threads;
      for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&, t] {
          Rng rng(42 + t);
          for (uint64_t i = 0; i < per_writer; ++i) {
            const int64_t key = t * static_cast<int64_t>(per_writer) +
                                static_cast<int64_t>(i);
            LSMCOL_CHECK_OK(
                (*ds)->Insert(MakeRecord(Workload::kSensors, key, &rng)));
          }
        });
      }
      for (auto& thread : threads) thread.join();
      const double seconds = timer.Seconds();
      const uint64_t acked = per_writer * writers;
      const DatasetStats stats = (*ds)->stats();
      const double rps = static_cast<double>(acked) /
                         (seconds > 0 ? seconds : 1e-9);
      if (std::strcmp(mode.name, "sync") == 0) sync_rps = rps;
      const double vs_sync =
          (mode.group_commit && sync_rps > 0) ? rps / sync_rps : 0;

      if (verify && mode.wal) {
        const uint64_t recovered =
            RecoverImage(ws.dir, options, ws.page_size);
        if (recovered != acked) {
          std::fprintf(stderr,
                       "VERIFY FAIL: %s/%d writers: crash image replayed "
                       "%llu of %llu acked records\n",
                       mode.name, writers,
                       static_cast<unsigned long long>(recovered),
                       static_cast<unsigned long long>(acked));
          ok = false;
        }
      }

      if (vs_sync > 0) {
        std::printf("%-8s %8d %8.0f r/s %10llu %10llu %9.2fx\n", mode.name,
                    writers, rps,
                    static_cast<unsigned long long>(stats.wal_syncs),
                    static_cast<unsigned long long>(
                        stats.wal_group_entries_max),
                    vs_sync);
      } else {
        std::printf("%-8s %8d %8.0f r/s %10llu %10llu %10s\n", mode.name,
                    writers, rps,
                    static_cast<unsigned long long>(stats.wal_syncs),
                    static_cast<unsigned long long>(
                        stats.wal_group_entries_max),
                    "-");
      }
      if (json != nullptr && json->enabled()) {
        BenchJson::Obj obj;
        obj.Str("bench", "ablation_wal")
            .Str("mode", mode.name)
            .Int("writers", writers)
            .Int("records", acked)
            .Num("seconds", seconds)
            .Num("records_per_sec", rps)
            .Num("speedup_vs_sync", vs_sync)
            .Int("wal_appends", stats.wal_appends)
            .Int("wal_syncs", stats.wal_syncs)
            .Int("wal_bytes", stats.wal_bytes)
            .Int("wal_group_entries_max", stats.wal_group_entries_max)
            .Int("verified", verify && mode.wal ? 1 : 0)
            .Int("hardware_threads", std::thread::hardware_concurrency());
        json->Add(obj);
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

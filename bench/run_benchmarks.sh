#!/usr/bin/env bash
# Runs the headline benchmarks in a Release build and records their
# results at the repo root — the perf trajectory the ROADMAP asks every
# perf PR to leave behind:
#   BENCH_fig10.json  Fig. 10 codegen queries (cross-engine verified)
#   BENCH_fig14.json  Fig. 14 query suite (cross-engine verified)
#   BENCH_fig13.json  Fig. 13 ingestion, synchronous vs concurrent
#                     clients over the background flush/merge scheduler
#   BENCH_merge.json  Ablation A3: columnar merge throughput on disjoint
#                     and interleaved components (pre/post-merge scans
#                     and record counts verified)
#   BENCH_wal.json    Ablation A4: WAL durability cost — no WAL vs
#                     fsync-per-write vs group commit at 1/4/8 writers
#                     (crash-image replay verified)
#   BENCH_compaction.json  Ablation A5: compaction policy — tiered vs
#                     lazy-leveling write/space amplification and read
#                     cost (cross-policy contents and every timed lookup
#                     verified)
#   BENCH_lookup.json warm point lookups on tweet_2 by layout, compaction
#                     policy and hit/miss mix (each result verified
#                     against a merged scan sought to the key)
#   BENCH_fig16.json  Fig. 16 column scaling on APAX and AMAX, scan- and
#                     index-based (scan counts verified against a
#                     full-record scan)
#
# Usage: bench/run_benchmarks.sh [build_dir]
#   build_dir            defaults to build-rel (configured on demand)
#   LSMCOL_BENCH_SCALE   shrink/grow datasets (default 1.0; CI uses ~0.02)
#   LSMCOL_BENCH_VERIFY  when "1" (default), pass --verify so both engines'
#                        results are cross-checked and mismatches fail.
#   LSMCOL_BENCH_THREADS concurrent clients for the fig13 comparison
#                        (default 4; the speedup needs >= 2 cores)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-rel}"
THREADS="${LSMCOL_BENCH_THREADS:-4}"
VERIFY_FLAG=""
if [[ "${LSMCOL_BENCH_VERIFY:-1}" == "1" ]]; then
  VERIFY_FLAG="--verify"
fi

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DLSMCOL_BUILD_TESTS=OFF >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_fig10_codegen \
  bench_fig14_queries bench_fig13_ingestion bench_ablation_merge \
  bench_ablation_wal bench_ablation_compaction bench_lookup \
  bench_fig16_column_scaling >/dev/null

"$BUILD_DIR/bench/bench_fig10_codegen" $VERIFY_FLAG \
  --json "$ROOT/BENCH_fig10.json"
"$BUILD_DIR/bench/bench_fig14_queries" $VERIFY_FLAG \
  --json "$ROOT/BENCH_fig14.json"
"$BUILD_DIR/bench/bench_fig13_ingestion" --threads "$THREADS" \
  --json "$ROOT/BENCH_fig13.json"
"$BUILD_DIR/bench/bench_ablation_merge" $VERIFY_FLAG \
  --json "$ROOT/BENCH_merge.json"
"$BUILD_DIR/bench/bench_ablation_wal" $VERIFY_FLAG \
  --json "$ROOT/BENCH_wal.json"
"$BUILD_DIR/bench/bench_ablation_compaction" $VERIFY_FLAG \
  --json "$ROOT/BENCH_compaction.json"
"$BUILD_DIR/bench/bench_lookup" $VERIFY_FLAG \
  --json "$ROOT/BENCH_lookup.json"
"$BUILD_DIR/bench/bench_fig16_column_scaling" $VERIFY_FLAG \
  --json "$ROOT/BENCH_fig16.json"

echo "wrote $ROOT/BENCH_fig10.json, $ROOT/BENCH_fig14.json," \
     "$ROOT/BENCH_fig13.json, $ROOT/BENCH_merge.json," \
     "$ROOT/BENCH_wal.json, $ROOT/BENCH_compaction.json," \
     "$ROOT/BENCH_lookup.json, and $ROOT/BENCH_fig16.json"

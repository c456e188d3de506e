// Deterministic synthetic workload generators matching the structural
// profiles of the paper's five datasets (Table 1):
//
//   cell     real, 1NF, 7 columns, ~140 B records, mixed types
//   sensors  synthetic, 16 columns, numeric-dominant, nested readings
//   tweet_1  text-heavy, ~930 (mostly sparse) columns, ~5 KB records
//   wos      long text (abstracts), union-typed addresses (object OR array
//            of objects), ~300 columns
//   tweet_2  moderate columns, monotone timestamp field, used for the
//            update-intensive secondary-index experiments
//
// Contents are synthetic (the originals are proprietary) but reproduce
// the properties the evaluation depends on: column counts, nesting shape,
// value-type mix, record sizes, sparsity, heterogeneity.

#ifndef LSMCOL_DATAGEN_DATAGEN_H_
#define LSMCOL_DATAGEN_DATAGEN_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/json/value.h"

namespace lsmcol {

enum class Workload : uint8_t {
  kCell = 0,
  kSensors,
  kTweet1,
  kWos,
  kTweet2,
};

const char* WorkloadName(Workload w);

/// Default record counts used by the benchmark harness (scaled from the
/// paper's ~200 GB datasets to laptop-sized runs; see docs/BENCHMARKS.md).
uint64_t DefaultBenchRecords(Workload w);

/// Generate record `id` of a workload. Deterministic given (workload, id,
/// rng state); the conventional use seeds one Rng per run and generates
/// ids sequentially.
Value MakeRecord(Workload w, int64_t id, Rng* rng);

/// tweet_2 with an explicit (monotone) timestamp, for the update and
/// secondary-index experiments (§6.3.2, §6.4.5).
Value MakeTweet2Record(int64_t id, int64_t timestamp, Rng* rng);

/// A few words of pseudo-natural text (vocabulary-based, so page
/// compression and string encodings behave like real text).
std::string SyntheticText(Rng* rng, int min_words, int max_words);

}  // namespace lsmcol

#endif  // LSMCOL_DATAGEN_DATAGEN_H_

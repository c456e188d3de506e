// Scan predicates — the unit of predicate pushdown (§4.3/§4.4 applied to
// query scans): per-column min/max comparisons extracted from a query's
// filters and threaded through Snapshot::Scan down to the columnar
// cursors, where they drive zone-map skipping (AMAX Page-0 prefixes,
// APAX per-chunk stats) and cheap typed per-record checks.
//
// Contract: a ScanPredicate is a NECESSARY condition of the query filter
// for the record to qualify — if any pushed predicate is definitely false
// for a record, the record cannot pass the filter and the scan may skip
// its materialization entirely. Predicates never widen results; a cursor
// that cannot evaluate one simply reports "unknown" and the engine falls
// back to full expression evaluation. Pushable shapes are comparisons of
// a scalar (non-array, non-union) record path against a scalar literal;
// SQL++ mismatched-type semantics (10 > "ten" -> MISSING -> false) are
// honored by compiling a type-incompatible predicate to never_match.

#ifndef LSMCOL_LSM_SCAN_PREDICATE_H_
#define LSMCOL_LSM_SCAN_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/json/value.h"
#include "src/schema/schema.h"

namespace lsmcol {

/// One pushed-down interval constraint on a record path. Bounds are
/// Missing when unbounded; set bounds are scalar literals (bool, int64,
/// double, string). Equality predicates set both bounds to the literal.
struct ScanPredicate {
  std::vector<std::string> path;
  Value lower;
  bool lower_inclusive = true;
  Value upper;
  bool upper_inclusive = true;
};

using ScanPredicateSet = std::vector<ScanPredicate>;

/// A column's zone map in one leaf, whatever the leaf's layout stores:
/// the closed range of the column's present values (Component::ColumnZone
/// reads it from an APAX stats entry or from AMAX Page 0).
struct ZoneMap {
  /// False when no record of the leaf holds a value of the column: the
  /// column is absent from the leaf, or its stats say none is present.
  bool has_values = false;
  AtomicType type = AtomicType::kInt64;  ///< the column's type
  int64_t min_int = 0, max_int = 0;       ///< kBoolean (0/1) and kInt64
  double min_double = 0, max_double = 0;  ///< kDouble
  /// kString: the full min and max, or with `string_prefixes` their first
  /// 8 bytes, zero-padded (AMAX Page 0).
  std::string min_string, max_string;
  bool string_prefixes = false;
};

/// A ScanPredicate compiled against one concrete column: bounds in the
/// domain the engine would compare in (int columns promote to the double
/// domain when the literal is a double, exactly mirroring SQL++ numeric
/// comparison via as_double).
struct TypedPredicate {
  enum class Domain : uint8_t { kInt, kDouble, kString };

  int column_id = -1;
  /// No value of this column can satisfy the bounds (type-incompatible
  /// literal or empty interval): every record of the component fails.
  bool never_match = false;
  Domain domain = Domain::kInt;

  // kInt (also booleans as 0/1): closed interval; exclusive bounds are
  // folded in at compile time.
  int64_t ilo = INT64_MIN;
  int64_t ihi = INT64_MAX;
  // kDouble.
  bool has_dlo = false, has_dhi = false;
  bool dlo_inclusive = true, dhi_inclusive = true;
  double dlo = 0, dhi = 0;
  // kString.
  bool has_slo = false, has_shi = false;
  bool slo_inclusive = true, shi_inclusive = true;
  std::string slo, shi;

  bool MatchesInt(int64_t v) const {
    if (domain == Domain::kDouble) return MatchesDouble(static_cast<double>(v));
    return v >= ilo && v <= ihi;
  }
  bool MatchesDouble(double v) const {
    if (v != v) {
      // NaN: the engine's CompareValues returns 0 for any NaN operand,
      // so <= / >= / == hold and < / > fail. Mirror that exactly: NaN
      // passes iff every present bound is inclusive.
      return (!has_dlo || dlo_inclusive) && (!has_dhi || dhi_inclusive);
    }
    if (has_dlo && (dlo_inclusive ? v < dlo : v <= dlo)) return false;
    if (has_dhi && (dhi_inclusive ? v > dhi : v >= dhi)) return false;
    return true;
  }
  bool MatchesString(Slice v) const {
    std::string_view sv(v.data(), v.size());
    if (has_slo && (slo_inclusive ? sv < slo : sv <= slo)) return false;
    if (has_shi && (shi_inclusive ? sv > shi : sv >= shi)) return false;
    return true;
  }

  // Conservative closed-hull overlap tests against a zone's [zmin, zmax]
  // (false => no value in the zone can match; inclusivity is ignored, so
  // false positives only).
  bool OverlapsIntZone(int64_t zmin, int64_t zmax) const {
    if (domain == Domain::kDouble) {
      return OverlapsDoubleZone(static_cast<double>(zmin),
                                static_cast<double>(zmax));
    }
    return !(ihi < zmin || ilo > zmax);
  }
  bool OverlapsDoubleZone(double zmin, double zmax) const {
    if (has_dhi && dhi < zmin) return false;
    if (has_dlo && dlo > zmax) return false;
    return true;
  }
  bool OverlapsStringZone(const std::string& zmin,
                          const std::string& zmax) const {
    if (has_shi && shi < zmin) return false;
    if (has_slo && slo > zmax) return false;
    return true;
  }
  /// The overlap test for a leaf's zone map, by the column's type. False
  /// when the zone holds no value.
  bool OverlapsZone(const ZoneMap& zone) const;
};

/// Compile `pred` against the column it resolved to. The result's
/// never_match is set for type-incompatible literals and empty intervals.
/// `pred`'s bounds must be scalar literals (enforced by the extractor).
TypedPredicate CompileScanPredicate(const ScanPredicate& pred,
                                    const ColumnInfo& info);

}  // namespace lsmcol

#endif  // LSMCOL_LSM_SCAN_PREDICATE_H_

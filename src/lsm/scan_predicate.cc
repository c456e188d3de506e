#include "src/lsm/scan_predicate.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lsmcol {
namespace {

// Tighten an int-domain lower bound from an int literal: x > lo becomes
// x >= lo + 1; saturation at INT64_MAX makes the interval empty.
bool FoldIntLower(int64_t lo, bool inclusive, int64_t* out) {
  if (inclusive) {
    *out = lo;
    return true;
  }
  if (lo == INT64_MAX) return false;
  *out = lo + 1;
  return true;
}

bool FoldIntUpper(int64_t hi, bool inclusive, int64_t* out) {
  if (inclusive) {
    *out = hi;
    return true;
  }
  if (hi == INT64_MIN) return false;
  *out = hi - 1;
  return true;
}

// The literal both bounds came from (for kEq both are the same literal,
// otherwise exactly one bound is set).
const Value& BoundLiteral(const ScanPredicate& pred) {
  return pred.lower.is_missing() ? pred.upper : pred.lower;
}

void CompileIntDomain(const ScanPredicate& pred, TypedPredicate* out) {
  out->domain = TypedPredicate::Domain::kInt;
  if (!pred.lower.is_missing()) {
    const int64_t lo =
        pred.lower.is_bool() ? (pred.lower.bool_value() ? 1 : 0)
                             : pred.lower.int_value();
    if (!FoldIntLower(lo, pred.lower_inclusive, &out->ilo)) {
      out->never_match = true;
      return;
    }
  }
  if (!pred.upper.is_missing()) {
    const int64_t hi =
        pred.upper.is_bool() ? (pred.upper.bool_value() ? 1 : 0)
                             : pred.upper.int_value();
    if (!FoldIntUpper(hi, pred.upper_inclusive, &out->ihi)) {
      out->never_match = true;
      return;
    }
  }
  if (out->ilo > out->ihi) out->never_match = true;
}

void CompileDoubleDomain(const ScanPredicate& pred, TypedPredicate* out) {
  out->domain = TypedPredicate::Domain::kDouble;
  if (!pred.lower.is_missing()) {
    out->has_dlo = true;
    out->dlo = pred.lower.as_double();
    out->dlo_inclusive = pred.lower_inclusive;
  }
  if (!pred.upper.is_missing()) {
    out->has_dhi = true;
    out->dhi = pred.upper.as_double();
    out->dhi_inclusive = pred.upper_inclusive;
  }
  if (out->has_dlo && out->has_dhi) {
    if (out->dlo > out->dhi ||
        (out->dlo == out->dhi &&
         !(out->dlo_inclusive && out->dhi_inclusive))) {
      out->never_match = true;
    }
  }
}

void CompileStringDomain(const ScanPredicate& pred, TypedPredicate* out) {
  out->domain = TypedPredicate::Domain::kString;
  if (!pred.lower.is_missing()) {
    out->has_slo = true;
    out->slo = pred.lower.string_value();
    out->slo_inclusive = pred.lower_inclusive;
  }
  if (!pred.upper.is_missing()) {
    out->has_shi = true;
    out->shi = pred.upper.string_value();
    out->shi_inclusive = pred.upper_inclusive;
  }
  if (out->has_slo && out->has_shi) {
    if (out->slo > out->shi ||
        (out->slo == out->shi &&
         !(out->slo_inclusive && out->shi_inclusive))) {
      out->never_match = true;
    }
  }
}

// Whether an int literal is small enough that comparing in the int
// domain agrees with the engine, which compares ALL numerics through
// as_double (CompareValues): for |b| < 2^53 the conversions cannot
// reorder or conflate any int value against b, so the domains agree;
// at or beyond 2^53 double rounding can, so the predicate must run in
// the engine's own (double) domain to keep pushdown result-neutral.
bool IntDomainExact(const Value& v) {
  if (!v.is_int()) return true;  // bound absent or bool (0/1)
  const int64_t magnitude_limit = int64_t{1} << 53;
  return v.int_value() > -magnitude_limit && v.int_value() < magnitude_limit;
}

}  // namespace

bool TypedPredicate::OverlapsZone(const ZoneMap& zone) const {
  if (!zone.has_values) return false;
  switch (zone.type) {
    case AtomicType::kBoolean:
    case AtomicType::kInt64:
      return OverlapsIntZone(zone.min_int, zone.max_int);
    case AtomicType::kDouble:
      return OverlapsDoubleZone(zone.min_double, zone.max_double);
    case AtomicType::kString:
      break;
  }
  if (!zone.string_prefixes) {
    return OverlapsStringZone(zone.min_string, zone.max_string);
  }
  // Zero-padded 8-byte truncation is monotone under memcmp (s <= t
  // implies trunc8(s) <= trunc8(t)), so trunc8(shi) < min prefix proves
  // shi < the column's min and trunc8(slo) > max prefix proves slo > its
  // max; inclusivity is ignored, as in the other zone tests.
  const auto compare8 = [](const std::string& bound,
                           const std::string& prefix) {
    char trunc[8] = {0};
    std::memcpy(trunc, bound.data(), std::min<size_t>(8, bound.size()));
    return std::memcmp(trunc, prefix.data(), 8);
  };
  if (has_shi && compare8(shi, zone.min_string) < 0) return false;
  if (has_slo && compare8(slo, zone.max_string) > 0) return false;
  return true;
}

TypedPredicate CompileScanPredicate(const ScanPredicate& pred,
                                    const ColumnInfo& info) {
  TypedPredicate out;
  out.column_id = info.id;
  const Value& lit = BoundLiteral(pred);
  switch (info.type) {
    case AtomicType::kInt64:
      if (lit.is_int() && IntDomainExact(pred.lower) &&
          IntDomainExact(pred.upper)) {
        CompileIntDomain(pred, &out);
      } else if (lit.is_number()) {
        // SQL++ compares numerics in the double domain (as_double);
        // keeping double bounds reproduces that exactly — including for
        // huge int literals, where int comparison would diverge from
        // the engine's rounding behavior.
        CompileDoubleDomain(pred, &out);
      } else {
        out.never_match = true;  // 10 > "ten" is MISSING, never true
      }
      return out;
    case AtomicType::kDouble:
      if (lit.is_number()) {
        CompileDoubleDomain(pred, &out);
      } else {
        out.never_match = true;
      }
      return out;
    case AtomicType::kBoolean:
      if (lit.is_bool()) {
        CompileIntDomain(pred, &out);
      } else {
        out.never_match = true;
      }
      return out;
    case AtomicType::kString:
      if (lit.is_string()) {
        CompileStringDomain(pred, &out);
      } else {
        out.never_match = true;
      }
      return out;
  }
  out.never_match = true;
  return out;
}

}  // namespace lsmcol

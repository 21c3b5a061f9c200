#ifndef LCDB_ANALYSIS_VERIFY_STATS_H_
#define LCDB_ANALYSIS_VERIFY_STATS_H_

#include <cstdint>

namespace lcdb {

/// Telemetry of the tier-3 static verifier (analysis/plan_verify.h).
/// Header-only like AnalysisStats so the metrics registry can adapt it into
/// the `analysis.verify.*` family without linking the verifier itself.
struct VerifyStats {
  /// Plan-IR verification runs and the nodes they walked.
  uint64_t plans_verified = 0;
  uint64_t plan_nodes_verified = 0;
  /// Invariant violations detected (each surfaced as an LCDB012 Status).
  uint64_t violations = 0;
};

}  // namespace lcdb

#endif  // LCDB_ANALYSIS_VERIFY_STATS_H_

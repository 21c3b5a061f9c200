#ifndef LCDB_LP_FEASIBILITY_H_
#define LCDB_LP_FEASIBILITY_H_

#include <vector>

#include "lp/simplex.h"

namespace lcdb {

struct FeasibilityResult {
  bool feasible = false;
  /// A point satisfying every constraint, including strict ones
  /// (set only when feasible).
  Vec witness;
};

/// Decides whether a system of linear constraints over free real variables —
/// including *strict* inequalities and equalities — has a solution, and if so
/// produces a rational witness point. Strictness is handled by the standard
/// epsilon trick: every strict constraint `a.x < b` is tightened to
/// `a.x + eps <= b`, `eps <= 1` is added, and `eps` is maximized; the system
/// is feasible iff the optimum is positive. This single oracle underlies
/// arrangement construction, adjacency tests, and DNF pruning.
FeasibilityResult CheckFeasibility(
    size_t num_vars, const std::vector<LinearConstraint>& constraints);

/// Maximizes `objective . x` over the topological closure of the system
/// (strict relations relaxed to their non-strict counterparts).
LpResult MaximizeOverClosure(size_t num_vars,
                             const std::vector<LinearConstraint>& constraints,
                             const Vec& objective);

/// True iff the solution set of the (closure of the) system is bounded,
/// i.e. every coordinate is bounded above and below. For a nonempty
/// relatively open set this coincides with boundedness of the set itself.
/// Returns true for infeasible systems (the empty set is bounded).
bool IsBoundedSystem(size_t num_vars,
                     const std::vector<LinearConstraint>& constraints);

}  // namespace lcdb

#endif  // LCDB_LP_FEASIBILITY_H_

#include "lp/feasibility.h"

#include <utility>

#include "util/status.h"

namespace lcdb {

FeasibilityResult CheckFeasibility(
    size_t num_vars, const std::vector<LinearConstraint>& constraints) {
  // Column layout: x_0..x_{n-1}, eps.
  std::vector<LinearConstraint> relaxed;
  relaxed.reserve(constraints.size() + 1);
  bool any_strict = false;
  for (const LinearConstraint& c : constraints) {
    LCDB_CHECK(c.coeffs.size() == num_vars);
    Vec coeffs = c.coeffs;
    coeffs.push_back(Rational(0));
    switch (c.rel) {
      case RelOp::kLt:
        coeffs[num_vars] = Rational(1);
        relaxed.emplace_back(std::move(coeffs), RelOp::kLe, c.rhs);
        any_strict = true;
        break;
      case RelOp::kGt:
        coeffs[num_vars] = Rational(-1);
        relaxed.emplace_back(std::move(coeffs), RelOp::kGe, c.rhs);
        any_strict = true;
        break;
      default:
        relaxed.emplace_back(std::move(coeffs), c.rel, c.rhs);
        break;
    }
  }
  // eps <= 1 keeps the objective bounded; eps >= 0 ensures the relaxation is
  // a relaxation even when there are no strict constraints.
  {
    Vec eps_row(num_vars + 1);
    eps_row[num_vars] = Rational(1);
    relaxed.emplace_back(eps_row, RelOp::kLe, Rational(1));
    relaxed.emplace_back(std::move(eps_row), RelOp::kGe, Rational(0));
  }
  Vec objective(num_vars + 1);
  objective[num_vars] = Rational(1);
  LpResult lp = MaximizeLp(num_vars + 1, relaxed, objective);
  if (lp.status == LpStatus::kInfeasible) return {false, {}};
  LCDB_CHECK(lp.status == LpStatus::kOptimal);
  if (any_strict && lp.objective.Sign() <= 0) return {false, {}};
  Vec witness(lp.solution.begin(), lp.solution.begin() + num_vars);
  return {true, std::move(witness)};
}

LpResult MaximizeOverClosure(size_t num_vars,
                             const std::vector<LinearConstraint>& constraints,
                             const Vec& objective) {
  std::vector<LinearConstraint> closed;
  closed.reserve(constraints.size());
  for (const LinearConstraint& c : constraints) {
    closed.emplace_back(c.coeffs, Closure(c.rel), c.rhs);
  }
  return MaximizeLp(num_vars, closed, objective);
}

bool IsBoundedSystem(size_t num_vars,
                     const std::vector<LinearConstraint>& constraints) {
  for (size_t j = 0; j < num_vars; ++j) {
    Vec objective(num_vars);
    objective[j] = Rational(1);
    LpResult up = MaximizeOverClosure(num_vars, constraints, objective);
    if (up.status == LpStatus::kInfeasible) return true;
    if (up.status == LpStatus::kUnbounded) return false;
    objective[j] = Rational(-1);
    LpResult down = MaximizeOverClosure(num_vars, constraints, objective);
    if (down.status == LpStatus::kUnbounded) return false;
  }
  return true;
}

}  // namespace lcdb

#include "lp/simplex.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "engine/governor.h"
#include "engine/trace.h"
#include "util/status.h"

namespace lcdb {

namespace {
std::atomic<uint64_t> g_simplex_invocations{0};
std::atomic<uint64_t> g_simplex_pivots{0};
}  // namespace

SimplexCounters GetSimplexCounters() {
  SimplexCounters out;
  out.invocations = g_simplex_invocations.load(std::memory_order_relaxed);
  out.pivots = g_simplex_pivots.load(std::memory_order_relaxed);
  return out;
}

bool LinearConstraint::Satisfies(const Vec& point) const {
  const Rational lhs = Dot(coeffs, point);
  int cmp = 0;
  if (lhs < rhs) {
    cmp = -1;
  } else if (rhs < lhs) {
    cmp = 1;
  }
  return EvalRelOp(cmp, rel);
}

namespace {

/// Least common multiple of two positive integers.
BigInt Lcm(const BigInt& a, const BigInt& b) {
  return b.IsOne() ? a : a / BigInt::Gcd(a, b) * b;
}

/// Common denominator of `values`: the least positive integer that makes
/// every value integral.
BigInt CommonDenominator(const Rational* values, size_t count) {
  BigInt den(1);
  for (size_t i = 0; i < count; ++i) den = Lcm(den, values[i].den());
  return den;
}

/// Fraction-free tableau simplex. All variables are >= 0. Each row holds
/// num_cols integer coefficients followed by its right-hand side, and is a
/// positive multiple of the textbook row: the textbook row is the stored
/// row divided by the entry of its basic variable basis_[r], which is
/// positive. The objective z = obj_const + sum_j c_j x_j is stored the
/// same way, as (c_0, ..., c_{n-1}, -obj_const) over the positive
/// denominator obj_den_, with c_basic = 0.
///
/// Scaling a row by a positive factor changes neither the sign of an entry
/// nor the ratio rhs_r / a_r[col] (the row's scale cancels), so Bland's
/// rule below makes exactly the pivots it would make over rationals. A
/// pivot touches only the rows whose entering-column entry is nonzero, and
/// divides a row whose denominator grew by its content: at most one gcd
/// chain per row, none per entry.
class Tableau {
 public:
  Tableau(size_t num_rows, size_t num_cols)
      : num_cols_(num_cols), width_(num_cols + 1), obj_(width_) {
    cells_.reserve(num_rows * width_);
    basis_.reserve(num_rows);
  }

  size_t num_rows() const { return basis_.size(); }
  const std::vector<size_t>& basis() const { return basis_; }
  bool IsZeroAt(size_t r, size_t c) const { return Row(r)[c].IsZero(); }
  /// Value of row r's basic variable.
  Rational rhs(size_t r) const {
    return Rational(Row(r)[num_cols_], Row(r)[basis_[r]]);
  }
  Rational objective_value() const {
    return Rational(-obj_[num_cols_], obj_den_);
  }

  /// Appends a zero row with basic variable `basic_var` and returns its
  /// cells for the caller to fill before the next AddRow. The filled row
  /// must be positive at `basic_var` and have a non-negative rhs.
  BigInt* AddRow(size_t basic_var) {
    cells_.resize(cells_.size() + width_);
    basis_.push_back(basic_var);
    return Row(num_rows() - 1);
  }

  /// Installs objective `z = sum coeffs[j] x_j`, rewritten through the
  /// current basis so that basic variables have zero reduced cost.
  void SetObjective(const Vec& coeffs) {
    LCDB_CHECK(coeffs.size() == num_cols_);
    obj_den_ = CommonDenominator(coeffs.data(), num_cols_);
    for (size_t c = 0; c < num_cols_; ++c) {
      obj_[c] = coeffs[c].num() * (obj_den_ / coeffs[c].den());
    }
    obj_[num_cols_] = BigInt();
    for (size_t r = 0; r < num_rows(); ++r) {
      if (!obj_[basis_[r]].IsZero()) {
        Eliminate(obj_.data(), Row(r), basis_[r], 0, &obj_den_);
      }
    }
  }

  /// Runs Bland's-rule simplex until optimal or unbounded. `allowed` masks
  /// columns eligible to enter the basis (used to keep artificials out in
  /// phase 2). Returns false iff unbounded.
  bool Optimize(const std::vector<bool>& allowed) {
    while (true) {
      // Entering column: smallest index with positive reduced cost.
      size_t enter = num_cols_;
      for (size_t c = 0; c < num_cols_; ++c) {
        if (allowed[c] && obj_[c].Sign() > 0) {
          enter = c;
          break;
        }
      }
      if (enter == num_cols_) return true;  // optimal
      // Leaving row: minimum ratio rhs/coeff over rows with coeff > 0;
      // ties broken by smallest basic-variable index (Bland). The ratios
      // are compared cross-multiplied, both coefficients being positive.
      size_t leave = num_rows();
      for (size_t r = 0; r < num_rows(); ++r) {
        const BigInt* row = Row(r);
        if (row[enter].Sign() <= 0) continue;
        if (leave == num_rows()) {
          leave = r;
          continue;
        }
        const BigInt* best = Row(leave);
        const int cmp = BigInt::MulSub(row[num_cols_], best[enter],
                                       best[num_cols_], row[enter])
                            .Sign();
        if (cmp < 0 || (cmp == 0 && basis_[r] < basis_[leave])) leave = r;
      }
      if (leave == num_rows()) return false;  // unbounded
      Pivot(leave, enter);
    }
  }

  void Pivot(size_t row, size_t col) {
    BigInt* pivot = Row(row);
    LCDB_CHECK(!pivot[col].IsZero());
    g_simplex_pivots.fetch_add(1, std::memory_order_relaxed);
    // Per-pivot cancellation point: a single adversarial LP can spin for a
    // long time, so the pivot budget and the wall-clock deadline must be
    // enforceable from inside one solve, not just between solves. The
    // tableau is function-local, so the unwind leaves no shared state.
    GovernorOnSimplexPivot();
    // The pivot row already is a positive multiple of its new textbook row
    // unless the pivot entry is negative (only the phase-1 drive-out picks
    // one); then its negation is.
    if (pivot[col].Sign() < 0) {
      for (size_t c = 0; c < width_; ++c) pivot[c] = -pivot[c];
    }
    for (size_t r = 0; r < num_rows(); ++r) {
      if (r != row && !Row(r)[col].IsZero()) {
        Eliminate(Row(r), pivot, col, basis_[r], nullptr);
      }
    }
    if (!obj_[col].IsZero()) {
      Eliminate(obj_.data(), pivot, col, 0, &obj_den_);
    }
    basis_[row] = col;
  }

  void DropRow(size_t r) {
    cells_.erase(cells_.begin() + static_cast<ptrdiff_t>(r * width_),
                 cells_.begin() + static_cast<ptrdiff_t>((r + 1) * width_));
    basis_.erase(basis_.begin() + static_cast<ptrdiff_t>(r));
  }

 private:
  BigInt* Row(size_t r) { return cells_.data() + r * width_; }
  const BigInt* Row(size_t r) const { return cells_.data() + r * width_; }

  /// row := (s * row - f * pivot) / content, where f = row[col] and
  /// s = pivot[col] > 0 are first divided by their gcd. The result is zero
  /// at `col` and a positive multiple of the textbook row minus f times the
  /// textbook pivot row. The row's denominator is its entry `basic`; the
  /// objective row passes its separate denominator `den` instead, which
  /// scales with the row.
  void Eliminate(BigInt* row, const BigInt* pivot, size_t col, size_t basic,
                 BigInt* den) {
    BigInt factor = row[col];
    BigInt scale = pivot[col];
    const BigInt common = BigInt::Gcd(factor, scale);
    if (!common.IsOne()) {
      factor = factor / common;
      scale = scale / common;
    }
    const bool rescale = !scale.IsOne();
    for (size_t c = 0; c < width_; ++c) {
      if (!pivot[c].IsZero()) {
        row[c] = BigInt::MulSub(scale, row[c], factor, pivot[c]);
      } else if (rescale && !row[c].IsZero()) {
        row[c] *= scale;
      }
    }
    // Without a rescale the denominator is unchanged: the row is still that
    // denominator times its textbook row and cannot grow, so only rescaled
    // rows are divided by their content.
    if (!rescale) return;
    if (den != nullptr) *den *= scale;
    // Content: gcd of the entries, seeded with the denominator and stopping
    // at 1.
    BigInt g = den != nullptr ? *den : row[basic];
    for (size_t c = 0; c < width_ && !g.IsOne(); ++c) {
      if (!row[c].IsZero()) g = BigInt::Gcd(g, row[c]);
    }
    if (g.IsOne()) return;
    for (size_t c = 0; c < width_; ++c) {
      if (!row[c].IsZero()) row[c] = row[c] / g;
    }
    if (den != nullptr) *den = *den / g;
  }

  size_t num_cols_;
  size_t width_;  ///< num_cols_ coefficients plus the rhs
  std::vector<BigInt> cells_;  ///< row-major, width_ per row
  std::vector<size_t> basis_;
  std::vector<BigInt> obj_;
  BigInt obj_den_{1};
};

}  // namespace

namespace {

/// Trace span of one LP solve, publishing the pivot count it spent. The
/// counter reads are gated on an installed tracer, so the disabled path
/// stays one relaxed load (the invocation counter is unconditional and
/// predates tracing).
class LpSolveSpan {
 public:
  LpSolveSpan()
      : pivots_before_(span_.active()
                           ? g_simplex_pivots.load(std::memory_order_relaxed)
                           : 0) {}
  ~LpSolveSpan() {
    if (span_.active()) {
      span_.Counter("pivots",
                    g_simplex_pivots.load(std::memory_order_relaxed) -
                        pivots_before_);
    }
  }

 private:
  TraceSpan span_{"lp.solve"};
  uint64_t pivots_before_;
};

}  // namespace

LpResult MaximizeLp(size_t num_vars,
                    const std::vector<LinearConstraint>& constraints,
                    const Vec& objective) {
  LCDB_CHECK(objective.size() == num_vars);
  g_simplex_invocations.fetch_add(1, std::memory_order_relaxed);
  LpSolveSpan lp_span;
  // Each constraint gives `a . x <= b` rows: a <= constraint itself, a >=
  // constraint negated, an equality both. A row whose b is negative is
  // negated once more and gets an artificial variable.
  struct LeRow {
    const LinearConstraint* constraint;
    bool negated;
  };
  std::vector<LeRow> le_rows;
  for (const LinearConstraint& c : constraints) {
    LCDB_CHECK_MSG(!IsStrict(c.rel), "MaximizeLp requires non-strict relations");
    LCDB_CHECK(c.coeffs.size() == num_vars);
    if (c.rel == RelOp::kLe || c.rel == RelOp::kEq) {
      le_rows.push_back({&c, false});
    }
    if (c.rel == RelOp::kGe || c.rel == RelOp::kEq) {
      le_rows.push_back({&c, true});
    }
  }

  auto needs_artificial = [](const LeRow& row) {
    return row.constraint->rhs.Sign() == (row.negated ? 1 : -1);
  };
  const size_t num_artificial = static_cast<size_t>(
      std::count_if(le_rows.begin(), le_rows.end(), needs_artificial));

  // Column layout: [x+_0..x+_{n-1} | x-_0..x-_{n-1} | slacks | artificials].
  const size_t m = le_rows.size();
  const size_t slack_base = 2 * num_vars;
  const size_t art_base = slack_base + m;
  const size_t num_cols = art_base + num_artificial;

  // Rows are built as integers directly: the constraint times its common
  // denominator, which is also the slack's (and artificial's) entry. No
  // prime divides that entry and every coefficient and the rhs, so the row
  // starts with content 1.
  Tableau tableau(m, num_cols);
  size_t next_art = art_base;
  std::vector<size_t> artificial_vars;
  for (size_t r = 0; r < m; ++r) {
    const LinearConstraint& c = *le_rows[r].constraint;
    const bool artificial = needs_artificial(le_rows[r]);
    // The stored row is c, or -c when exactly one of `negated` and
    // `artificial` holds; either way its rhs is |c.rhs| >= 0.
    const bool flip = le_rows[r].negated != artificial;
    const size_t basic = artificial ? next_art++ : slack_base + r;
    BigInt* row = tableau.AddRow(basic);
    const BigInt den =
        Lcm(CommonDenominator(c.coeffs.data(), num_vars), c.rhs.den());
    for (size_t j = 0; j < num_vars; ++j) {
      const Rational& a = c.coeffs[j];
      if (a.IsZero()) continue;
      row[j] = a.num() * (den / a.den());
      if (flip) row[j] = -row[j];
      row[num_vars + j] = -row[j];
    }
    row[num_cols] = c.rhs.num().Abs() * (den / c.rhs.den());
    row[slack_base + r] = artificial ? -den : den;
    if (artificial) {
      row[basic] = den;
      artificial_vars.push_back(basic);
    }
  }

  std::vector<bool> allow_all(num_cols, true);
  if (num_artificial > 0) {
    // Phase 1: maximize -sum(artificials).
    Vec phase1(num_cols);
    for (size_t v : artificial_vars) phase1[v] = Rational(-1);
    tableau.SetObjective(phase1);
    bool bounded = tableau.Optimize(allow_all);
    LCDB_CHECK_MSG(bounded, "phase-1 objective cannot be unbounded");
    if (tableau.objective_value().Sign() < 0) {
      return {LpStatus::kInfeasible, Rational(0), {}};
    }
    // Drive remaining artificials out of the basis.
    for (size_t r = 0; r < tableau.num_rows();) {
      size_t bv = tableau.basis()[r];
      if (bv < art_base) {
        ++r;
        continue;
      }
      size_t pivot_col = num_cols;
      for (size_t c = 0; c < art_base; ++c) {
        if (!tableau.IsZeroAt(r, c)) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col == num_cols) {
        tableau.DropRow(r);  // redundant constraint
      } else {
        tableau.Pivot(r, pivot_col);
        ++r;
      }
    }
  }

  // Phase 2: real objective over split variables; artificials locked out.
  Vec phase2(num_cols);
  for (size_t j = 0; j < num_vars; ++j) {
    phase2[j] = objective[j];
    phase2[num_vars + j] = -objective[j];
  }
  tableau.SetObjective(phase2);
  std::vector<bool> allowed(num_cols, true);
  for (size_t c = art_base; c < num_cols; ++c) allowed[c] = false;
  if (!tableau.Optimize(allowed)) {
    return {LpStatus::kUnbounded, Rational(0), {}};
  }

  Vec split(num_cols);
  for (size_t r = 0; r < tableau.num_rows(); ++r) {
    split[tableau.basis()[r]] = tableau.rhs(r);
  }
  Vec solution(num_vars);
  for (size_t j = 0; j < num_vars; ++j) {
    solution[j] = split[j] - split[num_vars + j];
  }
  return {LpStatus::kOptimal, tableau.objective_value(), std::move(solution)};
}

}  // namespace lcdb

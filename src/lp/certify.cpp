// LP optimality certificate (see certify.hpp).
//
// The standard form is the engine's: one slack per row, a.x - s = 0 with
// s in [row lower, row upper], so the slack's column is -e_i and its
// reduced cost is 0 - y.(-e_i) = y_i.  With d = c - A^T y,
//
//   c.x = sum_j d_j x_j + sum_i y_i s_i,
//
// and replacing each x_j (s_i) by the bound its reduced cost's sign names
// gives the dual objective.  The difference is the sum of the
// complementarity terms, which is why the gap is measured against the
// *reported* objective: that is the one number the other three checks do
// not already pin.
#include "hslb/lp/certify.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hslb/linalg/factor.hpp"

namespace hslb::lp {

Certificate certify(const LpProblem& problem, const LpSolution& solution) {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_rows();
  const Basis& basis = solution.basis;
  Certificate cert;
  if (solution.status != LpStatus::kOptimal || solution.x.size() != n ||
      basis.cols.size() != n || basis.row_slacks.size() != m) {
    return cert;
  }
  const auto status_of = [&](std::size_t j) {
    return j < n ? basis.cols[j] : basis.row_slacks[j - n];
  };

  // Basis position of each basic structural column; basic slacks go
  // straight into B as their -e_i columns.
  linalg::Matrix b(m, m);
  std::vector<std::ptrdiff_t> position(n, -1);
  linalg::Vector cb(m, 0.0);
  std::size_t k = 0;
  for (std::size_t j = 0; j < n + m; ++j) {
    if (status_of(j) != BasisStatus::kBasic) {
      continue;
    }
    if (k == m) {
      return cert;  // more basic members than rows
    }
    if (j < n) {
      position[j] = static_cast<std::ptrdiff_t>(k);
      cb[k] = problem.cost()[j];
    } else {
      b(j - n, k) = -1.0;
    }
    ++k;
  }
  if (k != m) {
    return cert;
  }
  const std::vector<Row>& rows = problem.rows();
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& [col, value] : rows[i].terms) {
      if (position[col] >= 0) {
        b(i, static_cast<std::size_t>(position[col])) = value;
      }
    }
  }
  linalg::Vector y(m, 0.0);
  if (m > 0) {
    const auto lu = linalg::LuFactor::compute(b);
    if (!lu) {
      return cert;
    }
    y = lu->solve_transposed(cb);
  }

  // Reduced costs and row activities, each with the sum of the magnitudes
  // it was formed from.
  const linalg::Vector& x = solution.x;
  linalg::Vector d = problem.cost();
  linalg::Vector d_scale(n, 1.0);
  linalg::Vector activity(m, 0.0);
  linalg::Vector activity_scale(m, 1.0);
  double objective_scale = 1.0 + std::fabs(problem.objective_offset());
  for (std::size_t j = 0; j < n; ++j) {
    d_scale[j] += std::fabs(d[j]);
    objective_scale += std::fabs(problem.cost()[j] * x[j]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& [col, value] : rows[i].terms) {
      d[col] -= y[i] * value;
      d_scale[col] += std::fabs(y[i] * value);
      activity[i] += value * x[col];
      activity_scale[i] += std::fabs(value * x[col]);
    }
  }

  cert.primal = 0.0;
  cert.dual = 0.0;
  cert.complementarity = 0.0;
  double dual_objective = problem.objective_offset();
  for (std::size_t j = 0; j < n + m; ++j) {
    const bool slack = j >= n;
    const std::size_t i = j - n;  // row index when `slack`
    const double value = slack ? activity[i] : x[j];
    const double lower = slack ? rows[i].lower : problem.col_lower()[j];
    const double upper = slack ? rows[i].upper : problem.col_upper()[j];
    const double reduced = slack ? y[i] : d[j];
    const double reduced_scale = slack ? 1.0 + std::fabs(y[i]) : d_scale[j];
    const double value_scale = slack ? activity_scale[i] : 1.0;

    // Primal: the value within its bounds.
    if (value < lower) {
      cert.primal = std::max(
          cert.primal, (lower - value) / (value_scale + std::fabs(lower)));
    } else if (value > upper) {
      cert.primal = std::max(
          cert.primal, (value - upper) / (value_scale + std::fabs(upper)));
    }

    // Dual: a positive reduced cost needs a variable resting at a finite
    // lower bound, a negative one a finite upper bound.
    const BasisStatus st = status_of(j);
    const bool may_be_positive =
        (st == BasisStatus::kAtLower || st == BasisStatus::kFixed) &&
        std::isfinite(lower);
    const bool may_be_negative =
        (st == BasisStatus::kAtUpper || st == BasisStatus::kFixed) &&
        std::isfinite(upper);
    double wrong = 0.0;
    if (reduced > 0.0 && !may_be_positive) {
      wrong = reduced;
    } else if (reduced < 0.0 && !may_be_negative) {
      wrong = -reduced;
    }
    cert.dual = std::max(cert.dual, wrong / reduced_scale);

    // Complementarity and the dual objective: the bound the reduced cost's
    // sign names (the value itself where that bound is infinite -- a
    // reduced cost that large already fails the dual check).
    double bound = reduced > 0.0 ? lower : reduced < 0.0 ? upper : value;
    if (!std::isfinite(bound)) {
      bound = value;
    }
    cert.complementarity =
        std::max(cert.complementarity, std::fabs(reduced * (value - bound)));
    dual_objective += reduced * bound;
  }
  cert.complementarity /= objective_scale;
  cert.gap = std::fabs(solution.objective - dual_objective) / objective_scale;
  cert.ok = cert.primal <= kCertPrimalTol && cert.dual <= kCertDualTol &&
            cert.complementarity <= kCertComplementarityTol &&
            cert.gap <= kCertGapTol;
  return cert;
}

}  // namespace hslb::lp

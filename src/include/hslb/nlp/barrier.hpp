// Primal-dual interior-point solver for smooth inequality-constrained NLPs.
//
// Plays the role filterSQP plays inside MINOTAUR: solving the continuous
// relaxations of the layout MINLPs.  Those relaxations are convex (the
// fitted coefficients a, b, d are nonnegative), so the interior-point
// iteration converges to the global optimum of the relaxation.
//
// Problem form:
//   min  f(x)
//   s.t. g_i(x) <= 0            (smooth, from the expr DSL)
//        lo <= x <= up          (box, entries may be infinite)
//
// Method: infeasible-start primal-dual path following.  Finite box bounds
// are folded into the inequality set; each inequality carries a slack s_i>0
// and multiplier z_i>0, Newton steps solve the perturbed KKT system
//   grad f + J^T z = 0,   g + s = 0,   S Z e = mu e,
// with fraction-to-boundary steps and residual-norm backtracking.  No
// feasible starting point is required.
#pragma once

#include <optional>
#include <vector>

#include "hslb/expr/expr.hpp"
#include "hslb/linalg/matrix.hpp"

namespace hslb::nlp {

struct NlpProblem {
  std::size_t num_vars = 0;
  expr::Expr objective;
  std::vector<expr::Expr> constraints;  ///< each g_i(x) <= 0
  linalg::Vector lower;                 ///< size num_vars; -inf allowed
  linalg::Vector upper;                 ///< size num_vars; +inf allowed
};

enum class NlpStatus {
  kOptimal,        ///< KKT satisfied to tolerance
  kInfeasible,     ///< primal residual would not converge
  kIterationLimit,
};

const char* to_string(NlpStatus status);

struct BarrierOptions {
  double gap_tol = 1e-9;  ///< complementarity target s.z/m
};

struct NlpResult {
  NlpStatus status = NlpStatus::kIterationLimit;
  linalg::Vector x;
  double objective = 0.0;
  int newton_iterations = 0;
};

/// Solve the NLP.  `start` (if given) seeds the primal point; it does not
/// need to be feasible -- the method is infeasible-start.
[[nodiscard]] NlpResult solve_barrier(
    const NlpProblem& problem,
    std::optional<linalg::Vector> start = std::nullopt,
    const BarrierOptions& options = {});

}  // namespace hslb::nlp

// LP optimality certificate, independent of the simplex engine.
//
// certify() proves (or refutes) that a returned LP point is optimal using
// only the problem's own data, the point `x`, and the captured basis
// statuses.  It rebuilds the basis matrix B of [A | -I] from the problem's
// rows, solves B^T y = c_B for the row duals with a fresh dense LU, prices
// every structural column and row slack, and checks the four conditions of
// LP optimality:
//
//   primal      every row activity a.x and every x_j within its bounds;
//   dual        every reduced cost has the sign its basis status allows
//               (at lower: >= 0, at upper: <= 0, fixed: either, basic or
//               free: 0), and never points at an infinite bound;
//   complementarity
//               a nonzero reduced cost holds its variable at the bound its
//               sign names (|d_j| * distance from that bound);
//   gap         the reported objective (objective_offset included) equals
//               the dual objective offset + sum d_j * bound_j.
//
// Nothing the engine maintained -- its factor, its duals, its basic values
// -- is read, so agreement is evidence the engine cannot forge.  Each
// residual is divided by the magnitudes it is formed from (floored at 1)
// and compared with a fixed tolerance; no option widens them.
#pragma once

#include "hslb/lp/problem.hpp"
#include "hslb/lp/simplex.hpp"

namespace hslb::lp {

/// Scaled row/bound violation allowed: the engine accepts basic values up
/// to 1e-7 outside their bounds in absolute terms.
inline constexpr double kCertPrimalTol = 1e-6;
/// Scaled wrong-signed reduced cost allowed: the engine prices to 1e-8
/// absolute, and the recomputed duals carry their own rounding.
inline constexpr double kCertDualTol = 1e-6;
/// Largest complementarity term, relative to the objective's magnitude.
inline constexpr double kCertComplementarityTol = 1e-6;
/// Primal-dual objective gap, relative to the objective's magnitude.
inline constexpr double kCertGapTol = 1e-6;

/// The four scaled maxima and the verdict.  All four are +inf (and `ok`
/// false) when no certificate can be formed: a non-optimal status, a
/// missing or malformed basis, or a singular basis matrix.
struct Certificate {
  double primal = kInf;           ///< max scaled row/bound violation
  double dual = kInf;             ///< max scaled wrong-signed reduced cost
  double complementarity = kInf;  ///< max scaled |d_j| * bound distance
  double gap = kInf;              ///< scaled |objective - dual objective|
  bool ok = false;                ///< every maximum within its tolerance
};

/// Check `solution` (status, x, objective and its captured basis -- solve
/// with SimplexOptions::capture_basis) against `problem`.
[[nodiscard]] Certificate certify(const LpProblem& problem,
                                  const LpSolution& solution);

}  // namespace hslb::lp

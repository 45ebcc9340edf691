// Non-negative least squares by exact passive-set enumeration.
//
// Used by the variable-projection fitter: for a fixed exponent c, the
// Table II model  T(n) = a/n + b n^c + d  is linear in (a, b, d) with the
// paper's positivity constraint a, b, d >= 0 -- exactly an NNLS problem.
//
// The optimum's support is one of the 2^n column subsets, and on its
// support the optimum is that subset's unconstrained least-squares
// solution.  So starting from x = 0, every subset (ascending bitmask order)
// is solved by Householder QR on just its columns and becomes a candidate
// when each of its coefficients exceeds tol = 1e-10 max(1, ||A||_F); the
// candidate with the strictly smallest ||A x - b|| wins.  Subsets with more
// columns than rows are skipped (a subset of at most `rows` columns reaches
// the same residual).  Unlike an active-set iteration, this cannot cycle:
// a column of n^c values (up to ~1e9) that inflates tol costs nothing.
#pragma once

#include "hslb/linalg/matrix.hpp"

namespace hslb::nlp {

/// Enumeration cap: 2^8 - 1 subset solves.  The fitter needs 3 columns.
inline constexpr std::size_t kNnlsMaxColumns = 8;

struct NnlsResult {
  linalg::Vector x;            ///< minimizer, elementwise >= 0
  double residual_norm = 0.0;  ///< ||A x - b||_2
};

/// Scratch storage for solve_nnls.  The first solve sizes it; later solves
/// of the same shape reuse it without allocating.
struct NnlsWorkspace {
  NnlsResult result;  ///< the last solve's answer
  linalg::Vector columns, qtb, householder, z, x, residual;
};

/// Solve  min ||A x - b||_2  subject to  x >= 0  into `ws.result`.
/// Requires A.cols() <= kNnlsMaxColumns.
const NnlsResult& solve_nnls(const linalg::Matrix& a,
                             std::span<const double> b, NnlsWorkspace& ws);

/// As above, with a fresh workspace.
[[nodiscard]] NnlsResult solve_nnls(const linalg::Matrix& a,
                                    std::span<const double> b);

}  // namespace hslb::nlp

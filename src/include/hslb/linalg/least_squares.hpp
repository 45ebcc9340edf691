// Householder-QR linear least squares: the allocating solve_least_squares
// and the in-place kernel behind it, which NNLS runs on every column subset.
#pragma once

#include "hslb/linalg/matrix.hpp"

namespace hslb::linalg {

/// Result of an unconstrained linear least-squares solve min ||Ax - b||^2.
struct LeastSquaresResult {
  Vector x;            ///< minimizer
  double residual_norm = 0.0;  ///< ||A x - b||
  bool full_rank = true;       ///< false if A was rank-deficient (minimum-norm-ish fallback used)
};

/// Solve min ||A x - b||_2 via Householder QR with column norm checks.
/// Requires rows >= cols.  On rank deficiency, small pivots are regularized
/// and `full_rank` is cleared.
LeastSquaresResult solve_least_squares(const Matrix& a,
                                       std::span<const double> b);

/// The QR kernel of solve_least_squares over caller-owned storage, so a hot
/// loop can solve without allocating.  On entry `r` holds A (m x n,
/// row-major, m >= n) and `qtb` holds b; both are overwritten (R in r's
/// upper triangle, Q^T b in qtb).  `v` is scratch of at least m entries and
/// `x` receives the n-entry minimizer.  Returns false if A was
/// rank-deficient.
bool householder_solve(std::size_t m, std::size_t n, std::span<double> r,
                       std::span<double> qtb, std::span<double> v,
                       std::span<double> x);

}  // namespace hslb::linalg

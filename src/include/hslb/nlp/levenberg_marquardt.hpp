// Box-constrained Levenberg-Marquardt for nonlinear least squares.
//
// Solves  min_theta  1/2 ||r(theta)||^2  subject to  lo <= theta <= up.
// Bounds are handled by projection of the trial step; for the well-scaled
// fitting problems of Table II this is robust and fast.  The caller supplies
// residuals and (optionally) an analytic Jacobian; a forward-difference
// Jacobian is used otherwise.
#pragma once

#include <functional>

#include "hslb/linalg/matrix.hpp"

namespace hslb::nlp {

/// Residual callback.  Fill `residuals` (size fixed by the problem) and, if
/// `jacobian` is non-null, the m x n Jacobian d r_i / d theta_j.
using ResidualFn = std::function<void(std::span<const double> theta,
                                      linalg::Vector& residuals,
                                      linalg::Matrix* jacobian)>;

/// Residual loss.  kLeastSquares is the classic 1/2 sum r_i^2; kHuber
/// minimizes sum rho_delta(r_i) via iteratively reweighted least squares
/// (IRLS), bounding the influence of outlier residuals -- the right choice
/// when fitting curves to timing samples that may contain corrupt values.
enum class LmLoss { kLeastSquares, kHuber };

struct LmOptions {
  LmLoss loss = LmLoss::kLeastSquares;
  /// Huber transition point: residuals beyond `huber_delta` scale factors
  /// of the residuals' median absolute deviation get down-weighted.  The
  /// threshold adapts to the residual scale each IRLS round.
  double huber_delta = 1.345;
};

struct LmResult {
  linalg::Vector theta;   ///< best parameters found
  double cost = 0.0;      ///< 1/2 ||r||^2 at theta
  int iterations = 0;
  bool converged = false;
};

/// Run LM from `theta0` (projected into the box first).
/// `num_residuals` is the length of the residual vector r.
[[nodiscard]] LmResult minimize_lm(const ResidualFn& fn,
                                   std::span<const double> theta0,
                                   std::span<const double> lower,
                                   std::span<const double> upper,
                                   std::size_t num_residuals,
                                   const LmOptions& options = {});

}  // namespace hslb::nlp

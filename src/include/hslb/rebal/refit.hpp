// Incremental re-fitting for the rebalancing loop.
//
// Between rebalances the allocation is fixed, so the per-component node
// counts never vary and a full 4-parameter Table II re-fit is unidentifiable
// from in-loop data.  What *is* identifiable -- and what the drift model
// produces -- is a multiplicative scale on each component's base curve.  The
// ScaleTracker estimates that scale online:
//   * recursive least squares with a forgetting factor follows slow drift,
//   * a CUSUM over standardized residuals flags regime shifts, and
//   * on a flag the scale is re-estimated from a short window of recent
//     ratios with a Huber M-estimate (the PR 2 bounded-influence loss, so a
//     co-occurring noise spike cannot poison the new level) and the RLS
//     covariance is reset for fast re-convergence.
// The generic d-dimensional RLS is exposed for callers that do have varying
// regressors (and for the unit tests' RLS-vs-batch-LS identity).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hslb::rebal {

/// Recursive least squares with exponential forgetting factor lambda:
/// minimizes sum_i lambda^(t-i) (y_i - x_i . theta)^2 incrementally.
/// lambda == 1 reproduces batch least squares exactly (given a large
/// initial covariance); lambda < 1 tracks drifting parameters with an
/// effective memory of ~1/(1-lambda) samples.
class RecursiveLeastSquares {
 public:
  RecursiveLeastSquares(std::size_t dim, double lambda = 0.98,
                        double initial_covariance = 1e6);

  void observe(std::span<const double> x, double y);

  /// Current estimate x . theta for a regressor.
  double predict(std::span<const double> x) const;

  const std::vector<double>& theta() const { return theta_; }
  long samples() const { return samples_; }

  /// Re-inflate the covariance (keeps theta): the estimator re-converges at
  /// fresh-start speed.  Used after a detected regime shift.
  void reset_covariance(double initial_covariance = 1e6);

  /// Overwrite the estimate (the Huber re-fit installs its level here).
  void set_theta(std::span<const double> theta);

 private:
  std::size_t dim_ = 0;
  double lambda_ = 1.0;
  std::vector<double> theta_;
  std::vector<double> p_;  ///< dim x dim covariance, row-major
  long samples_ = 0;
};

/// Two-sided CUSUM over standardized residuals: accumulates
/// max(0, s + |z| - k) per side and flags when either side crosses h.
/// k = 0.5 sigma (the allowance) absorbs the RLS tracking lag on slow
/// drift; h = 12 sigma sets the evidence needed to call a shift.
class ResidualCusum {
 public:
  /// Feed one standardized residual; true when a shift is flagged (the
  /// accumulators reset on a flag).
  bool observe(double z);

  void reset();
  double positive() const { return positive_; }
  double negative() const { return negative_; }

 private:
  double positive_ = 0.0;
  double negative_ = 0.0;
};

/// Huber M-estimate of location over `samples` (IRLS with MAD scale):
/// behaves like the mean for inliers, bounds the influence of outliers
/// beyond delta robust-sigma.  Returns 0 for an empty span.
double huber_location(std::span<const double> samples, double delta = 1.345);

/// Online estimator of one component's multiplicative cost scale from the
/// stream of ratios  observed_seconds / base_curve_seconds.
class ScaleTracker {
 public:
  ScaleTracker();

  struct Update {
    double scale = 1.0;        ///< current estimate after this sample
    bool regime_shift = false; ///< CUSUM flagged; Huber re-fit applied
  };

  Update observe(double ratio);

  double scale() const;
  long samples() const { return rls_.samples(); }
  long regime_shifts() const { return regime_shifts_; }

 private:
  RecursiveLeastSquares rls_;
  ResidualCusum cusum_;
  std::vector<double> recent_;  ///< ring of the last kRefitWindow ratios
  int next_recent_ = 0;
  int recent_filled_ = 0;
  double residual_var_ = 0.0;   ///< EW estimate of residual variance
  int var_samples_ = 0;         ///< samples since the last variance reset
  long regime_shifts_ = 0;
};

}  // namespace hslb::rebal

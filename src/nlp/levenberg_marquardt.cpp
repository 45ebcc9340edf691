#include "hslb/nlp/levenberg_marquardt.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"
#include "hslb/linalg/factor.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::nlp {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr int kMaxIterations = 200;
/// Stop when ||J^T r||_inf falls below this.
constexpr double kGradientTol = 1e-10;
/// Stop when the step is negligible.
constexpr double kStepTol = 1e-12;
/// Initial damping.
constexpr double kInitialLambda = 1e-3;
/// Reweighting rounds for kHuber.
constexpr int kIrlsRounds = 5;

Vector clamp_to_box(std::span<const double> x, std::span<const double> lo,
                    std::span<const double> up) {
  Vector out(x.begin(), x.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::clamp(out[i], lo[i], up[i]);
  }
  return out;
}

/// Forward-difference Jacobian fallback.
void numeric_jacobian(const ResidualFn& fn, std::span<const double> theta,
                      const Vector& r0, Matrix& jac) {
  Vector perturbed(theta.begin(), theta.end());
  Vector r(r0.size());
  for (std::size_t j = 0; j < theta.size(); ++j) {
    const double h = 1e-7 * std::max(1.0, std::fabs(theta[j]));
    perturbed[j] = theta[j] + h;
    fn(perturbed, r, nullptr);
    for (std::size_t i = 0; i < r.size(); ++i) {
      jac(i, j) = (r[i] - r0[i]) / h;
    }
    perturbed[j] = theta[j];
  }
}

/// Robust scale of a residual vector: 1.4826 * MAD about the median
/// (consistent with sigma for Gaussian residuals).
double mad_scale(const Vector& r) {
  Vector sorted(r);
  std::sort(sorted.begin(), sorted.end());
  const auto median_of = [](Vector& v) {
    const std::size_t m = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(m),
                     v.end());
    return v.size() % 2 == 1
               ? v[m]
               : 0.5 * (v[m] +
                        *std::max_element(
                            v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(m)));
  };
  const double med = median_of(sorted);
  Vector deviations(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    deviations[i] = std::fabs(r[i] - med);
  }
  return 1.4826 * median_of(deviations);
}

LmResult minimize_lm_core(const ResidualFn& fn,
                          std::span<const double> theta0,
                          std::span<const double> lower,
                          std::span<const double> upper,
                          std::size_t num_residuals) {
  const std::size_t n = theta0.size();
  HSLB_REQUIRE(lower.size() == n && upper.size() == n,
               "LM bound sizes must match parameter count");
  HSLB_REQUIRE(num_residuals >= 1, "LM needs at least one residual");

  HSLB_SPAN("nlp.lm");
  obs::Registry* metrics = obs::current_metrics();
  obs::Counter* c_iterations =
      metrics != nullptr ? &metrics->counter("nlp.lm.iterations") : nullptr;
  obs::Counter* c_lambda_up = metrics != nullptr
                                  ? &metrics->counter("nlp.lm.lambda_increases")
                                  : nullptr;
  obs::Counter* c_steps =
      metrics != nullptr ? &metrics->counter("nlp.lm.steps_accepted") : nullptr;
  obs::TraceSession* trace = obs::current_trace();
  if (metrics != nullptr) {
    metrics->counter("nlp.lm.calls").add(1.0);
  }

  LmResult out;
  out.theta = clamp_to_box(theta0, lower, upper);

  Vector r(num_residuals);
  Matrix jac(num_residuals, n);

  // Detect whether the callback provides an analytic Jacobian: call once
  // with a poisoned matrix and see if it was written.
  bool analytic = true;
  {
    Matrix probe(num_residuals, n,
                 std::numeric_limits<double>::quiet_NaN());
    fn(out.theta, r, &probe);
    analytic = !std::isnan(probe(0, 0));
    if (analytic) {
      jac = probe;
    } else {
      numeric_jacobian(fn, out.theta, r, jac);
    }
  }
  out.cost = 0.5 * linalg::dot(r, r);

  double lambda = kInitialLambda;

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    out.iterations = iter + 1;
    if (c_iterations != nullptr) {
      c_iterations->add(1.0);
    }
    if (trace != nullptr) {
      // Residual-norm / damping trajectories as Chrome counter tracks.
      trace->record_counter("nlp.lm.residual_norm",
                            std::sqrt(2.0 * out.cost));
      trace->record_counter("nlp.lm.lambda", lambda);
    }

    const Vector grad = linalg::matvec_t(jac, r);  // J^T r
    if (linalg::norm_inf(grad) < kGradientTol) {
      out.converged = true;
      break;
    }

    const Matrix jtj = linalg::gram(jac);

    bool stepped = false;
    for (int attempt = 0; attempt < 30 && !stepped; ++attempt) {
      // Solve (J^T J + lambda * diag(J^T J)) delta = -J^T r.
      Matrix damped = jtj;
      for (std::size_t i = 0; i < n; ++i) {
        damped(i, i) += lambda * std::max(jtj(i, i), 1e-12);
      }
      const auto chol = linalg::CholeskyFactor::compute(damped);
      if (!chol) {
        lambda *= 10.0;
        if (c_lambda_up != nullptr) {
          c_lambda_up->add(1.0);
        }
        continue;
      }
      Vector delta = chol->solve(grad);
      for (double& d : delta) {
        d = -d;
      }

      Vector trial(out.theta);
      linalg::axpy(1.0, delta, trial);
      trial = clamp_to_box(trial, lower, upper);

      Vector step = linalg::subtract(trial, out.theta);
      if (linalg::norm2(step) <
          kStepTol * (1.0 + linalg::norm2(out.theta))) {
        out.converged = true;
        stepped = true;
        break;
      }

      Vector r_trial(num_residuals);
      fn(trial, r_trial, nullptr);
      const double cost_trial = 0.5 * linalg::dot(r_trial, r_trial);

      if (cost_trial < out.cost) {
        out.theta = trial;
        out.cost = cost_trial;
        r = r_trial;
        if (analytic) {
          fn(out.theta, r, &jac);
        } else {
          numeric_jacobian(fn, out.theta, r, jac);
        }
        lambda = std::max(lambda * 0.3, 1e-12);
        stepped = true;
        if (c_steps != nullptr) {
          c_steps->add(1.0);
        }
      } else {
        lambda *= 10.0;
        if (c_lambda_up != nullptr) {
          c_lambda_up->add(1.0);
        }
        if (lambda > 1e14) {
          out.converged = true;  // damping saturated: local minimum
          stepped = true;
        }
      }
    }
    if (out.converged) {
      break;
    }
    if (!stepped) {
      break;  // could not make progress
    }
  }
  return out;
}

}  // namespace

LmResult minimize_lm(const ResidualFn& fn, std::span<const double> theta0,
                     std::span<const double> lower,
                     std::span<const double> upper,
                     std::size_t num_residuals, const LmOptions& options) {
  if (options.loss == LmLoss::kLeastSquares) {
    return minimize_lm_core(fn, theta0, lower, upper, num_residuals);
  }

  // Huber via IRLS: alternate a weighted least-squares LM solve with a
  // reweighting pass.  Residuals beyond huber_delta robust-sigmas of zero
  // get weight delta/|r| (bounded influence); inliers keep weight 1.
  HSLB_REQUIRE(options.huber_delta > 0.0, "huber_delta must be positive");
  obs::Registry* metrics = obs::current_metrics();

  Vector weights(num_residuals, 1.0);
  Vector start(theta0.begin(), theta0.end());
  LmResult out;

  for (int round = 0; round < kIrlsRounds; ++round) {
    if (metrics != nullptr) {
      metrics->counter("nlp.lm.irls_rounds").add(1.0);
    }
    const ResidualFn weighted = [&fn, &weights](
                                    std::span<const double> theta, Vector& r,
                                    Matrix* jacobian) {
      fn(theta, r, jacobian);
      for (std::size_t i = 0; i < r.size(); ++i) {
        const double sw = std::sqrt(weights[i]);
        r[i] *= sw;
        if (jacobian != nullptr && !std::isnan((*jacobian)(0, 0))) {
          for (std::size_t j = 0; j < jacobian->cols(); ++j) {
            (*jacobian)(i, j) *= sw;
          }
        }
      }
    };
    out = minimize_lm_core(weighted, start, lower, upper, num_residuals);

    // Reweight from the *unweighted* residuals at the new point.
    Vector r(num_residuals);
    fn(out.theta, r, nullptr);
    const double sigma = mad_scale(r);
    const double threshold =
        options.huber_delta * std::max(sigma, 1e-12);
    double max_change = 0.0;
    for (std::size_t i = 0; i < num_residuals; ++i) {
      const double magnitude = std::fabs(r[i]);
      const double w =
          magnitude <= threshold ? 1.0 : threshold / magnitude;
      max_change = std::max(max_change, std::fabs(w - weights[i]));
      weights[i] = w;
    }
    start = out.theta;
    if (max_change < 1e-6) {
      break;  // weights settled: the robust fixed point is reached
    }
  }
  return out;
}

}  // namespace hslb::nlp

#include "hslb/rebal/refit.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"

namespace hslb::rebal {
namespace {

/// CUSUM per-step allowance, in sigma units.
constexpr double kCusumK = 0.5;
/// CUSUM decision threshold, in sigma units.
constexpr double kCusumH = 12.0;
/// RLS lambda for the tracker's slow-drift path.
constexpr double kForgetting = 0.97;
/// Recent ratios fed to the Huber re-fit.
constexpr int kRefitWindow = 6;
/// Huber transition point of the re-fit.
constexpr double kHuberDelta = 1.345;
/// Floor on the residual sigma estimate (relative units) so a noise-free
/// stream cannot standardize rounding error into fake shifts.
constexpr double kMinSigma = 1e-3;
/// Samples of plain (unweighted) variance averaging before the CUSUM is
/// trusted, at start and again after every shift reset: seeding the
/// exponentially weighted variance from one residual would let an early
/// small noise draw shrink sigma and standardize noise into fake shifts.
constexpr int kVarianceWarmup = 8;
/// Covariance after a regime shift: large enough to re-converge in a few
/// steps, small enough that one noisy sample cannot override the Huber
/// level the re-fit just installed.
constexpr double kShiftCovariance = 0.5;

}  // namespace

RecursiveLeastSquares::RecursiveLeastSquares(std::size_t dim, double lambda,
                                             double initial_covariance)
    : dim_(dim), lambda_(lambda) {
  HSLB_REQUIRE(dim >= 1, "RLS needs at least one parameter");
  HSLB_REQUIRE(lambda > 0.0 && lambda <= 1.0, "RLS lambda must be in (0, 1]");
  HSLB_REQUIRE(initial_covariance > 0.0,
               "RLS initial covariance must be positive");
  theta_.assign(dim_, 0.0);
  reset_covariance(initial_covariance);
}

void RecursiveLeastSquares::reset_covariance(double initial_covariance) {
  p_.assign(dim_ * dim_, 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    p_[i * dim_ + i] = initial_covariance;
  }
}

void RecursiveLeastSquares::set_theta(std::span<const double> theta) {
  HSLB_REQUIRE(theta.size() == dim_, "theta dimension mismatch");
  theta_.assign(theta.begin(), theta.end());
}

double RecursiveLeastSquares::predict(std::span<const double> x) const {
  HSLB_REQUIRE(x.size() == dim_, "regressor dimension mismatch");
  double y = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    y += x[i] * theta_[i];
  }
  return y;
}

void RecursiveLeastSquares::observe(std::span<const double> x, double y) {
  HSLB_REQUIRE(x.size() == dim_, "regressor dimension mismatch");
  // Standard RLS update:
  //   k = P x / (lambda + x' P x)
  //   theta += k (y - x' theta)
  //   P = (P - k x' P) / lambda
  std::vector<double> px(dim_, 0.0);  // P x (P is symmetric)
  double xpx = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      px[i] += p_[i * dim_ + j] * x[j];
    }
    xpx += x[i] * px[i];
  }
  const double denom = lambda_ + xpx;
  const double innovation = y - predict(x);
  for (std::size_t i = 0; i < dim_; ++i) {
    theta_[i] += px[i] / denom * innovation;
  }
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      p_[i * dim_ + j] = (p_[i * dim_ + j] - px[i] * px[j] / denom) / lambda_;
    }
  }
  ++samples_;
}

void ResidualCusum::reset() {
  positive_ = 0.0;
  negative_ = 0.0;
}

bool ResidualCusum::observe(double z) {
  positive_ = std::max(0.0, positive_ + z - kCusumK);
  negative_ = std::max(0.0, negative_ - z - kCusumK);
  if (positive_ > kCusumH || negative_ > kCusumH) {
    reset();
    return true;
  }
  return false;
}

double huber_location(std::span<const double> samples, double delta) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const auto median_of = [](std::vector<double>& v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    if (v.size() % 2 == 1) {
      return v[mid];
    }
    const double hi = v[mid];
    const double lo =
        *std::max_element(v.begin(),
                          v.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lo + hi);
  };
  double mu = median_of(sorted);
  // MAD scale (1.4826 makes it consistent for the normal).
  std::vector<double> dev(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    dev[i] = std::fabs(sorted[i] - mu);
  }
  const double sigma = std::max(1.4826 * median_of(dev), 1e-12);
  // IRLS with the Huber psi-weights; converges in a handful of rounds.
  for (int round = 0; round < 10; ++round) {
    double weighted = 0.0;
    double weight_sum = 0.0;
    for (const double sample : samples) {
      const double r = std::fabs(sample - mu) / sigma;
      const double w = r <= delta ? 1.0 : delta / r;
      weighted += w * sample;
      weight_sum += w;
    }
    const double next = weighted / weight_sum;
    if (std::fabs(next - mu) <= 1e-12 * std::max(1.0, std::fabs(mu))) {
      mu = next;
      break;
    }
    mu = next;
  }
  return mu;
}

ScaleTracker::ScaleTracker() : rls_(1, kForgetting) {
  const double one = 1.0;
  rls_.set_theta(std::span<const double>(&one, 1));
  recent_.assign(static_cast<std::size_t>(kRefitWindow), 0.0);
}

double ScaleTracker::scale() const { return rls_.theta()[0]; }

ScaleTracker::Update ScaleTracker::observe(double ratio) {
  Update update;
  const double one = 1.0;
  const std::span<const double> x(&one, 1);

  recent_[static_cast<std::size_t>(next_recent_)] = ratio;
  next_recent_ = (next_recent_ + 1) % kRefitWindow;
  recent_filled_ = std::min(recent_filled_ + 1, kRefitWindow);

  const double residual = ratio - rls_.predict(x);
  // Residual variance: plain averaging through the burn-in (so one early
  // small draw cannot shrink sigma), then exponentially weighted with the
  // RLS memory; floored so a clean stream cannot standardize numerical
  // dust into shifts.
  if (var_samples_ < kVarianceWarmup) {
    residual_var_ += (residual * residual - residual_var_) /
                     static_cast<double>(var_samples_ + 1);
  } else {
    const double beta = kForgetting;
    residual_var_ =
        beta * residual_var_ + (1.0 - beta) * residual * residual;
  }
  ++var_samples_;
  const double sigma =
      std::max(std::sqrt(residual_var_), kMinSigma);

  // The CUSUM only runs on a burnt-in sigma estimate.
  const bool warm = var_samples_ > kVarianceWarmup;
  if (warm && cusum_.observe(residual / sigma)) {
    // Regime shift: re-estimate the level from the recent window with the
    // bounded-influence Huber location, then let RLS re-converge fast.
    ++regime_shifts_;
    update.regime_shift = true;
    const double level = huber_location(
        std::span<const double>(recent_.data(),
                                static_cast<std::size_t>(recent_filled_)),
        kHuberDelta);
    rls_.set_theta(std::span<const double>(&level, 1));
    rls_.reset_covariance(kShiftCovariance);
    // The regime's noise level changed with its mean: re-burn-in the
    // variance so the next few post-shift residuals set the new sigma.
    residual_var_ = 0.0;
    var_samples_ = 0;
  }
  rls_.observe(x, ratio);
  update.scale = scale();
  return update;
}

}  // namespace hslb::rebal

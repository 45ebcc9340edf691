#include "hslb/hslb/resilience.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"
#include "hslb/hslb/objectives.hpp"
#include "hslb/nlp/nnls.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::core {
namespace {

using cesm::ComponentKind;

double median_of(std::vector<double> values) {
  HSLB_ASSERT(!values.empty(), "median of empty vector");
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                : 0.5 * (values[m - 1] + values[m]);
}

int min_nodes_of(const LayoutModelSpec& spec, ComponentKind kind) {
  const auto it = spec.min_nodes.find(kind);
  return it == spec.min_nodes.end() ? 1 : std::max(1, it->second);
}

/// Score under the spec's objective; lower is better for all three.
double objective_score(const LayoutModelSpec& spec,
                       const BalanceMetrics& metrics) {
  switch (spec.objective) {
    case Objective::kMinMax:
      return metrics.combined_total;
    case Objective::kMaxMin:
      return -metrics.min_component;
    case Objective::kMinSum:
      return metrics.sum_components;
  }
  return metrics.combined_total;
}

/// Candidate counts for a component: the allowed set when one is given,
/// otherwise ~24 log-spaced integers across [lo, hi].
std::vector<int> candidate_counts(const std::vector<int>& allowed, int lo,
                                  int hi) {
  std::vector<int> out;
  if (!allowed.empty()) {
    for (const int v : allowed) {
      if (v >= lo && v <= hi) {
        out.push_back(v);
      }
    }
    return out;
  }
  if (hi < lo) {
    return out;
  }
  const double log_lo = std::log(static_cast<double>(lo));
  const double log_hi = std::log(static_cast<double>(std::max(lo + 1, hi)));
  constexpr int kSteps = 24;
  int previous = 0;
  for (int k = 0; k <= kSteps; ++k) {
    const int v = static_cast<int>(std::lround(
        std::exp(log_lo + (log_hi - log_lo) * k / kSteps)));
    const int clamped = std::clamp(v, lo, hi);
    if (clamped != previous) {
      out.push_back(clamped);
      previous = clamped;
    }
  }
  return out;
}

}  // namespace

bool ResilienceReport::degraded() const {
  if (solver_fallback) {
    return true;
  }
  for (const auto& kv : components) {
    if (kv.second.degraded_fit) {
      return true;
    }
  }
  return false;
}

FilteredSeries reject_outliers(const cesm::Series& series, double threshold,
                               const perf::FitOptions& fit_options) {
  HSLB_REQUIRE(threshold > 0.0, "outlier threshold must be positive");
  FilteredSeries out;
  if (series.nodes.size() < 4) {
    out.series = series;  // too few samples for a meaningful MAD
    return out;
  }

  // Robust pre-fit so outliers do not drag the reference curve toward
  // themselves before being measured against it.
  perf::FitOptions robust = fit_options;
  robust.robust_loss = true;
  const perf::FitResult reference =
      perf::fit(series.nodes, series.seconds, robust);

  // Relative residuals against the robust curve.
  std::vector<double> residuals(series.nodes.size());
  for (std::size_t i = 0; i < series.nodes.size(); ++i) {
    const double predicted = reference.model(series.nodes[i]);
    residuals[i] = (series.seconds[i] - predicted) /
                   std::max(std::fabs(predicted), 1e-12);
  }
  const double center = median_of(residuals);
  std::vector<double> deviations(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    deviations[i] = std::fabs(residuals[i] - center);
  }
  const double mad = std::max(median_of(deviations), 1e-12);

  for (std::size_t i = 0; i < series.nodes.size(); ++i) {
    const double z = 0.6745 * deviations[i] / mad;
    // The absolute floor keeps ultra-tight series (MAD ~ 0) from shedding
    // good samples over sub-percent wiggles.
    if (z > threshold && deviations[i] > 0.05) {
      ++out.rejected;
      HSLB_COUNT("hslb.resilience.outliers_rejected", 1);
      continue;
    }
    out.series.nodes.push_back(series.nodes[i]);
    out.series.seconds.push_back(series.seconds[i]);
  }
  return out;
}

perf::FitResult fallback_fit(const cesm::Series& series) {
  HSLB_REQUIRE(!series.nodes.empty(),
               "fallback fit needs at least one sample");
  const std::size_t m = series.nodes.size();
  linalg::Matrix a(m, 2);
  for (std::size_t i = 0; i < m; ++i) {
    HSLB_REQUIRE(series.nodes[i] > 0.0, "node counts must be positive");
    a(i, 0) = 1.0 / series.nodes[i];
    a(i, 1) = 1.0;
  }
  const nlp::NnlsResult nnls = nlp::solve_nnls(a, series.seconds);

  perf::PerfParams params;
  params.a = nnls.x[0];
  params.d = nnls.x[1];
  perf::FitResult out;
  out.model = perf::PerfModel(params);
  out.sse = nnls.residual_norm * nnls.residual_norm;
  out.rmse = std::sqrt(out.sse / static_cast<double>(m));
  std::vector<double> predicted(m);
  for (std::size_t i = 0; i < m; ++i) {
    predicted[i] = out.model(series.nodes[i]);
  }
  out.r_squared = perf::r_squared(series.seconds, predicted);
  out.converged = true;
  out.degrees_of_freedom = static_cast<int>(m) - 2;
  HSLB_COUNT("hslb.resilience.fallback_fits", 1);
  return out;
}

Allocation heuristic_allocation(const LayoutModelSpec& spec) {
  HSLB_REQUIRE(spec.total_nodes >= 4, "machine slice too small");
  for (const ComponentKind kind : cesm::kModeledComponents) {
    HSLB_REQUIRE(spec.perf.count(kind) == 1,
                 "heuristic allocation needs every fitted curve");
  }
  HSLB_COUNT("hslb.resilience.heuristic_solves", 1);

  const int total = spec.total_nodes;
  const int min_atm = min_nodes_of(spec, ComponentKind::kAtm);
  const int min_ocn = min_nodes_of(spec, ComponentKind::kOcn);
  const int min_ice = min_nodes_of(spec, ComponentKind::kIce);
  const int min_lnd = min_nodes_of(spec, ComponentKind::kLnd);

  const auto evaluate = [&spec](const std::map<ComponentKind, int>& nodes) {
    std::map<ComponentKind, double> seconds;
    for (const auto& [kind, n] : nodes) {
      seconds[kind] = spec.perf.at(kind)(static_cast<double>(n));
    }
    return std::make_pair(evaluate_balance(spec.layout, nodes, seconds),
                          seconds);
  };

  bool found = false;
  double best_score = 0.0;
  Allocation best;

  const auto consider = [&](const std::map<ComponentKind, int>& nodes) {
    const auto [metrics, seconds] = evaluate(nodes);
    const double score = objective_score(spec, metrics);
    if (!found || score < best_score) {
      found = true;
      best_score = score;
      best.nodes = nodes;
      best.predicted_seconds = seconds;
      best.predicted_total = metrics.combined_total;
    }
  };

  if (spec.layout == cesm::LayoutKind::kFullySequential) {
    // Everything runs one after another: give every component the machine
    // (snapped into its allowed set where one exists).
    std::map<ComponentKind, int> nodes;
    nodes[ComponentKind::kOcn] =
        spec.ocn_allowed.empty()
            ? total
            : cesm::snap_down(spec.ocn_allowed, total).value;
    nodes[ComponentKind::kAtm] =
        spec.atm_allowed.empty()
            ? total
            : cesm::snap_down(spec.atm_allowed, total).value;
    nodes[ComponentKind::kIce] = total;
    nodes[ComponentKind::kLnd] = total;
    consider(nodes);
  } else {
    for (const int ocn :
         candidate_counts(spec.ocn_allowed, min_ocn, total - min_atm)) {
      const int side = total - ocn;  // nodes left beside the ocean
      int atm = side;
      if (!spec.atm_allowed.empty()) {
        const cesm::SnapResult snapped =
            cesm::snap_down(spec.atm_allowed, side);
        if (!snapped.fits) {
          continue;
        }
        atm = snapped.value;
      }
      if (atm < min_atm) {
        continue;
      }
      if (spec.layout == cesm::LayoutKind::kSequentialGroup) {
        // Ice, land, and atmosphere run sequentially on the same slice.
        std::map<ComponentKind, int> nodes{{ComponentKind::kOcn, ocn},
                                           {ComponentKind::kAtm, atm},
                                           {ComponentKind::kIce, side},
                                           {ComponentKind::kLnd, side}};
        consider(nodes);
        continue;
      }
      // Hybrid: ice and land split the atmosphere group.
      for (int percent = 5; percent <= 95; percent += 5) {
        const int ice = std::max(
            min_ice, static_cast<int>(std::lround(atm * percent / 100.0)));
        const int lnd = atm - ice;
        if (lnd < min_lnd) {
          continue;
        }
        std::map<ComponentKind, int> nodes{{ComponentKind::kOcn, ocn},
                                           {ComponentKind::kAtm, atm},
                                           {ComponentKind::kIce, ice},
                                           {ComponentKind::kLnd, lnd}};
        consider(nodes);
      }
    }
  }

  HSLB_REQUIRE(found, "heuristic fallback found no feasible allocation");
  return best;
}

}  // namespace hslb::core

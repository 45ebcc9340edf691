// The resilience layer of the HSLB pipeline: what happens between a noisy,
// fault-injected gather step and the fit/solve steps that assume clean data.
//
//   * MAD-based outlier rejection: corrupt or spiked samples are identified
//     by their modified z-score against a robust (Huber) pre-fit and dropped
//     before the final fit.
//   * Graceful degradation: a component left with too few clean samples is
//     re-sampled within a retry budget; if that fails too, its curve falls
//     back to a monotone nonneg-least-squares interpolant (a/n + d) and the
//     result is flagged `degraded` rather than aborting the pipeline.
//   * Heuristic allocation: when the MINLP solve exhausts its budget without
//     an incumbent, a direct grid search over the allowed sets produces a
//     feasible (if suboptimal) allocation from the fitted curves.
#pragma once

#include <map>

#include "hslb/cesm/campaign.hpp"
#include "hslb/hslb/layout_model.hpp"
#include "hslb/perf/fit.hpp"

namespace hslb::core {

/// Knobs for the resilience layer.  Engaged when PipelineConfig::faults is
/// enabled or `enabled` is set explicitly (for archived noisy samples).
struct ResilienceOptions {
  bool enabled = false;  ///< force resilience even without injected faults
  common::RetryPolicy retry;  ///< per-benchmark retry/backoff budget
};

/// Outlier-rejection outcome for one component's series.
struct FilteredSeries {
  cesm::Series series;   ///< the clean samples
  int rejected = 0;      ///< samples dropped as outliers
};

/// Reject outliers from a (nodes, seconds) series: fit a robust Huber curve,
/// compute relative residuals, and drop samples whose modified z-score
/// (0.6745 |r - median| / MAD) exceeds `threshold`.  Series with fewer than
/// four samples are passed through unchanged (MAD needs a quorum).
FilteredSeries reject_outliers(const cesm::Series& series, double threshold,
                               const perf::FitOptions& fit_options);

/// Monotone fallback curve for a component with too few clean samples: the
/// nonnegative least-squares fit of a/n + d through whatever points remain
/// (monotone non-increasing by construction).  Requires >= 1 sample.
perf::FitResult fallback_fit(const cesm::Series& series);

/// Direct grid-search allocation from fitted curves, used when the MINLP
/// solver returns no usable incumbent within its budget.  Honors the
/// allowed sets and memory floors; ignores the sync tolerance (this is a
/// degraded-mode answer, flagged as such by the pipeline).
Allocation heuristic_allocation(const LayoutModelSpec& spec);

/// Per-component resilience outcome, reported in HslbResult.
struct ComponentResilience {
  int samples_used = 0;      ///< clean samples the fit consumed
  int samples_rejected = 0;  ///< dropped as outliers
  int resample_runs = 0;     ///< targeted re-sampling campaign runs
  bool degraded_fit = false; ///< fallback interpolant used instead of fit
};

/// Pipeline-wide resilience outcome.
struct ResilienceReport {
  std::map<cesm::ComponentKind, ComponentResilience> components;
  bool solver_fallback = false;  ///< heuristic allocation replaced the MINLP
  cesm::CampaignFaultReport campaign;

  /// True when anything had to degrade (fallback fit or heuristic solve).
  bool degraded() const;
};

}  // namespace hslb::core

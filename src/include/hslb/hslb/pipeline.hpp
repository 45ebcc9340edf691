// The four-step HSLB pipeline (section III-F):
//   1. Gather -- benchmark the coupled model at several node counts.
//   2. Fit    -- four least-squares problems, one per component (Table II).
//   3. Solve  -- the Table I MINLP for the target machine size.
//   4. Execute-- run the model at the optimal allocation and compare.
#pragma once

#include "hslb/cesm/campaign.hpp"
#include "hslb/hslb/layout_model.hpp"
#include "hslb/hslb/resilience.hpp"
#include "hslb/obs/obs.hpp"
#include "hslb/perf/fit.hpp"

namespace hslb::core {

struct PipelineConfig {
  cesm::CaseConfig case_config;
  cesm::LayoutKind layout = cesm::LayoutKind::kHybrid;
  int total_nodes = 0;            ///< target machine slice N
  std::vector<int> gather_totals; ///< campaign sizes (step 1)
  perf::FitOptions fit_options;   ///< step 2 options
  /// Ice/land sync tolerance (s); < 0: auto, 25% of the fitted ice time at
  /// N/2 nodes, at least 1 s (see layout_spec).
  double tsync = -1.0;
  bool constrain_ocean = true;  ///< use the case's allowed ocean set
  bool constrain_atm = true;    ///< use the case's allowed atm set
  bool use_sos = true;
  Objective objective = Objective::kMinMax;
  minlp::SolverOptions solver;
  std::uint64_t seed = 2014;
  /// Learn a sea-ice decomposition policy (the reference-[10] companion
  /// method) before gathering, and run every benchmark and the final
  /// execution under it.  Smooths the ice curve and tightens the fit.
  bool tune_ice_decomposition = false;
  /// Fault injection for the gather step (disabled by default: the campaign
  /// takes the exact fault-free code path).  Enabling faults implicitly
  /// engages the resilience layer below.
  cesm::FaultSpec faults;
  /// Resilience knobs: outlier rejection, robust fits, targeted
  /// re-sampling, fallback fits/allocations.  Engaged whenever faults are
  /// injected, or explicitly via resilience.enabled for archived noisy
  /// samples.
  ResilienceOptions resilience;
  /// Observability wiring: borrowed trace-session/metrics-registry pointers
  /// installed (obs::Install) for the duration of the run.  The pipeline
  /// emits one span per phase (gather/fit/solve/execute) with nested
  /// solver/fitter/driver spans; metrics accumulate in the registry for
  /// core::render_metrics_block.  Null members leave the current context
  /// untouched.
  obs::Options obs;
};

/// Outcome for one component: planned nodes, model-predicted time, and the
/// time measured in the execute step.
struct ComponentOutcome {
  int nodes = 0;
  double predicted_seconds = 0.0;
  double actual_seconds = 0.0;
};

struct HslbResult {
  std::map<cesm::ComponentKind, perf::FitResult> fits;
  std::vector<cesm::BenchmarkSample> samples;
  Allocation allocation;
  std::map<cesm::ComponentKind, ComponentOutcome> components;
  double predicted_total = 0.0;  ///< model-predicted layout-combined time
  double actual_total = 0.0;     ///< measured layout-combined time
  double tsync_used = 0.0;
  minlp::MinlpResult solver_result;
  cesm::RunResult run;
  /// What the resilience layer did (empty when it never engaged).
  ResilienceReport resilience;
  /// True when any result component is degraded: a fallback interpolant
  /// replaced a proper fit, or a heuristic allocation replaced the MINLP
  /// solve.  Degraded results are usable but carry wider error bars.
  bool degraded = false;
};

/// Run all four steps.  Deterministic in the config (including seed).
[[nodiscard]] HslbResult run_hslb(const PipelineConfig& config);

/// Steps 2-3 only, from existing samples (the paper notes step 1 can be
/// skipped when benchmarks already exist).  No execute step.
[[nodiscard]] HslbResult run_hslb_from_samples(
    const PipelineConfig& config,
    const std::vector<cesm::BenchmarkSample>& samples);

/// Step 3 only, from already-fitted performance functions -- the path the
/// allocation service takes when a client ships precomputed fit curves.
/// Requires a fit for every modeled component.  No gather/fit/execute steps;
/// the returned FitResults wrap the given models verbatim.
///
/// Reentrancy contract: this function (like the two above) keeps all state
/// on the stack and in the result -- no shared mutable globals -- so any
/// number of calls may run concurrently on different threads, each with its
/// own config (including per-call obs sinks and solver event sinks).
[[nodiscard]] HslbResult run_hslb_from_fits(
    const PipelineConfig& config,
    const std::map<cesm::ComponentKind, perf::PerfModel>& fits);

/// The Table I spec that step 3 solves for `config` and the fitted curves
/// `perf`: layout, N, objective, SOS branching and memory floors from the
/// config; the case's allowed atm/ocean sets when the config constrains
/// them; Tsync from config.tsync, or when that is < 0 the automatic rule,
/// 25% of the fitted ice time at N/2 nodes with a 1 s floor (which needs a
/// curve for the ice component).
[[nodiscard]] LayoutModelSpec layout_spec(
    const PipelineConfig& config,
    std::map<cesm::ComponentKind, perf::PerfModel> perf);

/// Default campaign sizes for a target machine slice: five log-spaced totals
/// from max(32, N/16) to N (the paper benchmarks at about five core counts).
std::vector<int> default_gather_totals(int total_nodes);

}  // namespace hslb::core

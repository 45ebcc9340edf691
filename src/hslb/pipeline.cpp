#include "hslb/hslb/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "hslb/common/error.hpp"
#include "hslb/cesm/ice_tuner.hpp"
#include "hslb/perf/sample_design.hpp"

namespace hslb::core {

using cesm::ComponentKind;

LayoutModelSpec layout_spec(const PipelineConfig& config,
                            std::map<ComponentKind, perf::PerfModel> perf) {
  LayoutModelSpec spec;
  spec.layout = config.layout;
  spec.total_nodes = config.total_nodes;
  spec.objective = config.objective;
  spec.use_sos = config.use_sos;
  spec.min_nodes = config.case_config.min_nodes;
  spec.perf = std::move(perf);
  if (config.constrain_atm) {
    spec.atm_allowed = config.case_config.atm_allowed;
  }
  if (config.constrain_ocean) {
    spec.ocn_allowed = config.case_config.ocn_allowed;
  }
  if (config.tsync >= 0.0) {
    spec.tsync = config.tsync;
  } else {
    // Auto tolerance: 25% of the fitted sea-ice time at a mid-size ice
    // allocation -- loose enough to always admit a solution, tight enough
    // to force the ice/land balance of Table I lines 18-19.
    const double ref = spec.perf.at(ComponentKind::kIce)(
        std::max(1.0, config.total_nodes / 2.0));
    spec.tsync = std::max(1.0, 0.25 * ref);
  }
  return spec;
}

std::vector<int> default_gather_totals(int total_nodes) {
  HSLB_REQUIRE(total_nodes >= 32, "target machine slice too small");
  const int lo = std::max(32, total_nodes / 16);
  return perf::design_benchmark_nodes(lo, total_nodes, 5);
}

namespace {

/// Resilience layer: modified z-score cutoff (MAD units) for outliers.
constexpr double kOutlierThreshold = 3.5;
/// Resilience layer: fewer clean samples than this degrade a component.
constexpr int kMinCleanSamples = 3;
/// Resilience layer: targeted re-sampling budget, in campaign rounds.
constexpr int kMaxResampleRounds = 2;

/// Re-run the benchmark campaign for one targeted re-sampling round.
using Resampler = std::function<cesm::CampaignResult(int round)>;

void merge_fault_report(cesm::CampaignFaultReport* into,
                        const cesm::CampaignFaultReport& extra) {
  into->runs.insert(into->runs.end(), extra.runs.begin(), extra.runs.end());
  into->launch_failures += extra.launch_failures;
  into->hangs += extra.hangs;
  into->stragglers += extra.stragglers;
  into->corrupt_files += extra.corrupt_files;
  into->truncated_files += extra.truncated_files;
  into->noise_spikes += extra.noise_spikes;
  into->retries += extra.retries;
  into->giveups += extra.giveups;
  into->sim_seconds_lost += extra.sim_seconds_lost;
}

/// The shared step-3 core: assemble the spec from the config and the
/// fitted curves, solve the Table I MINLP, and fill the allocation +
/// per-component outcomes.  All state lives in the arguments -- the function
/// is reentrant across threads.
void solve_step(const PipelineConfig& config,
                std::map<ComponentKind, perf::PerfModel> perf, bool resilient,
                HslbResult* out) {
  const LayoutModelSpec spec = layout_spec(config, std::move(perf));
  out->tsync_used = spec.tsync;

  LayoutModelVars vars;
  {
    HSLB_SPAN("hslb.solve");
    const minlp::Model model = build_layout_model(spec, &vars);
    out->solver_result = minlp::solve(model, config.solver);
  }
  // A node- or time-limited solve with an incumbent is still a usable
  // allocation (callers bound max_nodes/max_wall_seconds for the expensive
  // objective ablations and for fault-injected campaigns).
  const bool usable =
      out->solver_result.status == minlp::MinlpStatus::kOptimal ||
      ((out->solver_result.status == minlp::MinlpStatus::kNodeLimit ||
        out->solver_result.status == minlp::MinlpStatus::kTimeLimit) &&
       !out->solver_result.x.empty());
  if (usable) {
    out->allocation = extract_allocation(spec, vars, out->solver_result);
  } else if (resilient) {
    // Budget ran out without an incumbent (or the solve failed outright):
    // degrade to the direct grid search over the allowed sets.
    out->allocation = heuristic_allocation(spec);
    out->resilience.solver_fallback = true;
  } else {
    HSLB_REQUIRE(usable, std::string("MINLP solve failed: ") +
                             minlp::to_string(out->solver_result.status));
  }
  out->predicted_total = out->allocation.predicted_total;

  for (const ComponentKind kind : cesm::kModeledComponents) {
    ComponentOutcome outcome;
    outcome.nodes = out->allocation.nodes.at(kind);
    outcome.predicted_seconds = out->allocation.predicted_seconds.at(kind);
    out->components[kind] = outcome;
  }
}

HslbResult solve_and_execute(const PipelineConfig& config,
                             std::vector<cesm::BenchmarkSample> samples,
                             bool execute,
                             cesm::CampaignFaultReport campaign_report,
                             const Resampler& resample) {
  HSLB_REQUIRE(config.total_nodes >= 8, "target machine slice too small");
  const bool resilient =
      config.resilience.enabled || config.faults.enabled();
  HslbResult out;
  out.samples = std::move(samples);

  // --- Step 2: fit (four least-squares problems, Table II). ----------------
  std::map<ComponentKind, perf::PerfModel> perf;
  {
    HSLB_SPAN("hslb.fit");

    // Clean each component's series.  When the resilience layer is engaged
    // this rejects MAD outliers first, and -- if a component drops below
    // its clean-sample quorum -- spends the re-sampling budget on extra
    // campaign rounds before conceding to a fallback fit.
    std::map<ComponentKind, cesm::Series> clean;
    std::map<ComponentKind, ComponentResilience> tally;
    int rounds = 0;
    for (;;) {
      clean.clear();
      bool quorum_missing = false;
      for (const ComponentKind kind : cesm::kModeledComponents) {
        cesm::Series series = cesm::series_for(out.samples, kind);
        ComponentResilience& entry = tally[kind];
        if (resilient) {
          FilteredSeries filtered =
              reject_outliers(series, kOutlierThreshold, config.fit_options);
          entry.samples_rejected = filtered.rejected;
          series = std::move(filtered.series);
        }
        if (static_cast<int>(series.nodes.size()) < kMinCleanSamples) {
          quorum_missing = true;
        }
        entry.samples_used = static_cast<int>(series.nodes.size());
        clean[kind] = std::move(series);
      }
      if (!resilient || !quorum_missing || !resample ||
          rounds >= kMaxResampleRounds) {
        break;
      }
      ++rounds;
      HSLB_COUNT("hslb.resilience.resample_rounds", 1);
      cesm::CampaignResult extra = resample(rounds);
      out.samples.insert(out.samples.end(), extra.samples.begin(),
                         extra.samples.end());
      merge_fault_report(&campaign_report, extra.fault_report);
      for (const ComponentKind kind : cesm::kModeledComponents) {
        tally[kind].resample_runs = rounds;
      }
    }

    perf::FitOptions fit_options = config.fit_options;
    if (resilient) {
      fit_options.robust_loss = true;  // Huber loss in the final fits
    }
    for (const ComponentKind kind : cesm::kModeledComponents) {
      obs::ScopedSpan span("hslb.fit.component");
      if (span.active()) {
        span.arg("component", std::string(cesm::to_string(kind)));
      }
      const cesm::Series& series = clean.at(kind);
      if (static_cast<int>(series.nodes.size()) >= 3) {
        out.fits[kind] =
            perf::fit(series.nodes, series.seconds, fit_options);
      } else if (resilient && !series.nodes.empty()) {
        // Too few clean samples even after re-sampling: fall back to the
        // monotone a/n + d interpolant and flag the curve as degraded.
        out.fits[kind] = fallback_fit(series);
        tally[kind].degraded_fit = true;
      } else {
        HSLB_REQUIRE(series.nodes.size() >= 3,
                     "need at least 3 samples per component to fit");
      }
      perf[kind] = out.fits.at(kind).model;
    }
    if (resilient) {
      out.resilience.components = std::move(tally);
    }
  }

  // --- Step 3: solve the Table I MINLP. -------------------------------------
  solve_step(config, std::move(perf), resilient, &out);

  // --- Step 4: execute at the optimal allocation. ---------------------------
  if (execute) {
    HSLB_SPAN("hslb.execute");
    const cesm::Layout layout = out.allocation.as_layout(config.layout);
    out.run = cesm::run_case(config.case_config, layout, config.seed + 1);
    for (const ComponentKind kind : cesm::kModeledComponents) {
      out.components[kind].actual_seconds =
          out.run.component_seconds.at(kind);
    }
    out.actual_total = out.run.model_seconds;
  }

  out.resilience.campaign = std::move(campaign_report);
  out.degraded = out.resilience.degraded();
  if (out.degraded) {
    HSLB_COUNT("hslb.resilience.degraded_results", 1);
  }
  return out;
}

}  // namespace

HslbResult run_hslb(const PipelineConfig& config) {
  const obs::Install install(config.obs);

  // --- Step 0 (optional): learn a sea-ice decomposition policy. --------------
  PipelineConfig effective = config;
  if (config.tune_ice_decomposition) {
    HSLB_SPAN("hslb.tune_ice");
    cesm::IceTunerOptions tuner_options;
    tuner_options.max_nodes = config.total_nodes;
    tuner_options.seed = config.seed ^ 0x1CEDECull;
    const auto training = cesm::gather_ice_training(
        config.case_config.component(cesm::ComponentKind::kIce),
        tuner_options);
    const cesm::IceDecompositionTuner tuner(training);
    effective.case_config.ice_decomposition_policy = tuner.policy();
  }

  // --- Step 1: gather. -------------------------------------------------------
  std::vector<int> totals = effective.gather_totals;
  if (totals.empty()) {
    totals = default_gather_totals(effective.total_nodes);
  }
  cesm::GatherOptions gather_options;
  gather_options.faults = effective.faults;
  gather_options.retry = effective.resilience.retry;
  cesm::CampaignResult campaign;
  {
    HSLB_SPAN("hslb.gather");
    campaign = cesm::gather_benchmarks(effective.case_config,
                                       effective.layout, totals,
                                       effective.seed, gather_options);
  }

  // Targeted re-sampling: another full campaign round under a shifted seed
  // (both for the run streams and for the fault draws, so a re-run does not
  // replay the exact faults that starved the component in the first place).
  const Resampler resample = [&effective, &totals,
                              &gather_options](int round) {
    const std::uint64_t shift =
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(round);
    cesm::GatherOptions options = gather_options;
    options.faults.seed += shift;
    return cesm::gather_benchmarks(effective.case_config, effective.layout,
                                   totals, effective.seed + shift, options);
  };
  return solve_and_execute(effective, std::move(campaign.samples),
                           /*execute=*/true,
                           std::move(campaign.fault_report), resample);
}

HslbResult run_hslb_from_samples(
    const PipelineConfig& config,
    const std::vector<cesm::BenchmarkSample>& samples) {
  const obs::Install install(config.obs);
  // Archived samples cannot be re-gathered: no resampler, so a component
  // short on clean data degrades straight to the fallback fit.
  return solve_and_execute(config, samples, /*execute=*/false,
                           cesm::CampaignFaultReport{}, Resampler{});
}

HslbResult run_hslb_from_fits(
    const PipelineConfig& config,
    const std::map<cesm::ComponentKind, perf::PerfModel>& fits) {
  const obs::Install install(config.obs);
  HSLB_REQUIRE(config.total_nodes >= 8, "target machine slice too small");

  HslbResult out;
  for (const ComponentKind kind : cesm::kModeledComponents) {
    HSLB_REQUIRE(fits.count(kind) != 0,
                 std::string("missing fitted curve for component ") +
                     cesm::to_string(kind));
    // Wrap the given model so HslbResult carries the same shape as the
    // fitted paths; no residual statistics exist for a shipped curve.
    perf::FitResult wrapped;
    wrapped.model = fits.at(kind);
    wrapped.converged = true;
    out.fits[kind] = std::move(wrapped);
  }

  const bool resilient =
      config.resilience.enabled || config.faults.enabled();
  solve_step(config, fits, resilient, &out);
  out.degraded = out.resilience.degraded();
  return out;
}

}  // namespace hslb::core

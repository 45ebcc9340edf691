#include "hslb/cesm/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "hslb/cesm/timing_file.hpp"
#include "hslb/common/error.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::cesm {

SnapResult snap_down(const std::vector<int>& allowed, int limit) {
  HSLB_REQUIRE(!allowed.empty(), "empty allowed set");
  int best = -1;
  for (const int v : allowed) {
    if (v <= limit) {
      best = std::max(best, v);
    }
  }
  if (best > 0) {
    return SnapResult{best, true};
  }
  // No member fits below the limit: fall back to the smallest member, which
  // exceeds it.  The flag makes the overshoot explicit to the caller.
  return SnapResult{*std::min_element(allowed.begin(), allowed.end()), false};
}

int snap_nearest(const std::vector<int>& allowed, int target) {
  HSLB_REQUIRE(!allowed.empty(), "empty allowed set");
  int best = allowed.front();
  for (const int v : allowed) {
    if (std::abs(v - target) < std::abs(best - target)) {
      best = v;
    }
  }
  return best;
}

Layout reference_layout(const CaseConfig& config, LayoutKind kind, int total) {
  HSLB_REQUIRE(total >= 8, "campaign totals must be at least 8 nodes");

  const int min_ocn = config.min_nodes_for(ComponentKind::kOcn);
  const int min_atm = config.min_nodes_for(ComponentKind::kAtm);
  const int min_ice = config.min_nodes_for(ComponentKind::kIce);
  const int min_lnd = config.min_nodes_for(ComponentKind::kLnd);

  int ocn = snap_nearest(config.ocn_allowed,
                         std::max(min_ocn, static_cast<int>(total * 0.2)));
  if (ocn > total - min_atm) {
    const SnapResult snapped = snap_down(config.ocn_allowed, total - min_atm);
    if (!snapped.fits) {
      // Even the smallest allowed ocean overshoots the atmosphere floor;
      // the layout cannot fit this machine slice.  Fail loudly instead of
      // handing back an over-limit count for the driver to reject later.
      HSLB_COUNT("cesm.campaign.snap_fallbacks", 1);
      throw InvalidArgument(
          "no allowed ocean count fits " + std::to_string(total) +
          " total nodes (smallest allowed is " +
          std::to_string(snapped.value) + ", atmosphere floor is " +
          std::to_string(min_atm) + ")");
    }
    ocn = snapped.value;
  }
  const SnapResult atm_snapped = snap_down(config.atm_allowed, total - ocn);
  if (!atm_snapped.fits) {
    HSLB_COUNT("cesm.campaign.snap_fallbacks", 1);
    throw InvalidArgument(
        "no allowed atmosphere count fits the " + std::to_string(total - ocn) +
        " nodes left beside the ocean (smallest allowed is " +
        std::to_string(atm_snapped.value) + ")");
  }
  int atm = std::max(atm_snapped.value, min_atm);

  int ice = std::max(min_ice, static_cast<int>(std::lround(atm * 0.6)));
  int lnd = atm - ice;
  if (lnd < min_lnd) {
    lnd = min_lnd;
    ice = atm - lnd;
  }
  HSLB_REQUIRE(ice >= 1 && lnd >= 1, "total too small for a reference layout");

  switch (kind) {
    case LayoutKind::kHybrid:
      return Layout::hybrid(ice, lnd, atm, ocn);
    case LayoutKind::kSequentialGroup:
      return Layout::sequential_group(ice, lnd, atm, ocn);
    case LayoutKind::kFullySequential:
      return Layout::fully_sequential(ice, lnd, atm, ocn);
  }
  throw InvalidArgument("unknown layout kind");
}

namespace {

/// Deterministic per-run seeds so the gather loop can execute in any order
/// (and in parallel) without changing results.
std::vector<std::uint64_t> make_run_seeds(std::size_t count,
                                          std::uint64_t seed) {
  std::vector<std::uint64_t> run_seeds(count);
  common::Rng seeder(seed);
  for (auto& s : run_seeds) {
    s = seeder.next_u64();
  }
  return run_seeds;
}

/// The four modeled-component samples of one completed run.
std::vector<BenchmarkSample> samples_of(const RunResult& run) {
  std::vector<BenchmarkSample> out;
  for (const ComponentKind component : kModeledComponents) {
    out.push_back(BenchmarkSample{component, run.layout.at(component),
                                  run.component_seconds.at(component)});
  }
  return out;
}

/// Outcome of one fault-injected benchmark run.
struct FaultedRun {
  std::optional<RunResult> run;          ///< empty when the run gave up
  std::vector<BenchmarkSample> samples;  ///< empty when the run gave up
  RunFaultLog log;
};

/// Execute one benchmark run under fault injection: bounded retries with
/// exponential backoff (charged to the simulated clock), straggler slowdown
/// threaded into the driver, timing files round-tripped -- and possibly
/// corrupted -- through the parser.
FaultedRun run_with_faults(const CaseConfig& config, const Layout& layout,
                           std::uint64_t run_seed, int total,
                           const FaultInjector& injector,
                           const common::RetryPolicy& retry) {
  FaultedRun out;
  out.log.total_nodes = total;
  common::SimClock lost;

  for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
    out.log.attempts = attempt + 1;
    if (attempt > 0) {
      lost.advance(retry.backoff_for(attempt - 1));
    }
    const FaultKind fault = injector.draw(run_seed, attempt);
    out.log.faults.push_back(fault);

    if (fault == FaultKind::kLaunchFailure) {
      HSLB_COUNT("cesm.fault.launch_failures", 1);
      continue;  // the job never started; resubmit after backoff
    }
    if (fault == FaultKind::kHang) {
      HSLB_COUNT("cesm.fault.hangs", 1);
      lost.advance(retry.run_timeout_seconds);  // killed at the timeout
      continue;
    }

    // The run executes.  Attempt 0 uses the campaign seed itself so a
    // clean first try is the same run the fault-free campaign performs.
    const std::uint64_t attempt_seed =
        run_seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(attempt);
    RunPerturbation perturbation;
    if (fault == FaultKind::kStraggler) {
      HSLB_COUNT("cesm.fault.stragglers", 1);
      perturbation.slowdown = injector.spec().straggler_multiplier;
    }
    RunResult run = run_case(config, layout, attempt_seed, perturbation);

    if (fault == FaultKind::kNoiseSpike) {
      HSLB_COUNT("cesm.fault.noise_spikes", 1);
      const int target = injector.spike_target(
          run_seed, attempt, static_cast<int>(std::size(kModeledComponents)));
      const ComponentKind victim = kModeledComponents[target];
      run.component_seconds.at(victim) *= injector.spec().spike_multiplier;
    }

    if (fault == FaultKind::kCorruptOutput ||
        fault == FaultKind::kTruncatedOutput) {
      // The job finished but its timing file is damaged: round-trip the
      // rendered file through the hardened parser and retry on failure.
      const std::uint64_t text_seed = injector.text_seed(run_seed, attempt);
      std::string text = render_timing_file(config, run);
      if (fault == FaultKind::kCorruptOutput) {
        HSLB_COUNT("cesm.fault.corrupt_files", 1);
        text = corrupt_text(text, text_seed);
      } else {
        HSLB_COUNT("cesm.fault.truncated_files", 1);
        text = truncate_text(text, text_seed);
      }
      const auto parsed = try_parse_timing_file(text);
      if (!parsed) {
        continue;  // unusable output; rerun the benchmark
      }
      const auto parsed_samples = try_samples_from_timing({*parsed});
      if (!parsed_samples) {
        continue;
      }
      // The damage went unnoticed by the parser: the (possibly garbled)
      // values enter the sample set, as they would from a real file.  MAD
      // outlier rejection downstream is the safety net.
      out.run = std::move(run);
      out.samples = *parsed_samples;
      out.log.sim_seconds_lost = lost.seconds();
      return out;
    }

    out.samples = samples_of(run);
    out.run = std::move(run);
    out.log.sim_seconds_lost = lost.seconds();
    return out;
  }

  out.log.succeeded = false;
  out.log.sim_seconds_lost = lost.seconds();
  return out;
}

}  // namespace

CampaignResult gather_benchmarks(const CaseConfig& config, LayoutKind kind,
                                 std::span<const int> totals,
                                 std::uint64_t seed) {
  HSLB_REQUIRE(!totals.empty(), "campaign needs at least one total");

  CampaignResult out;
  out.runs.resize(totals.size());

  const std::vector<std::uint64_t> run_seeds =
      make_run_seeds(totals.size(), seed);

  // Serial: a simulated run takes well under a millisecond, less than a
  // thread team costs to wake.
  for (std::size_t idx = 0; idx < totals.size(); ++idx) {
    obs::ScopedSpan span("cesm.gather.benchmark");
    if (span.active()) {
      span.arg("total_nodes", static_cast<long long>(totals[idx]));
    }
    const Layout layout = reference_layout(config, kind, totals[idx]);
    out.runs[idx] = run_case(config, layout, run_seeds[idx]);
    HSLB_COUNT("cesm.gather.benchmarks", 1);
  }

  for (const RunResult& run : out.runs) {
    for (const ComponentKind component : kModeledComponents) {
      out.samples.push_back(BenchmarkSample{
          component, run.layout.at(component),
          run.component_seconds.at(component)});
    }
  }
  return out;
}

CampaignResult gather_benchmarks(const CaseConfig& config, LayoutKind kind,
                                 std::span<const int> totals,
                                 std::uint64_t seed,
                                 const GatherOptions& options) {
  if (!options.faults.enabled()) {
    return gather_benchmarks(config, kind, totals, seed);
  }
  HSLB_REQUIRE(!totals.empty(), "campaign needs at least one total");
  HSLB_REQUIRE(options.retry.max_attempts >= 1,
               "retry policy needs at least one attempt");

  const FaultInjector injector(options.faults);
  const std::vector<std::uint64_t> run_seeds =
      make_run_seeds(totals.size(), seed);
  std::vector<FaultedRun> outcomes(totals.size());

  for (std::size_t idx = 0; idx < totals.size(); ++idx) {
    obs::ScopedSpan span("cesm.gather.benchmark");
    if (span.active()) {
      span.arg("total_nodes", static_cast<long long>(totals[idx]));
    }
    const Layout layout = reference_layout(config, kind, totals[idx]);
    outcomes[idx] = run_with_faults(config, layout, run_seeds[idx],
                                    totals[idx], injector, options.retry);
    HSLB_COUNT("cesm.gather.benchmarks", 1);
  }

  CampaignResult out;
  for (FaultedRun& outcome : outcomes) {
    CampaignFaultReport& report = out.fault_report;
    for (const FaultKind fault : outcome.log.faults) {
      switch (fault) {
        case FaultKind::kLaunchFailure:
          ++report.launch_failures;
          break;
        case FaultKind::kHang:
          ++report.hangs;
          break;
        case FaultKind::kStraggler:
          ++report.stragglers;
          break;
        case FaultKind::kCorruptOutput:
          ++report.corrupt_files;
          break;
        case FaultKind::kTruncatedOutput:
          ++report.truncated_files;
          break;
        case FaultKind::kNoiseSpike:
          ++report.noise_spikes;
          break;
        case FaultKind::kNone:
          break;
      }
    }
    report.retries += outcome.log.attempts - 1;
    report.sim_seconds_lost += outcome.log.sim_seconds_lost;
    if (!outcome.log.succeeded) {
      ++report.giveups;
    } else {
      out.samples.insert(out.samples.end(), outcome.samples.begin(),
                         outcome.samples.end());
      out.runs.push_back(std::move(*outcome.run));
    }
    report.runs.push_back(std::move(outcome.log));
  }
  HSLB_COUNT("cesm.gather.retries", out.fault_report.retries);
  HSLB_COUNT("cesm.gather.giveups", out.fault_report.giveups);
  HSLB_COUNT("cesm.gather.sim_seconds_lost",
             out.fault_report.sim_seconds_lost);
  return out;
}

std::string samples_to_csv(const std::vector<BenchmarkSample>& samples) {
  std::ostringstream os;
  os << "component,nodes,seconds\n";
  os.precision(17);
  for (const BenchmarkSample& sample : samples) {
    os << to_string(sample.kind) << ',' << sample.nodes << ','
       << sample.seconds << '\n';
  }
  return os.str();
}

std::vector<BenchmarkSample> samples_from_csv(const std::string& csv) {
  std::vector<BenchmarkSample> out;
  std::istringstream lines(csv);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.empty() || line == "component,nodes,seconds" ||
        line.rfind("component,", 0) == 0) {
      continue;
    }
    const auto first = line.find(',');
    const auto second = line.find(',', first + 1);
    HSLB_REQUIRE(first != std::string::npos && second != std::string::npos,
                 "samples CSV line " + std::to_string(line_number) +
                     " is malformed");
    const std::string name = line.substr(0, first);
    BenchmarkSample sample;
    bool known = false;
    for (const ComponentKind kind : kModeledComponents) {
      if (name == to_string(kind)) {
        sample.kind = kind;
        known = true;
      }
    }
    HSLB_REQUIRE(known, "samples CSV line " + std::to_string(line_number) +
                            ": unknown component '" + name + "'");
    sample.nodes = std::stoi(line.substr(first + 1, second - first - 1));
    sample.seconds = std::stod(line.substr(second + 1));
    HSLB_REQUIRE(sample.nodes > 0 && sample.seconds > 0.0,
                 "samples CSV line " + std::to_string(line_number) +
                     ": values must be positive");
    out.push_back(sample);
  }
  return out;
}

Series series_for(const std::vector<BenchmarkSample>& samples,
                  ComponentKind kind) {
  Series out;
  for (const BenchmarkSample& s : samples) {
    if (s.kind == kind) {
      out.nodes.push_back(s.nodes);
      out.seconds.push_back(s.seconds);
    }
  }
  return out;
}

}  // namespace hslb::cesm

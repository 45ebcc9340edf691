// Benchmark campaigns: the HSLB "Gather Data" step.
//
// A campaign runs the coupled model at several total node counts using a
// plausible first-guess layout at each size, and harvests per-component
// (nodes, seconds) samples for the fitting step -- the simulator equivalent
// of the paper's "perform a CESM simulation for the intended layout D times
// using varied numbers of nodes".
//
// On a real machine some of those runs fail to launch, hang, land on
// straggler nodes, or write corrupt timing files.  gather_benchmarks can
// therefore run under a FaultSpec (fault.hpp): each benchmark gets a
// bounded retry budget with exponential backoff against the simulated
// clock, corrupted timing files are re-requested, and everything that
// happened is tallied in a CampaignFaultReport (and the obs registry).
#pragma once

#include <span>
#include <vector>

#include "hslb/cesm/driver.hpp"
#include "hslb/cesm/fault.hpp"
#include "hslb/common/retry.hpp"

namespace hslb::cesm {

/// One benchmark observation of one component.
struct BenchmarkSample {
  ComponentKind kind = ComponentKind::kAtm;
  int nodes = 0;
  double seconds = 0.0;
};

/// What fault handling did to one benchmark run.
struct RunFaultLog {
  int total_nodes = 0;  ///< the campaign size this run benchmarks
  int attempts = 0;     ///< attempts consumed (1 = clean first try)
  bool succeeded = true;
  std::vector<FaultKind> faults;  ///< per-attempt injected fault (kNone ok)
  double sim_seconds_lost = 0.0;  ///< backoff + timeout simulated seconds
};

/// Campaign-wide fault tally.  Empty/zero when faults were disabled.
struct CampaignFaultReport {
  std::vector<RunFaultLog> runs;
  int launch_failures = 0;
  int hangs = 0;
  int stragglers = 0;
  int corrupt_files = 0;
  int truncated_files = 0;
  int noise_spikes = 0;
  int retries = 0;  ///< attempts beyond the first, across all runs
  int giveups = 0;  ///< runs that exhausted their retry budget
  double sim_seconds_lost = 0.0;

  bool any_faults() const {
    return launch_failures + hangs + stragglers + corrupt_files +
               truncated_files + noise_spikes >
           0;
  }
};

struct CampaignResult {
  std::vector<BenchmarkSample> samples;
  /// Completed runs (every total when fault-free; gives-ups are dropped).
  std::vector<RunResult> runs;
  CampaignFaultReport fault_report;
};

/// Campaign fault handling knobs.  The default (disabled faults) makes
/// gather_benchmarks take the exact fault-free code path.
struct GatherOptions {
  FaultSpec faults;
  common::RetryPolicy retry;
};

/// Result of snapping to an allowed set: `fits` is false when no member of
/// the set was <= the limit and `value` is the set's minimum -- which
/// *exceeds* the limit.  Callers must check `fits` (or validate the layout
/// against the machine) before trusting the value.
struct SnapResult {
  int value = 0;
  bool fits = true;
};

/// Largest member of `allowed` that is <= limit; falls back explicitly to
/// the smallest member (fits = false) when none is.
SnapResult snap_down(const std::vector<int>& allowed, int limit);

/// Member of `allowed` nearest to target (ties: smaller).
int snap_nearest(const std::vector<int>& allowed, int target);

/// A sensible first-guess layout for a machine slice of `total` nodes:
/// ~20% ocean (snapped to the allowed set), the rest atmosphere (snapped to
/// the allowed set), with ice taking ~60% of the atmosphere group and land
/// the remainder -- the "typical setup" described in section II.
Layout reference_layout(const CaseConfig& config, LayoutKind kind, int total);

/// Run the campaign at each total in `totals`.  Runs are independent and
/// execute serially, in order; results are deterministic in
/// (config, totals, seed).
CampaignResult gather_benchmarks(const CaseConfig& config, LayoutKind kind,
                                 std::span<const int> totals,
                                 std::uint64_t seed);

/// As above, under fault injection: each run retries with exponential
/// backoff on launch failures, hangs, and unparseable timing files;
/// straggler and spike samples pass through (downstream outlier rejection
/// handles them); runs that exhaust the budget are dropped and reported.
/// Deterministic in (config, totals, seed, options).  With
/// options.faults disabled this is byte-identical to the overload above.
CampaignResult gather_benchmarks(const CaseConfig& config, LayoutKind kind,
                                 std::span<const int> totals,
                                 std::uint64_t seed,
                                 const GatherOptions& options);

/// Extract the (nodes, seconds) series of one component from the samples.
struct Series {
  std::vector<double> nodes;
  std::vector<double> seconds;
};
Series series_for(const std::vector<BenchmarkSample>& samples,
                  ComponentKind kind);

/// Persist samples as CSV ("component,nodes,seconds" with a header row) and
/// read them back -- the interchange format for feeding HSLB from archived
/// benchmark data, per the paper's note that the gather step "can be
/// avoided altogether if reliable benchmarks are already available".
std::string samples_to_csv(const std::vector<BenchmarkSample>& samples);
std::vector<BenchmarkSample> samples_from_csv(const std::string& csv);

}  // namespace hslb::cesm

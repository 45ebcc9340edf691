// Shared plumbing of the benchmark program: run arguments, the span recorder
// used by traced runs, timing statistics, and the run report that main()
// prints and turns into the final JSON line.
//
// The benchmark only calls the library's public entry points.  Spans are
// recorded here, around those calls; nothing inside src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "hslb/common/rng.hpp"
#include "hslb/hslb/layout_model.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "speed.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seed of the fixed input panels.  Every workload draws its inputs from
/// this seed and uses the run's --seed for the order of its operations
/// (and, on svc-mixed, the arrival times).  Per-input costs here span three
/// decades -- about one 1-degree campaign in a hundred sends the tree
/// search to its node budget -- so inputs drawn from the run's seed moved
/// the p50/p90 latencies by 15-50% from seed to seed.  With fixed inputs the
/// deterministic work counts are the same at every seed, and golden.txt is
/// checked on every run.
inline constexpr std::uint64_t kPanelSeed = 2014;

/// Shuffle `items` with a generator seeded from `seed`.
template <typename T>
void shuffle_by(std::vector<T>& items, std::uint64_t seed) {
  hslb::common::Rng rng(seed ^ 0x6f72646572ull);
  std::shuffle(items.begin(), items.end(), rng);
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = kPanelSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for traced runs ("" = none)
  /// Untraced runs: times the machine's speed between operations.
  SpeedProbe* probe = nullptr;
};

/// Let the speed probe time its kernel if a timing is due.
inline void sample_speed(const RunArgs& args) {
  if (args.probe != nullptr) {
    args.probe->sample_if_due();
  }
}

/// Microseconds since the first call in this process (monotonic).
double now_us();
/// CPU seconds consumed by the whole process so far (all threads).
double process_cpu_seconds();
/// Logical processors available to this process.
int hardware_threads();

/// One recorded span.  `derived` spans are intervals the library reported
/// about itself (SolveStats timers, per-rebalance wall times) rather than
/// intervals the benchmark timed; they carry a synthetic start.
struct Span {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: root
  double start_us = 0.0;
  double end_us = 0.0;
  int thread = 0;
  bool derived = false;
  double duration_us() const { return end_us - start_us; }
};

/// In-memory span store.  Disabled tracers record nothing and hand out id 0,
/// so the untraced code path pays two branches per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Record a closed span; returns its id (0 when disabled).
  std::uint32_t add(const std::string& name, std::uint32_t parent,
                    double start_us, double end_us, bool derived = false);
  /// Reserve an id for a span whose interval is recorded later with `close`.
  std::uint32_t open(const std::string& name, std::uint32_t parent,
                     double start_us);
  void close(std::uint32_t id, double end_us);

  /// Sum of durations (ms) of spans named `name`.
  double total_ms(const std::string& name) const;
  /// Mean over root spans named `root` of (root duration minus the summed
  /// durations of its direct children), in ms: the time no layer span
  /// accounts for.
  double mean_residue_ms(const std::string& root) const;
  /// Mean duration (ms) of root spans named `root`.
  double mean_ms(const std::string& root) const;

  /// Write every span as a Chrome trace_event JSON document.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< span id i is spans_[i - 1]
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(name, parent, now_us()) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      tracer_.close(id_, now_us());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Record SolveStats-derived child spans (lp time split) under `solve_span`.
void add_solver_spans(Tracer& tracer, std::uint32_t solve_span,
                      double solve_start_us, const hslb::minlp::SolveStats& s);

/// Every modeled component placed and the layout's node capacity kept:
/// layout 1 nests ice+lnd under atm beside ocn, layout 2 runs the
/// atmosphere group beside ocn, layout 3 runs everything in sequence.
bool layout_fits(hslb::cesm::LayoutKind layout, int total_nodes,
                 const hslb::core::Allocation& allocation);

/// Harrell-Davis percentile of unsorted samples (q in (0, 1)); NaN if empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);
/// Mean summed in sorted order, so it does not depend on the op order.
double ordered_mean(std::vector<double> values);
/// Samples strictly beyond the nearest-rank q-percentile position.
long samples_beyond(std::size_t n, double q);

/// Exact text of a double (round-trips), for fingerprints and goldens.
std::string exact(double value);

/// Accumulated SolveStats over many solves, for the minlp.* / lp.* layer
/// metrics.
struct SolverTotals {
  long solves = 0;
  long node_limited = 0;
  long nodes = 0;
  long lp_solves = 0;
  long nlp_solves = 0;
  long cuts = 0;
  long pruned = 0;
  long pivots = 0;
  long factorizations = 0;
  long eta_updates = 0;
  long factor_inherits = 0;
  long warm_lp_solves = 0;
  double solve_ms = 0.0;
  double lp_ms = 0.0;
  double pivot_ms = 0.0;
  double factor_ms = 0.0;
  double update_ms = 0.0;

  void add(const hslb::minlp::MinlpResult& result, double solve_ms);
};

/// A metric printed by name in the human-readable block (the path-specific
/// figures, which are not part of the JSON contract).
struct NamedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< e.g. sample count
};

/// A timed interval on the now_us() clock.
struct Interval {
  double start_us = 0.0;
  double end_us = 0.0;
  double ms() const { return (end_us - start_us) * 1e-3; }
};

/// Untraced operations of one stretch of a run (a pass over the inputs, or
/// a service phase) and the process CPU time the stretch took.
struct Segment {
  std::vector<Interval> ops;
  double cpu_seconds = 0.0;
};

/// Everything one run produces.
struct Report {
  long attempted = 0;
  long failed = 0;
  /// Checks that failed (wrong answers, replay mismatches, golden drift).
  std::vector<std::string> check_failures;
  /// Failed operations with their inputs and reasons, counted by text.
  std::map<std::string, long> failures;
  /// JSON contract metrics (end-to-end when untraced, per-layer when traced).
  std::map<std::string, double> metrics;
  std::vector<NamedValue> named;
  /// Deterministic work counts of the first pass, compared to golden.txt.
  std::map<std::string, std::string> work;
  /// Layer reconciliation rows (traced runs): name -> ms per operation.
  std::vector<std::pair<std::string, double>> layers;
  double op_ms_traced = 0.0;
  /// Untraced timings behind the end-to-end metrics: the operations
  /// (latencies pooled over every segment) and every timed set-up.
  std::vector<Segment> segments;
  std::vector<Interval> setups;

  void fail(const std::string& what) {
    ++failed;
    ++failures[what];
  }
  long checks_failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++checks_failed;
      if (check_failures.size() < 40) {
        check_failures.push_back(what);
      }
    }
  }
  void name(const std::string& n, double v, const std::string& unit,
            const std::string& note = "") {
    named.push_back({n, v, unit, note});
  }
};

/// The end-to-end metrics from the untraced timings a workload left in
/// `report.segments` and `report.setups`, each interval scaled by the
/// machine speed around it, with the raw figures printed by name.
void set_end_to_end(Report& report, const SpeedScale& scale);

/// Fill every per-layer metric with 0 so traced runs always emit the full
/// set; workloads then overwrite the layers they exercise.
void zero_layer_metrics(Report& report);

/// Layer metrics taken from accumulated SolveStats, normalized per op.
void set_solver_layer_metrics(Report& report, const SolverTotals& totals,
                              double ops);

/// Timed percentiles printed by name with their sample counts; a percentile
/// without ten samples beyond it is reported as unavailable.
void name_percentiles(Report& report, const std::string& prefix,
                      const std::vector<double>& samples_ms,
                      const std::vector<double>& qs,
                      const std::string& suffix = "");

/// Set-ups per run, at least; setup_s is their median.
inline constexpr int kSetupRepeats = 11;

/// What one operation of a serial workload produced.
struct OpResult {
  bool ok = true;           ///< an answer came back
  std::string fingerprint;  ///< deterministic summary; every pass must agree
  std::string failure;      ///< why no answer came back
};

/// Operation latencies of a serial workload.
struct SerialTimes {
  std::vector<Interval> setups;   ///< every timed set-up
  std::vector<double> plain_ms;   ///< untraced passes
  std::vector<double> traced_ms;  ///< traced passes
  std::vector<Segment> plain_passes;
  long first_pass_failed = 0;
};

/// Run `ops` in passes for about args.seconds: at least two untraced passes
/// run, and another pass starts only if it is expected to end nearer to
/// args.seconds than stopping now would.  (solve-mix's pass takes 12-14 s;
/// with one pass its p90 rested on 12 samples and spread twice as much as
/// its CPU time.)  In a traced run passes alternate untraced/traced over the
/// same inputs, and at least one traced pass runs.
/// Every pass must reproduce the first pass's fingerprints.  `setup()` rebuilds the inputs, `ops` among them, with the
/// same content every time.  It runs, timed, before the first pass and then
/// between operations every args.seconds / kSetupRepeats, and after the last
/// pass until kSetupRepeats set-ups are timed; their CPU time is kept out of
/// the passes'.  Spread over the run, the set-ups see the machine speed the
/// operations see: on the shared build box it drifted by up to 40% within
/// seconds.  `run(op, pass, traced)` executes one op; `describe(op)` names
/// its input for failure reports.
template <typename Op, typename SetupFn, typename RunFn, typename DescribeFn>
SerialTimes run_passes(const RunArgs& args, Report& report, SetupFn setup,
                       const std::vector<Op>& ops, RunFn run,
                       DescribeFn describe) {
  SerialTimes times;
  double setup_cpu_s = 0.0;
  double last_setup_us = 0.0;
  auto timed_setup = [&] {
    sample_speed(args);
    const double cpu_start = process_cpu_seconds();
    const double t0 = now_us();
    setup();
    last_setup_us = now_us();
    times.setups.push_back({t0, last_setup_us});
    setup_cpu_s += process_cpu_seconds() - cpu_start;
  };
  const double setup_every_us = args.seconds * 1e6 / kSetupRepeats;
  timed_setup();
  std::vector<std::string> reference(ops.size());
  const double start = now_us();
  double last_pass_s = 0.0;
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    if (pass > 0) {
      const double elapsed_s = (now_us() - start) * 1e-6;
      const bool required = pass < (args.trace ? 3 : 2);
      if (!required && elapsed_s + 0.5 * last_pass_s > args.seconds) {
        break;
      }
    }
    const double pass_start = now_us();
    const double cpu_start = process_cpu_seconds();
    const double setup_cpu_start = setup_cpu_s;
    Segment segment;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (now_us() - last_setup_us >= setup_every_us) {
        timed_setup();
      }
      sample_speed(args);
      const double t0 = now_us();
      const OpResult result = run(ops[i], pass, traced);
      const Interval op{t0, now_us()};
      if (traced) {
        times.traced_ms.push_back(op.ms());
      } else {
        segment.ops.push_back(op);
        times.plain_ms.push_back(op.ms());
      }
      ++report.attempted;
      if (!result.ok) {
        report.fail(describe(ops[i]) + ": " + result.failure);
        times.first_pass_failed += pass == 0;
      }
      if (pass == 0) {
        reference[i] = result.fingerprint;
      } else if (result.fingerprint != reference[i]) {
        report.check(false, describe(ops[i]) + ": pass " +
                                std::to_string(pass) +
                                (traced ? " (traced)" : "") +
                                " differs from the first pass: " +
                                result.fingerprint + " vs " + reference[i]);
      }
    }
    if (!traced) {
      segment.cpu_seconds = process_cpu_seconds() - cpu_start -
                            (setup_cpu_s - setup_cpu_start);
      times.plain_passes.push_back(std::move(segment));
    }
    last_pass_s = (now_us() - pass_start) * 1e-6;
  }
  while (times.setups.size() < static_cast<std::size_t>(kSetupRepeats)) {
    timed_setup();
  }
  sample_speed(args);
  return times;
}

/// Traced-run bookkeeping shared by the serial workloads: trace overhead
/// from the paired passes and the reconciliation residue of the op spans.
void finish_traced_serial(Report& report, const Tracer& tracer,
                          const SerialTimes& times, const char* root);

// Workloads.  Each runs its set-up, measures for args.seconds, checks its
// answers, and fills the report.
void run_pipeline_1deg(const RunArgs& args, Tracer& tracer, Report& report);
void run_solve_mix(const RunArgs& args, Tracer& tracer, Report& report);
void run_svc_mixed(const RunArgs& args, Tracer& tracer, Report& report);
void run_rebal_drift(const RunArgs& args, Tracer& tracer, Report& report);

}  // namespace perfbench

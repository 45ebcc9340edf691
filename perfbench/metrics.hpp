// The benchmark's metric catalogue: the JSON contract's end-to-end and
// per-layer metrics with their units and better directions.  BENCHMARK.json
// lists the same names; run.py refuses a result whose keys differ.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  const char* meaning;
};

/// Emitted by every untraced run, whatever the workload.  An operation is
/// the workload's unit of work: one core::run_hslb call (pipeline-1deg), one
/// cold model build + solve (solve-mix), one service request timed from its
/// due time at the low offered rate (svc-mixed), one rebal::run_horizon
/// call (rebal-drift).  Every time is scaled to the reference machine speed
/// by the speed probe (speed.hpp); the raw times are printed by name.
inline const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower", "median set-up time of the run's set-ups"},
      {"op_ms.p50", "ms", "lower", "median operation latency"},
      {"op_ms.p90", "ms", "lower", "90th-percentile operation latency"},
      {"cpu_ms_per_op", "ms", "lower",
       "process CPU time per operation, all threads"},
  };
  return specs;
}

/// Emitted by every traced run; layers a workload does not reach read 0.
/// Times and counts are per operation unless the meaning says otherwise.
inline const std::vector<MetricSpec>& layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"cesm.gather_ms", "ms", "lower", "cesm::gather_benchmarks"},
      {"cesm.gather_runs", "count", "lower", "benchmark runs gathered"},
      {"cesm.execute_ms", "ms", "lower", "cesm::run_case at the answer"},
      {"perf.fit_ms", "ms", "lower", "perf::fit"},
      {"perf.fit_calls", "count", "lower", "perf::fit calls"},
      {"hslb.build_ms", "ms", "lower", "core::build_layout_model"},
      {"scen.parse_ms", "ms", "lower",
       "scen::parse_scenario (per set-up on svc-mixed, rebal-drift)"},
      {"scen.build_ms", "ms", "lower", "scen::build_scenario_model"},
      {"minlp.presolve_ms", "ms", "lower",
       "minlp::presolve on the op's model, timed beside the solve"},
      {"minlp.solve_ms", "ms", "lower", "minlp::solve"},
      {"minlp.nodes", "count", "lower", "B&B nodes"},
      {"minlp.lp_solves", "count", "lower", "master LP solves"},
      {"minlp.nlp_solves", "count", "lower", "NLP solves"},
      {"minlp.cuts", "count", "lower", "cuts added"},
      {"minlp.node_limit_ratio", "ratio", "lower",
       "node-limited solves / solves"},
      {"minlp.prune_ratio", "ratio", "higher", "pruned nodes / nodes"},
      {"lp.ms", "ms", "lower", "SolveStats lp_seconds"},
      {"lp.pivot_ms", "ms", "lower", "SolveStats lp_pivot_seconds"},
      {"lp.factor_ms", "ms", "lower", "SolveStats lp_factor_seconds"},
      {"lp.update_ms", "ms", "lower", "SolveStats lp_update_seconds"},
      {"lp.pivots", "count", "lower", "simplex iterations"},
      {"lp.factorizations", "count", "lower", "fresh basis LUs"},
      {"lp.eta_updates", "count", "lower", "eta updates"},
      {"lp.factor_inherits", "count", "higher", "node LPs on the parent LU"},
      {"lp.warm_ratio", "ratio", "higher", "warm LP solves / LP solves"},
      {"svc.submit_us.p50", "us", "lower", "AllocationService::submit"},
      {"svc.cache_hit_ratio", "ratio", "higher", "cache hits / requests"},
      {"svc.coalesced_ratio", "ratio", "higher", "coalesced / requests"},
      {"svc.shed_ratio", "ratio", "lower", "shed / requests"},
      {"svc.degraded_ratio", "ratio", "lower", "brownout answers / answers"},
      {"svc.queue_depth.max", "count", "lower", "deepest queue seen"},
      {"svc.gen_lag_ms.p99", "ms", "lower", "generator lateness"},
      {"svc.solve_ms.p50", "ms", "lower",
       "serial replay solve time per distinct question"},
      {"svc.wait_ms.p50", "ms", "lower", "latency minus replay solve time"},
      {"svc.wait_ms.p99", "ms", "lower", "latency minus replay solve time"},
      {"rebal.step_us", "us", "lower",
       "horizon wall minus re-solve walls, per step"},
      {"rebal.fires", "count", "lower", "detector fires"},
      {"rebal.rebalances", "count", "lower", "adopted re-allocations"},
      {"rebal.adopt_ratio", "ratio", "higher", "rebalances / fires"},
      {"rebal.resolve_nodes", "count", "lower", "re-solve B&B nodes"},
      {"rebal.resolve_pivots", "count", "lower", "re-solve simplex pivots"},
      {"rebal.heuristic_fallbacks", "count", "lower", "heuristic rungs"},
      {"obs.trace_overhead_pct", "%", "lower",
       "traced vs untraced operation time"},
      {"residue_ms", "ms", "lower",
       "operation time minus its layer spans"},
      {"fail_ratio", "ratio", "lower", "failed or shed ops / attempted"},
  };
  return specs;
}

}  // namespace perfbench

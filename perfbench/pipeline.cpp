// pipeline-1deg: repeated core::run_hslb on the paper's 1-degree case across
// the three Table I layouts.  The only workload where the cesm gather and
// perf fit layers dominate, so fit/gather work shows here.
//
// The panel is 16 node-count strata over [128, 2048] x 3 layouts; N is drawn
// uniformly inside its stratum and every op has its own pipeline seed, all
// from kPanelSeed; the run's seed orders the ops.  The traced pass reruns
// the same ops layer by layer (gather -> fit x4 -> build -> solve ->
// execute) and must reproduce run_hslb's allocation and actual_total bit for
// bit.  Fit calls and gather runs are the library's own obs counters
// (perf.fit.calls, cesm.gather.benchmarks), read from run_hslb in the first
// untraced pass.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "hslb/cesm/configs.hpp"
#include "hslb/common/rng.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/minlp/presolve.hpp"
#include "hslb/obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace hslb;

struct PipelineOp {
  cesm::LayoutKind layout = cesm::LayoutKind::kHybrid;
  int total_nodes = 0;
  std::uint64_t seed = 0;
};

constexpr int kStrata = 16;
constexpr int kMinNodes = 128;
constexpr int kMaxNodes = 2048;
constexpr long kNodeBudget = 2000;

std::vector<PipelineOp> make_ops(std::uint64_t order_seed) {
  common::Rng rng(kPanelSeed ^ 0x70697065ull);
  std::vector<PipelineOp> ops;
  const int width = (kMaxNodes - kMinNodes) / kStrata;
  for (int s = 0; s < kStrata; ++s) {
    for (const cesm::LayoutKind layout :
         {cesm::LayoutKind::kHybrid, cesm::LayoutKind::kSequentialGroup,
          cesm::LayoutKind::kFullySequential}) {
      PipelineOp op;
      op.layout = layout;
      op.total_nodes = static_cast<int>(rng.uniform_int(
          kMinNodes + s * width, kMinNodes + (s + 1) * width));
      op.seed = rng.next_u64() >> 16;
      ops.push_back(op);
    }
  }
  shuffle_by(ops, order_seed);
  return ops;
}

core::PipelineConfig config_for(const cesm::CaseConfig& case_config,
                                const PipelineOp& op) {
  core::PipelineConfig config;
  config.case_config = case_config;
  config.layout = op.layout;
  config.total_nodes = op.total_nodes;
  config.seed = op.seed;
  config.solver.threads = 1;
  // The default 2M-node budget lets a rare campaign (e.g. layout 3, N=330,
  // seed 138434566722237) search for many minutes without an incumbent.
  // With a fixed budget such an op ends and is counted as a failure.
  config.solver.max_nodes = kNodeBudget;
  return config;
}

std::string describe(const PipelineOp& op) {
  return "1deg layout " + std::to_string(static_cast<int>(op.layout)) +
         " N=" + std::to_string(op.total_nodes) +
         " seed=" + std::to_string(op.seed);
}

/// What both the plain and the layer-by-layer run must agree on.
std::string fingerprint(const core::Allocation& allocation,
                        double actual_total) {
  std::string out;
  for (const auto& [kind, nodes] : allocation.nodes) {
    out += std::string(cesm::to_string(kind)) + "=" + std::to_string(nodes) +
           " ";
  }
  return out + "actual=" + exact(actual_total);
}

struct Layered {
  minlp::Model model;
  core::Allocation allocation;
  double actual_total = 0.0;
};

/// run_hslb's four steps called one layer at a time, each under a span of
/// the op's "pipeline" root.
Layered run_layered(Tracer& tracer, const cesm::CaseConfig& case_config,
                    const core::PipelineConfig& config, const PipelineOp& op,
                    SolverTotals& solver) {
  Layered out;
  const ScopedSpan root(tracer, "pipeline", 0);
  const std::vector<int> totals = core::default_gather_totals(op.total_nodes);
  cesm::CampaignResult campaign;
  {
    const ScopedSpan span(tracer, "cesm.gather", root.id());
    campaign =
        cesm::gather_benchmarks(case_config, op.layout, totals, op.seed);
  }
  core::LayoutModelSpec spec;
  spec.layout = op.layout;
  spec.total_nodes = op.total_nodes;
  spec.objective = config.objective;
  spec.use_sos = config.use_sos;
  spec.min_nodes = case_config.min_nodes;
  for (const cesm::ComponentKind kind : cesm::kModeledComponents) {
    const cesm::Series series = cesm::series_for(campaign.samples, kind);
    const ScopedSpan span(tracer, "perf.fit", root.id());
    spec.perf[kind] =
        perf::fit(series.nodes, series.seconds, config.fit_options).model;
  }
  core::LayoutModelVars vars;
  {
    const ScopedSpan span(tracer, "hslb.build", root.id());
    spec.atm_allowed = case_config.atm_allowed;
    spec.ocn_allowed = case_config.ocn_allowed;
    // run_hslb's automatic Tsync rule (config.tsync < 0).
    spec.tsync = std::max(1.0, 0.25 * spec.perf.at(cesm::ComponentKind::kIce)(
                                          std::max(1.0, op.total_nodes / 2.0)));
    out.model = core::build_layout_model(spec, &vars);
  }
  minlp::MinlpResult result;
  {
    const ScopedSpan span(tracer, "minlp.solve", root.id());
    const double t0 = now_us();
    result = minlp::solve(out.model, config.solver);
    solver.add(result, (now_us() - t0) * 1e-3);
    add_solver_spans(tracer, span.id(), t0, result.stats);
  }
  out.allocation = core::extract_allocation(spec, vars, result);
  {
    const ScopedSpan span(tracer, "cesm.execute", root.id());
    out.actual_total = cesm::run_case(case_config,
                                      out.allocation.as_layout(op.layout),
                                      op.seed + 1)
                           .model_seconds;
  }
  return out;
}

}  // namespace

void run_pipeline_1deg(const RunArgs& args, Tracer& tracer, Report& report) {
  cesm::CaseConfig case_config;
  std::vector<PipelineOp> ops;
  auto setup = [&] {
    case_config = cesm::one_degree_case();
    ops = make_ops(args.seed);
    // A fixed warm-up op, so that the first pass does not pay the OpenMP
    // team start.
    (void)core::run_hslb(config_for(
        case_config, {cesm::LayoutKind::kHybrid, 512, kPanelSeed}));
  };

  SolverTotals solver;
  double presolve_ms = 0.0;
  long first_pass_nodes = 0, first_pass_pivots = 0, first_pass_limited = 0;
  long first_pass_fits = 0, first_pass_gathers = 0;
  std::vector<double> model_seconds;

  auto run = [&](const PipelineOp& op, int pass, bool traced) -> OpResult {
    core::PipelineConfig config = config_for(case_config, op);
    OpResult out;
    try {
      if (!traced) {
        obs::Registry counters;
        if (pass == 0) {
          config.obs.metrics = &counters;
        }
        const core::HslbResult r = core::run_hslb(config);
        out.fingerprint = fingerprint(r.allocation, r.actual_total);
        report.check(layout_fits(op.layout, op.total_nodes, r.allocation) &&
                         r.actual_total > 0.0,
                     describe(op) + ": allocation breaks the layout");
        if (pass == 0) {
          const minlp::SolveStats& s = r.solver_result.stats;
          first_pass_nodes += s.nodes_explored;
          first_pass_pivots += s.simplex_iterations;
          first_pass_limited +=
              r.solver_result.status == minlp::MinlpStatus::kNodeLimit;
          model_seconds.push_back(r.actual_total);
          const obs::MetricsSnapshot c = counters.snapshot();
          first_pass_fits += std::lround(c.counter_value("perf.fit.calls"));
          first_pass_gathers +=
              std::lround(c.counter_value("cesm.gather.benchmarks"));
        }
        return out;
      }
      const Layered l = run_layered(tracer, case_config, config, op, solver);
      out.fingerprint = fingerprint(l.allocation, l.actual_total);
      report.check(layout_fits(op.layout, op.total_nodes, l.allocation) &&
                       l.actual_total > 0.0,
                   describe(op) + ": allocation breaks the layout (traced)");
      // Presolve is timed beside the op (minlp::solve repeats it inside),
      // so it stays out of the op span and the reconciliation.
      const double t0 = now_us();
      (void)minlp::presolve(l.model);
      tracer.add("minlp.presolve", 0, t0, now_us());
      presolve_ms += (now_us() - t0) * 1e-3;
    } catch (const std::exception& e) {
      out.ok = false;
      out.failure = e.what();
      // run_hslb and the layer-by-layer path word the same failure
      // differently, so only the fact of failing must agree.
      out.fingerprint = "error";
    }
    return out;
  };

  const SerialTimes times =
      run_passes(args, report, setup, ops, run, describe);

  report.work["ops"] = std::to_string(ops.size());
  report.work["failed"] = std::to_string(times.first_pass_failed);
  report.work["bb_nodes"] = std::to_string(first_pass_nodes);
  report.work["lp_pivots"] = std::to_string(first_pass_pivots);
  report.work["node_limited"] = std::to_string(first_pass_limited);
  report.work["fit_calls"] = std::to_string(first_pass_fits);
  report.work["gather_runs"] = std::to_string(first_pass_gathers);
  const double model_s = ordered_mean(model_seconds);
  report.work["model_s"] = exact(model_s);

  name_percentiles(report, "pipeline_ms", times.plain_ms, {0.5, 0.9});
  report.name("model_s", model_s, "s",
              "mean simulated CESM seconds at the answered allocations");

  if (!args.trace) {
    report.segments = times.plain_passes;
    report.setups = times.setups;
    return;
  }
  zero_layer_metrics(report);
  const double traced_ops = static_cast<double>(times.traced_ms.size());
  auto& m = report.metrics;
  m["cesm.gather_ms"] = tracer.total_ms("cesm.gather") / traced_ops;
  // The library's own counts, per op of the first (untraced) pass.
  const double first_ops = static_cast<double>(ops.size());
  m["cesm.gather_runs"] = static_cast<double>(first_pass_gathers) / first_ops;
  m["cesm.execute_ms"] = tracer.total_ms("cesm.execute") / traced_ops;
  m["perf.fit_ms"] = tracer.total_ms("perf.fit") / traced_ops;
  m["perf.fit_calls"] = static_cast<double>(first_pass_fits) / first_ops;
  m["hslb.build_ms"] = tracer.total_ms("hslb.build") / traced_ops;
  m["minlp.presolve_ms"] = presolve_ms / traced_ops;
  set_solver_layer_metrics(report, solver, traced_ops);
  finish_traced_serial(report, tracer, times, "pipeline");
  for (const char* layer : {"cesm.gather", "perf.fit", "hslb.build",
                            "minlp.solve", "cesm.execute"}) {
    report.layers.emplace_back(layer, tracer.total_ms(layer) / traced_ops);
  }
}

}  // namespace perfbench

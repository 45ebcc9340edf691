// rebal-drift: rebal::run_horizon over seeded drifting scenarios written
// with the DSL's drift directives, re-solving warm.  Loads the detector, the
// RLS/CUSUM tracker, the drift replay, and the LP through warm re-entry
// (factor inherits, eta updates) rather than cold solves, so a cold-solve
// gain that breaks warm starts shows here.
//
// Each pass replays kScenarios variants of one eight-component template
// (the shape bench_rebal_horizon uses): curve coefficients, the two regime
// shifts' steps and factors, and the replay seed are drawn from kPanelSeed
// inside fixed ranges; the run's seed orders the horizons.  Every pass,
// traced or not, must reproduce the first pass's replay_fingerprint and
// core_hours.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "hslb/common/rng.hpp"
#include "hslb/rebal/loop.hpp"
#include "hslb/scen/parse.hpp"

namespace perfbench {
namespace {

using namespace hslb;

constexpr int kScenarios = 12;
constexpr long kHorizon = 4800;

struct HorizonOp {
  std::string name;
  std::string text;
  scen::Scenario scenario;
  rebal::LoopOptions options;
};

std::string describe(const HorizonOp& op) {
  return "horizon " + op.name + " seed=" + std::to_string(op.options.seed);
}

std::string scenario_text(int index, common::Rng& rng) {
  auto coeff = [&rng](double base) {
    return exact(base * rng.uniform(0.9, 1.1));
  };
  struct Curve {
    const char* name;
    double a, b, c, d;
  };
  const Curve curves[] = {
      {"atm", 16000, 0.09, 1.2, 10}, {"ocn", 10000, 0.09, 1.1, 8},
      {"ice", 3200, 0.05, 1.0, 4},   {"lnd", 1200, 0.03, 1.0, 2},
      {"rof", 700, 0.03, 1.0, 2},    {"glc", 900, 0.04, 1.0, 3},
      {"wav", 1500, 0.05, 1.05, 3},  {"cpl", 500, 0.03, 1.0, 1},
  };
  std::string text = "scenario drift_" + std::to_string(index) +
                     "\nmachine nodes=192 cores_per_node=8 mem_gb_per_node=64\n";
  for (const Curve& c : curves) {
    text += std::string("component ") + c.name + " curve=pow a=" +
            coeff(c.a) + " b=" + coeff(c.b) + " c=" + exact(c.c) +
            " d=" + coeff(c.d) + "\n";
  }
  text +=
      "comm atm ocn 0.02\ncomm ocn wav 0.01\n"
      "schedule ocn | wav | (ice | lnd | rof | glc | cpl) -> atm\n";
  const long shift1 = static_cast<long>(kHorizon * rng.uniform(0.30, 0.40));
  const long shift2 = static_cast<long>(kHorizon * rng.uniform(0.65, 0.75));
  text += "drift atm rate=0.00008 noise=0.02 shifts=" + std::to_string(shift1) +
          ":" + exact(rng.uniform(1.4, 1.8)) + "\n";
  text += "drift ocn rate=-0.0001 noise=0.02 shifts=" + std::to_string(shift2) +
          ":" + exact(rng.uniform(0.5, 0.6)) + "\n";
  text += "drift ice noise=0.015\ndrift wav noise=0.015\n";
  return text;
}

std::vector<HorizonOp> make_ops(std::uint64_t order_seed, Tracer& tracer,
                                double* parse_ms) {
  common::Rng rng(kPanelSeed ^ 0x726562616cull);
  std::vector<HorizonOp> ops;
  for (int i = 0; i < kScenarios; ++i) {
    HorizonOp op;
    op.text = scenario_text(i, rng);
    {
      const double t0 = now_us();
      ScopedSpan span(tracer, "scen.parse", 0);
      op.scenario = scen::parse_scenario(op.text);
      *parse_ms += (now_us() - t0) * 1e-3;
    }
    op.name = op.scenario.name;
    op.options.seed = rng.next_u64() >> 16;
    op.options.horizon = kHorizon;
    op.options.solver_threads = 1;
    ops.push_back(std::move(op));
  }
  shuffle_by(ops, order_seed);
  return ops;
}

}  // namespace

void run_rebal_drift(const RunArgs& args, Tracer& tracer, Report& report) {
  std::vector<HorizonOp> ops;
  double parse_ms = 0.0;
  long setups = 0;
  Tracer off(false);
  auto setup = [&] {
    ops = make_ops(args.seed, setups == 0 ? tracer : off, &parse_ms);
    ++setups;
    // Warm-up on a short horizon of a fixed scenario.
    const HorizonOp& first = *std::min_element(
        ops.begin(), ops.end(),
        [](const HorizonOp& a, const HorizonOp& b) { return a.name < b.name; });
    rebal::LoopOptions warm = first.options;
    warm.horizon = kHorizon / 8;
    (void)rebal::run_horizon(first.scenario, warm);
  };

  std::vector<double> resolve_ms;
  std::vector<double> horizon_core_hours;
  long first_fires = 0, first_rebalances = 0, first_nodes = 0,
       first_pivots = 0, first_fallbacks = 0;
  // Traced-pass tallies for the layer metrics.
  double traced_step_us = 0.0, traced_resolve_ms = 0.0;
  long t_fires = 0, t_rebalances = 0, t_nodes = 0, t_pivots = 0,
       t_fallbacks = 0, t_lp_solves = 0, t_inherits = 0, t_events = 0,
       t_warm = 0;

  auto run = [&](const HorizonOp& op, int pass, bool traced) -> OpResult {
    Tracer& t = traced ? tracer : off;
    OpResult out;
    rebal::HorizonResult h;
    double wall_us = 0.0;
    try {
      const double t0 = now_us();
      ScopedSpan root(t, "horizon", 0);
      h = rebal::run_horizon(op.scenario, op.options);
      wall_us = now_us() - t0;
      for (const rebal::RebalanceEvent& e : h.events) {
        t.add("rebal.resolve", root.id(), t0, t0 + e.wall_seconds * 1e6, true);
      }
    } catch (const std::exception& e) {
      out.ok = false;
      out.failure = e.what();
      out.fingerprint = std::string("error: ") + e.what();
      return out;
    }
    out.fingerprint =
        "replay=" + h.replay_fingerprint + " core_hours=" + exact(h.core_hours);
    report.check(h.steps == kHorizon && h.core_hours > 0.0 &&
                     h.rebalances <= h.detector_fires,
                 describe(op) + ": inconsistent horizon result");
    if (!traced) {
      for (const rebal::RebalanceEvent& e : h.events) {
        resolve_ms.push_back(e.wall_seconds * 1e3);
      }
    }
    if (pass == 0) {
      horizon_core_hours.push_back(h.core_hours);
      first_fires += h.detector_fires;
      first_rebalances += h.rebalances;
      first_nodes += h.resolve_nodes;
      first_pivots += h.resolve_simplex_iterations;
      first_fallbacks += h.heuristic_fallbacks;
    }
    if (traced) {
      traced_resolve_ms += h.resolve_wall_seconds * 1e3;
      traced_step_us += (wall_us - h.resolve_wall_seconds * 1e6) /
                        static_cast<double>(std::max(1L, h.steps));
      t_fires += h.detector_fires;
      t_rebalances += h.rebalances;
      t_nodes += h.resolve_nodes;
      t_pivots += h.resolve_simplex_iterations;
      t_fallbacks += h.heuristic_fallbacks;
      t_lp_solves += h.resolve_lp_solves;
      t_inherits += h.resolve_factor_inherits;
      t_events += static_cast<long>(h.events.size());
      for (const rebal::RebalanceEvent& e : h.events) {
        t_warm += e.warm_used;
      }
    }
    return out;
  };

  const SerialTimes times =
      run_passes(args, report, setup, ops, run, describe);

  report.work["ops"] = std::to_string(ops.size());
  report.work["failed"] = std::to_string(times.first_pass_failed);
  report.work["fires"] = std::to_string(first_fires);
  report.work["rebalances"] = std::to_string(first_rebalances);
  report.work["resolve_nodes"] = std::to_string(first_nodes);
  report.work["resolve_pivots"] = std::to_string(first_pivots);
  report.work["heuristic_fallbacks"] = std::to_string(first_fallbacks);
  const double core_hours =
      ordered_mean(horizon_core_hours) *
      static_cast<double>(horizon_core_hours.size());
  report.work["core_hours"] = exact(core_hours);

  report.name("horizon_s", mean(times.plain_ms) * 1e-3, "s",
              std::to_string(kHorizon) + " steps");
  name_percentiles(report, "resolve_ms", resolve_ms, {0.5, 0.9});
  report.name("core_hours", core_hours, "h",
              "sum over the pass's " + std::to_string(ops.size()) +
                  " horizons");

  if (!args.trace) {
    report.segments = times.plain_passes;
    report.setups = times.setups;
    return;
  }
  zero_layer_metrics(report);
  const double n = static_cast<double>(times.traced_ms.size());
  auto& m = report.metrics;
  auto ratio = [](long a, long b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  m["scen.parse_ms"] = parse_ms / static_cast<double>(setups);
  m["minlp.solve_ms"] = traced_resolve_ms / n;
  m["minlp.nodes"] = static_cast<double>(t_nodes) / n;
  m["minlp.lp_solves"] = static_cast<double>(t_lp_solves) / n;
  m["lp.pivots"] = static_cast<double>(t_pivots) / n;
  m["lp.factor_inherits"] = static_cast<double>(t_inherits) / n;
  m["lp.warm_ratio"] = ratio(t_warm, t_events);
  m["rebal.step_us"] = traced_step_us / n;
  m["rebal.fires"] = static_cast<double>(t_fires) / n;
  m["rebal.rebalances"] = static_cast<double>(t_rebalances) / n;
  m["rebal.adopt_ratio"] = ratio(t_rebalances, t_fires);
  m["rebal.resolve_nodes"] = static_cast<double>(t_nodes) / n;
  m["rebal.resolve_pivots"] = static_cast<double>(t_pivots) / n;
  m["rebal.heuristic_fallbacks"] = static_cast<double>(t_fallbacks) / n;
  finish_traced_serial(report, tracer, times, "horizon");
  report.layers.emplace_back("rebal.resolve", traced_resolve_ms / n);
}

}  // namespace perfbench

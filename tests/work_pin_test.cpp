// Work-count pins for the solver's search: exact B&B node and simplex pivot
// counts, plus the objective, on fixed inputs that cover the three model
// paths production uses -- the paper's Table I layouts, a generated corpus
// scenario, and the rebalancing loop's warm re-solves.  Any change to node
// selection, branching, cut management, LP tolerances, or the control
// loop's tracker shows up here as a changed count, long before it moves a
// paper golden.  The fitter gets the same treatment: VarPro evaluations per
// fit and the fitted parameters' exact bits on one 1-degree campaign.  The pinned values are the solver's own output on these
// inputs; update them only for an intended search change, and say why.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/cesm/configs.hpp"
#include "hslb/hslb/layout_model.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/obs/metrics.hpp"
#include "hslb/rebal/loop.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"
#include "hslb/scen/parse.hpp"

namespace hslb {
namespace {

using cesm::ComponentKind;
using cesm::LayoutKind;

constexpr double kObjectiveRelTol = 1e-9;

void expect_objective(double actual, double pinned) {
  EXPECT_NEAR(actual, pinned, kObjectiveRelTol * std::max(1.0, pinned))
      << "objective " << actual;
}

/// Fixed Table II-shaped curves, standing in for a fit.
std::map<ComponentKind, perf::PerfModel> fixed_curves() {
  return {
      {ComponentKind::kAtm,
       perf::PerfModel(perf::PerfParams{24000.0, 0.02, 1.1, 30.0})},
      {ComponentKind::kOcn,
       perf::PerfModel(perf::PerfParams{9000.0, 0.05, 0.9, 25.0})},
      {ComponentKind::kIce,
       perf::PerfModel(perf::PerfParams{6500.0, 0.3, 0.6, 8.0})},
      {ComponentKind::kLnd,
       perf::PerfModel(perf::PerfParams{1500.0, 0.0, 1.0, 3.0})},
  };
}

/// The pipeline's step-3 spec for `case_config` at N nodes: allowed sets,
/// memory floors and the automatic Tsync all come from core::layout_spec.
core::LayoutModelSpec pipeline_spec(const cesm::CaseConfig& case_config,
                                    LayoutKind layout, int total_nodes) {
  core::PipelineConfig config;
  config.case_config = case_config;
  config.layout = layout;
  config.total_nodes = total_nodes;
  return core::layout_spec(config, fixed_curves());
}

/// The 1-degree case at N = 128 with fixed curves (no campaign, so the pin
/// isolates the solver from the gather/fit steps).
core::LayoutModelSpec one_degree_spec(LayoutKind layout) {
  return pipeline_spec(cesm::one_degree_case(), layout, 128);
}

struct Pin {
  long nodes = 0;
  long pivots = 0;
  double objective = 0.0;
};

void expect_pin(const minlp::MinlpResult& r, const Pin& pin) {
  ASSERT_EQ(r.status, minlp::MinlpStatus::kOptimal);
  EXPECT_EQ(r.stats.nodes_explored, pin.nodes);
  EXPECT_EQ(r.stats.simplex_iterations, pin.pivots);
  expect_objective(r.objective, pin.objective);
}

TEST(WorkPin, AutoTsyncMatchesTheSolveMixFormula) {
  // perfbench/solve_mix.cpp builds its 1/8-degree Table I specs by hand and
  // restates the automatic Tsync rule literally (that workload is frozen
  // with the benchmark).  If layout_spec's rule changes, the benchmark's
  // solve-mix models silently stop being the pipeline's models.
  const struct {
    const char* name;
    cesm::CaseConfig config;
    std::vector<int> totals;
  } cases[] = {
      {"1-degree", cesm::one_degree_case(), {128, 256, 512, 1024, 2048}},
      {"1/8-degree", cesm::eighth_degree_case(), {4096, 8192, 16384, 32768}},
  };
  for (const auto& c : cases) {
    for (const int total_nodes : c.totals) {
      const core::LayoutModelSpec spec =
          pipeline_spec(c.config, LayoutKind::kHybrid, total_nodes);
      // Verbatim from perfbench/solve_mix.cpp.
      const double solve_mix_tsync = std::max(
          1.0, 0.25 * spec.perf.at(cesm::ComponentKind::kIce)(
                          std::max(1.0, total_nodes / 2.0)));
      EXPECT_EQ(spec.tsync, solve_mix_tsync)
          << c.name << " at N = " << total_nodes
          << ": core::layout_spec's automatic Tsync no longer matches the"
             " literal rule in perfbench/solve_mix.cpp; the solve-mix"
             " workload would now solve different models than the pipeline";
    }
  }
}

TEST(WorkPin, TableOneLayoutsAtOneDegree) {
  const struct {
    LayoutKind layout;
    Pin pin;
  } cases[] = {
      {LayoutKind::kHybrid, {15, 79, 364.40508050256926}},
      {LayoutKind::kSequentialGroup, {11, 79, 368.92446596230553}},
      {LayoutKind::kFullySequential, {1, 54, 399.9246464960334}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(cesm::to_string(c.layout));
    const core::LayoutModelSpec spec = one_degree_spec(c.layout);
    core::LayoutModelVars vars;
    expect_pin(minlp::solve(core::build_layout_model(spec, &vars)), c.pin);
  }
}

TEST(WorkPin, GeneratedCorpusScenario) {
  scen::GenerateOptions options;
  options.scenarios_per_family = 1;
  const std::vector<scen::GeneratedScenario> corpus =
      scen::generate_corpus(options);
  const auto it = std::find_if(
      corpus.begin(), corpus.end(), [](const scen::GeneratedScenario& g) {
        return g.family == "medium_hetero_memcomm";
      });
  ASSERT_NE(it, corpus.end());
  scen::ScenarioModelVars vars;
  expect_pin(minlp::solve(scen::build_scenario_model(it->scenario, &vars)),
             {173, 3040, 12679.356094799785});
}

TEST(WorkPin, RebalancingHorizon) {
  const scen::Scenario s = scen::parse_scenario(R"(scenario work_pin
machine nodes=48 cores_per_node=8 mem_gb_per_node=64
component atm curve=pow a=4000 b=0.5 c=1.2 d=10
component ocn curve=pow a=2500 b=0.4 c=1.1 d=8
component ice curve=pow a=800 b=0.2 c=1 d=4
component lnd curve=pow a=300 b=0.1 c=1 d=2
comm atm ocn 0.02
schedule ocn | (ice | lnd) -> atm
drift atm rate=0.0001 noise=0.02 shifts=60:1.6
drift ocn rate=-0.0001 noise=0.02 shifts=140:0.55
drift ice noise=0.015
)");
  rebal::LoopOptions options;
  options.horizon = 200;
  options.detector.fire_threshold = 0.08;
  options.detector.clear_threshold = 0.03;
  const rebal::HorizonResult r = rebal::run_horizon(s, options);
  EXPECT_EQ(r.detector_fires, 2);
  EXPECT_EQ(r.rebalances, 2);
  EXPECT_EQ(r.regime_shifts_flagged, 2);
  EXPECT_EQ(r.resolve_nodes, 34);
  EXPECT_EQ(r.resolve_simplex_iterations, 127);
  expect_objective(r.core_hours, 5697.3167333351867);
}

/// The exact bits of a fitted parameter.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(WorkPin, OneDegreeCampaignFits) {
  // The four component fits of one 1-degree campaign (hybrid layout, N =
  // 1300, seed 2534): VarPro evaluations per fit and the exact bits of
  // (a, b, c, d), with and without the LM polish.  The VarPro-only answer
  // is the NNLS solution at the best exponent, so a change to the NNLS or
  // least-squares arithmetic, or to the exponent search, shows here.
  struct FitPin {
    ComponentKind kind;
    bool lm_polish;
    std::uint64_t a, b, c, d;
  };
  const FitPin pins[] = {
      {ComponentKind::kLnd, true, 0x409725f48d7999d3, 0x3f21d0761182a7c8,
       0x3ff0000000000000, 0x3ffce3252bd83ad4},
      {ComponentKind::kIce, true, 0x40bd8354a4992690, 0x0000000000000000,
       0x3ff0000000000000, 0x402b599fd9703614},
      {ComponentKind::kAtm, true, 0x40dac253f17a96d1, 0x3f71cbf0a3e2cf8c,
       0x3ff0000000000000, 0x404473a566101691},
      {ComponentKind::kOcn, true, 0x40befc968cd05416, 0x3f78aa21e85d9122,
       0x3ff0000000000000, 0x4043241602220503},
      {ComponentKind::kLnd, false, 0x409725f48d7999d3, 0x3f21d0761182a7c8,
       0x3ff0000000000000, 0x3ffce3252bd83ad4},
      {ComponentKind::kIce, false, 0x40bd8354a497cbd7, 0x0000000000000000,
       0x3ff0000000000000, 0x402b599fd952d06e},
      {ComponentKind::kAtm, false, 0x40dac253f17a96d1, 0x3f71cbf0a3e2cf8c,
       0x3ff0000000000000, 0x404473a566101691},
      {ComponentKind::kOcn, false, 0x40befc968ccfc654, 0x3f78aa21e5545bf2,
       0x3ff0000000000000, 0x4043241602192cce},
  };
  const cesm::CampaignResult campaign = cesm::gather_benchmarks(
      cesm::one_degree_case(), LayoutKind::kHybrid,
      core::default_gather_totals(1300), 2534);
  for (const FitPin& pin : pins) {
    SCOPED_TRACE(std::string(cesm::to_string(pin.kind)) +
                 (pin.lm_polish ? " with LM polish" : " VarPro only"));
    const cesm::Series series = cesm::series_for(campaign.samples, pin.kind);
    perf::FitOptions options;
    options.lm_polish = pin.lm_polish;
    obs::Registry registry;
    perf::FitResult fit;
    {
      const obs::Install install(nullptr, &registry);
      fit = perf::fit(series.nodes, series.seconds, options);
    }
    // 49 grid points plus 27 golden-section pairs.
    EXPECT_EQ(registry.counter("perf.fit.varpro_evals").value(), 103.0);
    const perf::PerfParams& p = fit.model.params();
    EXPECT_EQ(bits(p.a), pin.a) << p.a;
    EXPECT_EQ(bits(p.b), pin.b) << p.b;
    EXPECT_EQ(bits(p.c), pin.c) << p.c;
    EXPECT_EQ(bits(p.d), pin.d) << p.d;
  }
}

}  // namespace
}  // namespace hslb

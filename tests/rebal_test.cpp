// Tests for hslb::rebal -- the online rebalancing loop: the imbalance
// detector's hysteresis/cooldown state machine (no-fire under pure noise,
// fire-within-N under a scripted shift, blocked-state re-fire), the
// incremental re-fitter (RLS-equals-batch-LS at lambda=1, forgetting-factor
// tracking, CUSUM shift flagging, Huber robustness), the drift simulator's
// pure-hash determinism and the DSL drift round-trip, cross-solve warm
// starts reaching the same optimum as cold solves, and the horizon loop's
// replay-fingerprint determinism.
#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/common/rng.hpp"
#include "hslb/linalg/least_squares.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/rebal/detector.hpp"
#include "hslb/rebal/drift.hpp"
#include "hslb/rebal/loop.hpp"
#include "hslb/rebal/refit.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/parse.hpp"

namespace hslb::rebal {
namespace {

scen::Scenario drift_scenario() {
  return scen::parse_scenario(R"(scenario rebal_test
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
}

// --- Detector state machine -------------------------------------------------

TEST(Detector, FractionalImbalance) {
  const std::vector<double> balanced = {1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(fractional_imbalance(balanced), 0.0);
  const std::vector<double> skewed = {2.0, 1.0, 1.0};  // max 2, mean 4/3
  EXPECT_NEAR(fractional_imbalance(skewed), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(fractional_imbalance({}), 0.0);
}

TEST(Detector, FiresOnSustainedImbalanceAfterWindowFills) {
  DetectorOptions options;
  options.window = 4;
  options.sustain = 3;
  options.cooldown = 5;
  ImbalanceDetector detector(options);
  const std::vector<double> balanced = {1.0, 1.0};
  const std::vector<double> skewed = {1.5, 1.0};  // FLI = 0.2 > 0.15

  // Window not yet filled: even a hard imbalance cannot fire.
  EXPECT_FALSE(detector.observe(skewed));
  EXPECT_FALSE(detector.observe(skewed));
  EXPECT_FALSE(detector.observe(skewed));
  // Window fills on the 4th sample; sustain demands 3 consecutive
  // over-threshold steps from there.
  EXPECT_FALSE(detector.observe(skewed));
  EXPECT_FALSE(detector.observe(skewed));
  EXPECT_TRUE(detector.observe(skewed));
  EXPECT_EQ(detector.state(), ImbalanceDetector::State::kCooldown);
  EXPECT_EQ(detector.fires(), 1);

  // Cooldown swallows everything, even hard imbalance; the transition out
  // happens on the observe that spends the last cooldown step.
  for (int i = 0; i < options.cooldown; ++i) {
    EXPECT_FALSE(detector.observe(skewed));
  }
  // Cooldown elapsed with FLI still high: blocked, not re-armed.
  EXPECT_EQ(detector.state(), ImbalanceDetector::State::kBlocked);

  // Balance restored: the window drains below the clear threshold and the
  // detector re-arms.
  for (int i = 0; i < options.window + 1; ++i) {
    detector.observe(balanced);
  }
  EXPECT_EQ(detector.state(), ImbalanceDetector::State::kArmed);
  EXPECT_EQ(detector.fires(), 1);
}

TEST(Detector, BrokenSustainDoesNotFire) {
  DetectorOptions options;
  options.window = 2;
  options.sustain = 3;
  ImbalanceDetector detector(options);
  const std::vector<double> balanced = {1.0, 1.0};
  // Over threshold on a pure-skew window (FLI 0.167) but not on a mixed
  // skew/balanced window (FLI 0.09): the skew bursts below never sustain.
  const std::vector<double> skewed = {1.4, 1.0};
  for (int round = 0; round < 20; ++round) {
    // Two over-threshold steps, then a balanced stretch long enough to pull
    // the windowed FLI back down: the sustain count must keep resetting.
    EXPECT_FALSE(detector.observe(skewed));
    EXPECT_FALSE(detector.observe(skewed));
    EXPECT_FALSE(detector.observe(balanced));
    EXPECT_FALSE(detector.observe(balanced));
    EXPECT_FALSE(detector.observe(balanced));
  }
  EXPECT_EQ(detector.fires(), 0);
}

TEST(Detector, BlockedStateRefiresOnSustainedHardImbalance) {
  DetectorOptions options;
  options.window = 2;
  options.sustain = 2;
  options.cooldown = 3;
  ImbalanceDetector detector(options);
  const std::vector<double> skewed = {1.5, 1.0};

  int fire_step = -1;
  for (int step = 0; step < 4; ++step) {
    if (detector.observe(skewed)) {
      fire_step = step;
      break;
    }
  }
  ASSERT_GE(fire_step, 0);

  // Hold the imbalance through the cooldown: the detector lands in
  // kBlocked, then the sustained over-fire-threshold signal fires again
  // (the rebalance that followed the first fire moved the baseline, so a
  // persistent hard imbalance is new signal).
  int refire_step = -1;
  for (int step = 0; step < options.cooldown + options.sustain + 2; ++step) {
    if (detector.observe(skewed)) {
      refire_step = step;
      break;
    }
  }
  EXPECT_GE(refire_step, 0);
  EXPECT_EQ(detector.fires(), 2);
}

TEST(Detector, NoFireUnderPureNoise) {
  DetectorOptions options;  // defaults: window 16, fire 0.15, sustain 4
  ImbalanceDetector detector(options);
  common::Rng rng(7);
  std::vector<double> loads(4);
  for (int step = 0; step < 5000; ++step) {
    for (double& load : loads) {
      load = rng.lognormal_noise(0.05);  // 5% CV, mean 1
    }
    EXPECT_FALSE(detector.observe(loads)) << "fired at step " << step;
  }
  EXPECT_EQ(detector.fires(), 0);
}

TEST(Detector, FiresWithinWindowOfAScriptedShift) {
  DetectorOptions options;  // defaults
  ImbalanceDetector detector(options);
  common::Rng rng(11);
  std::vector<double> loads(4);
  constexpr int kShift = 200;
  int fire_step = -1;
  for (int step = 0; step < 400 && fire_step < 0; ++step) {
    for (std::size_t j = 0; j < loads.size(); ++j) {
      const double scale = (j == 0 && step >= kShift) ? 1.6 : 1.0;
      loads[j] = scale * rng.lognormal_noise(0.05);
    }
    if (detector.observe(loads)) {
      fire_step = step;
    }
  }
  ASSERT_GE(fire_step, kShift);
  // Worst case: the window must re-fill past the shift, plus the sustain.
  EXPECT_LE(fire_step, kShift + options.window + options.sustain + 5);
}

TEST(Detector, ResetWindowKeepsCooldown) {
  DetectorOptions options;
  options.window = 2;
  options.sustain = 1;
  options.cooldown = 10;
  ImbalanceDetector detector(options);
  const std::vector<double> skewed = {1.5, 1.0};
  detector.observe(skewed);
  ASSERT_TRUE(detector.observe(skewed));
  detector.reset_window();
  EXPECT_EQ(detector.state(), ImbalanceDetector::State::kCooldown);
  EXPECT_DOUBLE_EQ(detector.windowed_imbalance(), 0.0);
  for (int i = 0; i < options.cooldown; ++i) {
    EXPECT_FALSE(detector.observe(skewed));
  }
}

// --- Incremental re-fit -----------------------------------------------------

TEST(Refit, RlsWithUnitLambdaMatchesBatchLeastSquares) {
  // y = 2 x0 - 3 x1 + 0.5 + noise, fit with a bias column.
  common::Rng rng(3);
  const std::size_t n = 40;
  linalg::Matrix a(n, 3);
  linalg::Vector b(n);
  RecursiveLeastSquares rls(3, 1.0, 1e8);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-1.0, 3.0);
    const double y =
        2.0 * x0 - 3.0 * x1 + 0.5 + rng.uniform(-0.01, 0.01);
    a(i, 0) = x0;
    a(i, 1) = x1;
    a(i, 2) = 1.0;
    b[i] = y;
    const std::vector<double> x = {x0, x1, 1.0};
    rls.observe(x, y);
  }
  const linalg::LeastSquaresResult batch = linalg::solve_least_squares(a, b);
  ASSERT_EQ(rls.theta().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // The finite initial covariance is a weak prior toward zero; 1e8 makes
    // its bias far smaller than this tolerance.
    EXPECT_NEAR(rls.theta()[i], batch.x[i], 1e-4) << "coefficient " << i;
  }
}

TEST(Refit, ForgettingFactorTracksDriftingParameter) {
  // theta drifts linearly; lambda < 1 must track it with bounded lag, while
  // lambda = 1 averages the whole history and lags far behind.
  RecursiveLeastSquares tracking(1, 0.9);
  RecursiveLeastSquares averaging(1, 1.0);
  const double one = 1.0;
  const std::span<const double> x(&one, 1);
  double truth = 1.0;
  for (int step = 0; step < 400; ++step) {
    truth = 1.0 + 0.01 * step;
    tracking.observe(x, truth);
    averaging.observe(x, truth);
  }
  // Effective memory ~1/(1-lambda) = 10 samples -> lag ~ 10 * 0.01.
  EXPECT_NEAR(tracking.theta()[0], truth, 0.15);
  // The infinite-memory estimator averages the whole ramp and lags by
  // roughly half its height.
  EXPECT_GT(truth - averaging.theta()[0], 1.0);
}

TEST(Refit, CusumFlagsAShiftAndIgnoresNoise) {
  ResidualCusum cusum;  // k = 0.5, h = 12
  common::Rng rng(5);
  for (int step = 0; step < 2000; ++step) {
    ASSERT_FALSE(cusum.observe(rng.uniform(-1.0, 1.0)))
        << "false alarm at step " << step;
  }
  // A 2-sigma shift accumulates (2 - k) per step and crosses h within ~9.
  int flagged_after = -1;
  for (int step = 0; step < 20; ++step) {
    if (cusum.observe(2.0)) {
      flagged_after = step;
      break;
    }
  }
  ASSERT_GE(flagged_after, 0);
  EXPECT_LE(flagged_after, 10);
}

TEST(Refit, HuberLocationResistsOutliers) {
  // 10 inliers near 2.0, two gross outliers; the mean is dragged to ~18 but
  // the Huber location must stay with the inliers.
  std::vector<double> samples = {1.9, 2.0, 2.1, 1.95, 2.05, 2.0,
                                 1.98, 2.02, 1.97, 2.03, 100.0, 95.0};
  const double level = huber_location(samples);
  EXPECT_NEAR(level, 2.0, 0.1);
  EXPECT_DOUBLE_EQ(huber_location({}), 0.0);
}

TEST(Refit, ScaleTrackerFollowsSlowDriftAndJumpsOnShift) {
  ScaleTracker tracker;
  common::Rng rng(13);
  long shift_flags = 0;
  // Slow drift, small against the noise floor (lag ~rate/(1-lambda) is a
  // fraction of the noise sigma): no regime shifts flagged, estimate
  // follows.
  double scale = 1.0;
  for (int step = 0; step < 500; ++step) {
    scale = std::exp(0.0001 * step);
    const ScaleTracker::Update update =
        tracker.observe(scale * rng.lognormal_noise(0.02));
    shift_flags += update.regime_shift ? 1 : 0;
  }
  EXPECT_EQ(shift_flags, 0);
  EXPECT_NEAR(tracker.scale(), scale, 0.05 * scale);
  // Step change: the CUSUM must flag it and the Huber re-fit must move the
  // estimate to the new level within a short window.
  bool flagged = false;
  for (int step = 0; step < 30; ++step) {
    const ScaleTracker::Update update =
        tracker.observe(1.6 * scale * rng.lognormal_noise(0.02));
    flagged = flagged || update.regime_shift;
  }
  EXPECT_TRUE(flagged);
  EXPECT_NEAR(tracker.scale(), 1.6 * scale, 0.08 * 1.6 * scale);
}

// --- Drift simulation and the DSL ------------------------------------------

TEST(Drift, ScaleCombinesTrendAndShifts) {
  scen::DriftSpec spec;
  spec.rate = 0.001;
  spec.shifts = {{100, 2.0}, {200, 0.5}};
  EXPECT_DOUBLE_EQ(drift_scale(spec, 0), 1.0);
  EXPECT_NEAR(drift_scale(spec, 99), std::exp(0.099), 1e-12);
  EXPECT_NEAR(drift_scale(spec, 100), 2.0 * std::exp(0.1), 1e-12);
  EXPECT_NEAR(drift_scale(spec, 200), 1.0 * std::exp(0.2), 1e-12);
}

TEST(Drift, DslRoundTripPreservesDriftAndFingerprint) {
  const scen::Scenario s = drift_scenario();
  ASSERT_EQ(s.drift.size(), 3u);
  EXPECT_EQ(s.drift[0].component, 0);
  EXPECT_DOUBLE_EQ(s.drift[0].rate, 0.0001);
  ASSERT_EQ(s.drift[0].shifts.size(), 1u);
  EXPECT_EQ(s.drift[0].shifts[0].step, 60);
  EXPECT_DOUBLE_EQ(s.drift[0].shifts[0].factor, 1.6);

  const std::string printed = scen::print_scenario(s, true);
  const scen::Scenario reparsed = scen::parse_scenario(printed);
  EXPECT_EQ(scen::print_scenario(reparsed, true), printed);
  EXPECT_EQ(scen::scenario_fingerprint(reparsed),
            scen::scenario_fingerprint(s));

  // Drift is part of the model: dropping it must change the fingerprint.
  scen::Scenario undrifted = s;
  undrifted.drift.clear();
  EXPECT_NE(scen::scenario_fingerprint(undrifted),
            scen::scenario_fingerprint(s));
}

TEST(Drift, DslRejectsBadDirectives) {
  const char* header =
      "scenario x\nmachine nodes=8\ncomponent a curve=pow a=10 b=0 c=1 d=1\n"
      "schedule a\n";
  EXPECT_FALSE(
      scen::try_parse_scenario(std::string(header) + "drift b rate=0.1\n")
          .has_value());
  EXPECT_FALSE(
      scen::try_parse_scenario(std::string(header) + "drift a noise=1.5\n")
          .has_value());
  EXPECT_FALSE(scen::try_parse_scenario(std::string(header) +
                                        "drift a shifts=10:2,5:3\n")
                   .has_value());
  EXPECT_FALSE(scen::try_parse_scenario(std::string(header) +
                                        "drift a shifts=10:-2\n")
                   .has_value());
  EXPECT_TRUE(scen::try_parse_scenario(std::string(header) +
                                       "drift a rate=0.1 shifts=5:2,9:0.5\n")
                  .has_value());
}

TEST(Drift, SimulatorIsDeterministicInSeedStepComponent) {
  const scen::Scenario s = drift_scenario();
  const DriftSimulator sim_a(s, 42);
  const DriftSimulator sim_b(s, 42);
  const DriftSimulator sim_other(s, 43);
  bool any_seed_difference = false;
  for (long step : {0L, 7L, 61L, 500L}) {
    for (int j = 0; j < 4; ++j) {
      const double a = sim_a.observed_seconds(j, step, 8);
      EXPECT_DOUBLE_EQ(a, sim_b.observed_seconds(j, step, 8));
      any_seed_difference = any_seed_difference ||
                            a != sim_other.observed_seconds(j, step, 8);
    }
  }
  EXPECT_TRUE(any_seed_difference);
  // lnd has no drift spec: scale 1, no noise.
  EXPECT_DOUBLE_EQ(sim_a.true_scale(3, 900), 1.0);
  const double lnd_curve = s.components[3].curve(8.0);
  EXPECT_DOUBLE_EQ(sim_a.observed_seconds(3, 900, 8), lnd_curve);
  EXPECT_EQ(sim_a.shift_steps(), (std::vector<long>{60, 140}));
}

TEST(Drift, ScaledScenarioScalesTheObjectiveConsistently) {
  const scen::Scenario s = drift_scenario();
  const std::vector<double> scales = {2.0, 1.0, 1.0, 1.0};
  const scen::Scenario scaled = scaled_scenario(s, scales);
  const std::vector<int> alloc = {24, 12, 8, 4};
  // atm's curve doubles exactly; others are untouched.
  EXPECT_DOUBLE_EQ(scaled.components[0].curve(24.0),
                   2.0 * s.components[0].curve(24.0));
  EXPECT_DOUBLE_EQ(scaled.components[1].curve(12.0),
                   s.components[1].curve(12.0));
  // The scaled scenario stays valid and buildable.
  scaled.validate();
  scen::ScenarioModelVars vars;
  (void)scen::build_scenario_model(scaled, &vars);
}

// --- Cross-solve warm starts ------------------------------------------------

TEST(WarmSolve, WarmStartReachesTheColdOptimum) {
  const scen::Scenario s = drift_scenario();
  scen::ScenarioModelVars vars;
  const minlp::Model base_model = scen::build_scenario_model(s, &vars);

  minlp::SolverOptions cold_options;
  cold_options.capture_warm_start = true;
  const minlp::MinlpResult first = minlp::solve(base_model, cold_options);
  ASSERT_EQ(first.status, minlp::MinlpStatus::kOptimal);
  ASSERT_FALSE(first.warm.empty());
  ASSERT_FALSE(first.warm.incumbent.empty());

  // Perturb the scenario the way the loop's re-fit does, then solve the new
  // model cold and warm: both must land on the same optimum.
  const std::vector<double> scales = {1.6, 0.9, 1.0, 1.0};
  const scen::Scenario drifted = scaled_scenario(s, scales);
  scen::ScenarioModelVars drifted_vars;
  const minlp::Model drifted_model =
      scen::build_scenario_model(drifted, &drifted_vars);

  const minlp::MinlpResult cold = minlp::solve(drifted_model, cold_options);
  minlp::SolverOptions warm_options = cold_options;
  warm_options.warm_start = &first.warm;
  const minlp::MinlpResult warm = minlp::solve(drifted_model, warm_options);

  ASSERT_EQ(warm.status, minlp::MinlpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-7 * (1.0 + std::fabs(cold.objective)));
  // The previous incumbent completes to a feasible point of the drifted
  // model (same bounds, scaled objective), priming the cutoff.
  EXPECT_GE(warm.stats.warm_incumbent_primes, 1);
  EXPECT_LE(warm.stats.nodes_explored, cold.stats.nodes_explored);
}

TEST(WarmSolve, CaptureOffLeavesResultUnchanged) {
  const scen::Scenario s = drift_scenario();
  scen::ScenarioModelVars vars;
  const minlp::Model model = scen::build_scenario_model(s, &vars);
  minlp::SolverOptions plain;
  minlp::SolverOptions capturing;
  capturing.capture_warm_start = true;
  const minlp::MinlpResult a = minlp::solve(model, plain);
  const minlp::MinlpResult b = minlp::solve(model, capturing);
  EXPECT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.stats.nodes_explored, b.stats.nodes_explored);
  EXPECT_EQ(a.stats.simplex_iterations, b.stats.simplex_iterations);
  EXPECT_TRUE(a.warm.empty());
  EXPECT_FALSE(b.warm.empty());
}

// --- The horizon loop -------------------------------------------------------

TEST(Loop, ScoreDetectorMatchesFiresToShifts) {
  // Shifts at 100 and 300; fires at 110 (TP), 170 (FP), 305 (TP).
  const DetectorScore score =
      score_detector({110, 170, 305}, {100, 300}, 50);
  EXPECT_EQ(score.true_positives, 2);
  EXPECT_EQ(score.false_positives, 1);
  EXPECT_EQ(score.false_negatives, 0);
  EXPECT_NEAR(score.precision, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
  // A fire before the shift does not match it.
  const DetectorScore early = score_detector({95}, {100}, 50);
  EXPECT_EQ(early.true_positives, 0);
  EXPECT_EQ(early.false_positives, 1);
  EXPECT_EQ(early.false_negatives, 1);
  // No fires, no shifts: vacuous perfection.
  const DetectorScore empty = score_detector({}, {}, 50);
  EXPECT_DOUBLE_EQ(empty.precision, 1.0);
  EXPECT_DOUBLE_EQ(empty.recall, 1.0);
}

TEST(Loop, HorizonReplayIsDeterministicPerSeed) {
  const scen::Scenario s = drift_scenario();
  LoopOptions options;
  options.horizon = 200;
  options.detector.fire_threshold = 0.08;
  options.detector.clear_threshold = 0.03;
  const HorizonResult a = run_horizon(s, options);
  const HorizonResult b = run_horizon(s, options);
  EXPECT_EQ(a.replay_fingerprint, b.replay_fingerprint);
  EXPECT_EQ(a.fire_steps, b.fire_steps);
  EXPECT_DOUBLE_EQ(a.core_hours, b.core_hours);
  EXPECT_EQ(a.final_allocation, b.final_allocation);

  LoopOptions other_seed = options;
  other_seed.seed = options.seed + 1;
  const HorizonResult c = run_horizon(s, other_seed);
  EXPECT_NE(a.replay_fingerprint, c.replay_fingerprint);
}

TEST(Loop, RebalancingBeatsStaticUnderAScriptedShift) {
  const scen::Scenario s = drift_scenario();
  LoopOptions loop_options;
  loop_options.horizon = 200;
  loop_options.detector.fire_threshold = 0.08;
  loop_options.detector.clear_threshold = 0.03;
  LoopOptions static_options = loop_options;
  static_options.rebalance = false;
  const HorizonResult rebalancing = run_horizon(s, loop_options);
  const HorizonResult fixed = run_horizon(s, static_options);
  EXPECT_GE(rebalancing.rebalances, 1);
  EXPECT_LT(rebalancing.core_hours, fixed.core_hours);
  // The static arm never rebalances and pays no overhead.
  EXPECT_EQ(fixed.rebalances, 0);
  EXPECT_DOUBLE_EQ(fixed.overhead_core_hours, 0.0);
  EXPECT_EQ(fixed.initial_allocation, fixed.final_allocation);
}

}  // namespace
}  // namespace hslb::rebal

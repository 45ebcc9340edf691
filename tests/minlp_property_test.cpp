// Property tests for the MINLP solver: random instances cross-checked
// against exhaustive enumeration (the instances are built small enough that
// brute force is exact).
#include <cmath>

#include <gtest/gtest.h>

#include "hslb/common/rng.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/minlp/nlp_bb.hpp"

namespace hslb::minlp {
namespace {

/// Random convex "performance" function a/n + b*n + d.
struct RandomFn {
  double a, b, d;
  double operator()(double n) const { return a / n + b * n + d; }
  UnivariateFn as_link() const {
    const RandomFn copy = *this;
    auto fn = make_univariate(
        [copy](double n) { return copy(n); },
        [copy](double n) { return -copy.a / (n * n) + copy.b; },
        Curvature::kConvex);
    fn.as_expr = [copy](const expr::Expr& n) {
      return copy.a / n + copy.b * n + copy.d;
    };
    return fn;
  }
};

/// Instance: min max(f1(n1), f2(n2)) s.t. n1 + n2 <= budget, integers >= 1.
struct Instance {
  RandomFn f1, f2;
  int budget;
};

Instance random_instance(common::Rng& rng) {
  Instance inst;
  inst.f1 = {rng.uniform(50.0, 500.0), rng.uniform(0.0, 0.5),
             rng.uniform(0.0, 10.0)};
  inst.f2 = {rng.uniform(50.0, 500.0), rng.uniform(0.0, 0.5),
             rng.uniform(0.0, 10.0)};
  inst.budget = static_cast<int>(rng.uniform_int(4, 60));
  return inst;
}

double brute_force(const Instance& inst) {
  double best = lp::kInf;
  for (int n1 = 1; n1 < inst.budget; ++n1) {
    for (int n2 = 1; n1 + n2 <= inst.budget; ++n2) {
      best = std::min(best, std::max(inst.f1(n1), inst.f2(n2)));
    }
  }
  return best;
}

Model build(const Instance& inst, std::size_t* n1_out = nullptr,
            std::size_t* n2_out = nullptr) {
  Model m;
  const auto T = m.add_variable("T", VarType::kContinuous, 0.0, 1e12);
  const auto n1 = m.add_variable("n1", VarType::kInteger, 1.0, inst.budget);
  const auto n2 = m.add_variable("n2", VarType::kInteger, 1.0, inst.budget);
  const auto t1 = m.add_variable("t1", VarType::kContinuous, 0.0, 1e12);
  const auto t2 = m.add_variable("t2", VarType::kContinuous, 0.0, 1e12);
  m.add_link(t1, n1, inst.f1.as_link(), "f1");
  m.add_link(t2, n2, inst.f2.as_link(), "f2");
  m.add_linear({{T, 1.0}, {t1, -1.0}}, 0.0, lp::kInf);
  m.add_linear({{T, 1.0}, {t2, -1.0}}, 0.0, lp::kInf);
  m.add_linear({{n1, 1.0}, {n2, 1.0}}, -lp::kInf, inst.budget, "budget");
  m.minimize(m.var(T));
  if (n1_out) {
    *n1_out = n1;
  }
  if (n2_out) {
    *n2_out = n2;
  }
  return m;
}

class MinlpBruteForceProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinlpBruteForceProperty, MatchesExhaustiveEnumeration) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
  const Instance inst = random_instance(rng);
  const double expected = brute_force(inst);

  Model m = build(inst);
  const auto r = solve(m);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal) << "budget=" << inst.budget;
  EXPECT_NEAR(r.objective, expected, 1e-5 * (1.0 + expected))
      << "a1=" << inst.f1.a << " b1=" << inst.f1.b << " a2=" << inst.f2.a
      << " b2=" << inst.f2.b << " budget=" << inst.budget;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MinlpBruteForceProperty,
                         ::testing::Range(0, 40));

class MinlpSolverAgreementProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinlpSolverAgreementProperty, AllSolversAgree) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 773 + 29);
  const Instance inst = random_instance(rng);

  Model m1 = build(inst);
  const auto r_oa = solve(m1);

  Model m2 = build(inst);
  const auto r_nlpbb = solve_nlp_bb(m2);

  ASSERT_EQ(r_oa.status, MinlpStatus::kOptimal);
  ASSERT_EQ(r_nlpbb.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r_nlpbb.objective, r_oa.objective,
              1e-4 * (1.0 + r_oa.objective));
}

INSTANTIATE_TEST_SUITE_P(SolverAgreement, MinlpSolverAgreementProperty,
                         ::testing::Range(0, 15));

class MinlpSosProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinlpSosProperty, SosRestrictionMatchesFilteredBruteForce) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 409 + 2);
  const Instance inst = random_instance(rng);

  // Allowed set for n1: powers of two within budget.
  std::vector<double> allowed;
  for (int v = 1; v < inst.budget; v *= 2) {
    allowed.push_back(v);
  }
  if (allowed.size() < 2) {
    GTEST_SKIP() << "budget too small for an interesting set";
  }

  double expected = lp::kInf;
  for (const double n1 : allowed) {
    for (int n2 = 1; n1 + n2 <= inst.budget; ++n2) {
      expected = std::min(expected, std::max(inst.f1(n1), inst.f2(n2)));
    }
  }

  std::size_t n1_var = 0;
  Model m = build(inst, &n1_var);
  m.restrict_to_set(n1_var, allowed, /*use_sos=*/true, "A");
  const auto r = solve(m);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, expected, 1e-5 * (1.0 + expected));
  // The chosen n1 must be a set member.
  bool member = false;
  for (const double v : allowed) {
    member = member || std::fabs(r.x[n1_var] - v) < 1e-6;
  }
  EXPECT_TRUE(member);
}

INSTANTIATE_TEST_SUITE_P(SosInstances, MinlpSosProperty,
                         ::testing::Range(0, 25));

// Monotonicity property: enlarging the budget can only improve the optimum.
class MinlpMonotonicityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinlpMonotonicityProperty, LargerBudgetNeverWorse) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 17);
  Instance inst = random_instance(rng);
  inst.budget = std::max(inst.budget, 8);

  Model small = build(inst);
  const auto r_small = solve(small);

  Instance bigger = inst;
  bigger.budget = inst.budget * 2;
  Model big = build(bigger);
  const auto r_big = solve(big);

  ASSERT_EQ(r_small.status, MinlpStatus::kOptimal);
  ASSERT_EQ(r_big.status, MinlpStatus::kOptimal);
  EXPECT_LE(r_big.objective, r_small.objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Monotonicity, MinlpMonotonicityProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace hslb::minlp

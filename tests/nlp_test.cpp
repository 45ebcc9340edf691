// Tests for the NLP layer: NNLS, Levenberg-Marquardt, and the barrier
// interior-point solver.
#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "hslb/common/error.hpp"
#include "hslb/common/rng.hpp"
#include "hslb/linalg/least_squares.hpp"
#include "hslb/nlp/barrier.hpp"
#include "hslb/nlp/levenberg_marquardt.hpp"
#include "hslb/nlp/nnls.hpp"

namespace hslb::nlp {
namespace {

using linalg::Matrix;
using linalg::Vector;

// --- NNLS -------------------------------------------------------------------

TEST(Nnls, UnconstrainedInteriorSolution) {
  // Least squares solution already nonnegative: NNLS must find it exactly.
  const Matrix a = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  const Vector b{1, 2, 3};
  const auto r = solve_nnls(a, b);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-9);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(Nnls, ClampsNegativeCoordinates) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  const Vector b{-1, 2, 1};
  const auto r = solve_nnls(a, b);
  EXPECT_NEAR(r.x[0], 0.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.5, 1e-9);
}

TEST(Nnls, AllZeroWhenGradientNonpositive) {
  const Matrix a = Matrix::from_rows({{1.0}, {1.0}});
  const Vector b{-1, -2};
  const auto r = solve_nnls(a, b);
  EXPECT_NEAR(r.x[0], 0.0, 1e-12);
}

struct NnlsProblem {
  Matrix a;
  Vector b;
};

/// A random 4..12 x 1..5 problem with entries in [-1, 1].
NnlsProblem random_nnls_problem(int seed) {
  common::Rng rng(static_cast<std::uint64_t>(seed) * 271 + 3);
  const std::size_t m = 4 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  NnlsProblem p{Matrix(m, n), Vector(m)};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      p.a(i, j) = rng.uniform(-1.0, 1.0);
    }
    p.b[i] = rng.uniform(-1.0, 1.0);
  }
  return p;
}

class NnlsKktProperty : public ::testing::TestWithParam<int> {};

TEST_P(NnlsKktProperty, SatisfiesKktConditions) {
  const auto [a, b] = random_nnls_problem(GetParam());
  const std::size_t n = a.cols();
  const auto r = solve_nnls(a, b);
  // KKT: grad = A^T (A x - b); x_j > 0 => grad_j == 0; x_j == 0 => grad_j >= 0.
  const Vector resid = linalg::subtract(linalg::matvec(a, r.x), b);
  const Vector grad = linalg::matvec_t(a, resid);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_GE(r.x[j], -1e-12);
    if (r.x[j] > 1e-8) {
      EXPECT_NEAR(grad[j], 0.0, 1e-6) << "active coordinate gradient";
    } else {
      EXPECT_GE(grad[j], -1e-6) << "inactive coordinate multiplier sign";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNnls, NnlsKktProperty, ::testing::Range(0, 30));

TEST(Nnls, LargePowerColumnDoesNotStallTheSolve) {
  // A 1-degree component series with the VarPro columns {1/n, n^c, 1}.  At
  // c >= 2 the n^c column (up to ~1e9) inflates tol = 1e-10 ||A||_F; an
  // active-set iteration then cycled to its cap and returned x = 0 with
  // residual 560.2.  The answer drops the n^c column: with all three
  // columns its least-squares coefficient is positive but below tol.
  const double nodes[] = {65, 130, 260, 521, 1040};
  const Vector seconds{463.5004902804356, 250.07464978579421,
                       148.41488678770472, 96.659809052096662,
                       71.295597189150541};
  for (const double c : {2.0, 3.0}) {
    SCOPED_TRACE(c);
    Matrix a(5, 3);
    for (std::size_t i = 0; i < 5; ++i) {
      a(i, 0) = 1.0 / nodes[i];
      a(i, 1) = std::pow(nodes[i], c);
      a(i, 2) = 1.0;
    }
    const auto r = solve_nnls(a, seconds);
    EXPECT_NEAR(r.x[0], 27179.7, 0.1);
    EXPECT_EQ(r.x[1], 0.0);
    EXPECT_NEAR(r.x[2], 43.976, 1e-3);
    EXPECT_NEAR(r.residual_norm, 3.52533, 1e-5);
    // KKT on the support {1/n, 1}: zero gradient there.
    const Vector grad = linalg::matvec_t(
        a, linalg::subtract(linalg::matvec(a, r.x), seconds));
    EXPECT_NEAR(grad[0], 0.0, 1e-9);
    EXPECT_NEAR(grad[2], 0.0, 1e-9);
    // The dropped column fails the tolerance, not the sign.
    const double tol = 1e-10 * a.frobenius_norm();
    const double b_coefficient = linalg::solve_least_squares(a, seconds).x[1];
    EXPECT_GT(b_coefficient, 0.0);
    EXPECT_LE(b_coefficient, tol);
  }
}

/// Smallest ||A x - b|| over x = 0 and every column subset whose
/// unconstrained least-squares solution is tol-feasible (each coefficient
/// above 1e-10 max(1, ||A||_F)) -- the NNLS optimum, found by brute force
/// with the allocating least-squares solver.
double brute_force_nnls_residual(const Matrix& a, const Vector& b) {
  const double tol = 1e-10 * std::max(1.0, a.frobenius_norm());
  double best = linalg::norm2(b);
  for (unsigned mask = 1; mask < (1u << a.cols()); ++mask) {
    std::vector<std::size_t> cols;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if ((mask >> j) & 1u) {
        cols.push_back(j);
      }
    }
    if (cols.size() > a.rows()) {
      continue;
    }
    Matrix sub(a.rows(), cols.size());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t k = 0; k < cols.size(); ++k) {
        sub(i, k) = a(i, cols[k]);
      }
    }
    const auto ls = linalg::solve_least_squares(sub, b);
    if (std::all_of(ls.x.begin(), ls.x.end(),
                    [&](double v) { return v > tol; })) {
      best = std::min(best, ls.residual_norm);
    }
  }
  return best;
}

class NnlsSubsetProperty : public ::testing::TestWithParam<int> {};

TEST_P(NnlsSubsetProperty, ResidualIsTheBestFeasibleSubset) {
  // The 30 NnlsKktProperty problems, then the same problems with one column
  // scaled by 1e9 (the VarPro n^c column's magnitude).
  const int seed = GetParam() % 30;
  auto [a, b] = random_nnls_problem(seed);
  if (GetParam() >= 30) {
    const std::size_t big = static_cast<std::size_t>(seed) % a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i) {
      a(i, big) *= 1e9;
    }
  }
  const auto r = solve_nnls(a, b);
  for (const double v : r.x) {
    EXPECT_GE(v, 0.0);
  }
  EXPECT_EQ(r.residual_norm, brute_force_nnls_residual(a, b));
}

INSTANTIATE_TEST_SUITE_P(RandomNnls, NnlsSubsetProperty,
                         ::testing::Range(0, 60));

TEST(Nnls, RejectsMoreColumnsThanItEnumerates) {
  const Matrix a(kNnlsMaxColumns + 2, kNnlsMaxColumns + 1, 1.0);
  const Vector b(kNnlsMaxColumns + 2, 1.0);
  EXPECT_THROW((void)solve_nnls(a, b), InvalidArgument);
}

// --- Levenberg-Marquardt ----------------------------------------------------

TEST(Lm, FitsExponentialDecay) {
  // y = p0 * exp(-p1 * t), recover (2, 0.5) from clean data.
  std::vector<double> t;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    t.push_back(0.2 * i);
    y.push_back(2.0 * std::exp(-0.5 * 0.2 * i));
  }
  const auto fn = [&](std::span<const double> theta, Vector& r, Matrix* jac) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      const double e = std::exp(-theta[1] * t[i]);
      r[i] = theta[0] * e - y[i];
      if (jac) {
        (*jac)(i, 0) = e;
        (*jac)(i, 1) = -theta[0] * t[i] * e;
      }
    }
  };
  const Vector start{1.0, 1.0};
  const Vector lo{0.0, 0.0};
  const Vector hi{std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity()};
  const auto r = minimize_lm(fn, start, lo, hi, t.size());
  EXPECT_NEAR(r.theta[0], 2.0, 1e-5);
  EXPECT_NEAR(r.theta[1], 0.5, 1e-5);
  EXPECT_LT(r.cost, 1e-12);
}

TEST(Lm, RespectsBoxBounds) {
  // min (x - 5)^2 with x <= 2: LM must stop at the bound.
  const auto fn = [](std::span<const double> theta, Vector& r, Matrix* jac) {
    r[0] = theta[0] - 5.0;
    if (jac) {
      (*jac)(0, 0) = 1.0;
    }
  };
  const Vector start{0.0};
  const Vector lo{-10.0};
  const Vector hi{2.0};
  const auto r = minimize_lm(fn, start, lo, hi, 1);
  EXPECT_NEAR(r.theta[0], 2.0, 1e-8);
}

TEST(Lm, NumericJacobianFallback) {
  // Callback never fills the Jacobian: forward differences must kick in.
  const auto fn = [](std::span<const double> theta, Vector& r, Matrix*) {
    r[0] = theta[0] * theta[0] - 4.0;
  };
  const Vector start{1.0};
  const Vector lo{0.0};
  const Vector hi{10.0};
  const auto r = minimize_lm(fn, start, lo, hi, 1);
  EXPECT_NEAR(r.theta[0], 2.0, 1e-5);
}

// --- Barrier solver ----------------------------------------------------------

TEST(Barrier, UnconstrainedQuadratic) {
  NlpProblem p;
  p.num_vars = 2;
  const auto x = expr::variable(0);
  const auto y = expr::variable(1);
  p.objective = (x - 1.0) * (x - 1.0) + 2.0 * (y + 0.5) * (y + 0.5);
  p.lower = {-10.0, -10.0};
  p.upper = {10.0, 10.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], -0.5, 1e-4);
}

TEST(Barrier, ActiveInequality) {
  // min (x-2)^2  s.t.  x <= 1  ->  x = 1.
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = (x - 2.0) * (x - 2.0);
  p.constraints.push_back(x - 1.0);
  p.lower = {-100.0};
  p.upper = {100.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.objective, 1.0, 1e-3);
}

TEST(Barrier, ActiveBoxBound) {
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = -x;  // push up
  p.lower = {0.0};
  p.upper = {3.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
}

TEST(Barrier, DetectsInfeasible) {
  // x <= -1 and x >= 1 cannot both hold.
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = x;
  p.constraints.push_back(x + 1.0);   // x <= -1
  p.constraints.push_back(1.0 - x);   // x >= 1
  p.lower = {-10.0};
  p.upper = {10.0};
  EXPECT_EQ(solve_barrier(p).status, NlpStatus::kInfeasible);
}

TEST(Barrier, LayoutRelaxationShape) {
  // A miniature continuous layout-1 relaxation:
  //   min T  s.t.  T >= 1000/na + 5,  T >= 800/no + 3,  na + no <= 100.
  NlpProblem p;
  p.num_vars = 3;  // T, na, no
  const auto T = expr::variable(0);
  const auto na = expr::variable(1);
  const auto no = expr::variable(2);
  p.objective = T;
  p.constraints.push_back(1000.0 / na + 5.0 - T);
  p.constraints.push_back(800.0 / no + 3.0 - T);
  p.constraints.push_back(na + no - 100.0);
  p.lower = {0.0, 1.0, 1.0};
  p.upper = {1e6, 100.0, 100.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  // Optimality: both time constraints active and nodes exhausted.
  EXPECT_NEAR(r.x[1] + r.x[2], 100.0, 1e-3);
  EXPECT_NEAR(1000.0 / r.x[1] + 5.0, r.objective, 1e-2);
  EXPECT_NEAR(800.0 / r.x[2] + 3.0, r.objective, 1e-2);
}

TEST(Barrier, StartPointUsedWhenInterior) {
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = x * x;
  p.lower = {-5.0};
  p.upper = {5.0};
  const auto r = solve_barrier(p, linalg::Vector{2.0});
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.0, 1e-4);
}

TEST(Barrier, FixedVariableHandledByWidening) {
  NlpProblem p;
  p.num_vars = 2;
  const auto x = expr::variable(0);
  const auto y = expr::variable(1);
  p.objective = (x - 3.0) * (x - 3.0) + y * y;
  p.lower = {2.0, -1.0};
  p.upper = {2.0, 1.0};  // x fixed at 2
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
}

}  // namespace
}  // namespace hslb::nlp

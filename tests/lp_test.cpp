// Unit tests for the bounded-variable primal simplex on known LPs.
#include <gtest/gtest.h>

#include "hslb/common/error.hpp"
#include "hslb/lp/simplex.hpp"

namespace hslb::lp {
namespace {

/// Terms of a dense coefficient row (add_row drops the zeros).
std::vector<Term> terms_of(const linalg::Vector& dense) {
  std::vector<Term> terms;
  for (std::size_t j = 0; j < dense.size(); ++j) {
    terms.emplace_back(j, dense[j]);
  }
  return terms;
}

TEST(Simplex, TextbookMaximization) {
  // max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x, y >= 0
  // optimum at (1.6, 1.2), value 2.8.
  LpProblem p;
  p.add_variable(0.0, kInf, -1.0);
  p.add_variable(0.0, kInf, -1.0);
  p.add_row(terms_of({1, 2}), -kInf, 4);
  p.add_row(terms_of({3, 1}), -kInf, 6);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.8, 1e-8);
  EXPECT_NEAR(s.x[0], 1.6, 1e-8);
  EXPECT_NEAR(s.x[1], 1.2, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y  s.t.  x + y = 5, x in [0,2], y >= 0  -> any split; obj 5.
  LpProblem p;
  p.add_variable(0.0, 2.0, 1.0);
  p.add_variable(0.0, kInf, 1.0);
  p.add_row(terms_of({1, 1}), 5.0, 5.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-8);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, 1e-8);
}

TEST(Simplex, RangeRowAndNegativeBounds) {
  // min 2x - 3y  s.t.  1 <= x + y <= 3, x in [0,10], y in [-5,5].
  // Optimum: y as big as possible within row: y = 3, x = 0 -> obj -9.
  LpProblem p;
  p.add_variable(0.0, 10.0, 2.0);
  p.add_variable(-5.0, 5.0, -3.0);
  p.add_row(terms_of({1, 1}), 1.0, 3.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -9.0, 1e-8);
  EXPECT_NEAR(s.x[1], 3.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  p.add_row(terms_of({1}), 2.0, 3.0);  // x in [2,3] but x <= 1
  EXPECT_EQ(solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsInconsistentColumnBounds) {
  LpProblem p;
  p.add_variable(0.0, 5.0, 1.0);
  auto s = solve(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  p.set_col_bounds(0, 3.0, 5.0);
  EXPECT_EQ(solve(p).x.size(), 1u);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  p.add_variable(0.0, kInf, -1.0);  // min -x, x unbounded above
  p.add_variable(0.0, 1.0, 0.0);
  p.add_row(terms_of({0, 1}), -kInf, 1.0);
  EXPECT_EQ(solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, BoundedByColumnBoundsOnly) {
  // No rows at all: min -x with x <= 7 rests at the upper bound.
  LpProblem p;
  p.add_variable(2.0, 7.0, -1.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 7.0, 1e-9);
}

TEST(Simplex, FreeVariable) {
  // min x  s.t.  x >= -3 via a row (variable itself unbounded).
  LpProblem p;
  p.add_variable(-kInf, kInf, 1.0);
  p.add_row(terms_of({1}), -3.0, kInf);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);
}

TEST(Simplex, ObjectiveOffsetIncluded) {
  LpProblem p;
  p.add_variable(1.0, 2.0, 1.0);
  p.set_objective_offset(100.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 101.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LpProblem p;
  p.add_variable(0.0, kInf, -1.0);
  p.add_variable(0.0, kInf, -1.0);
  p.add_row(terms_of({1, 1}), -kInf, 1.0);
  p.add_row(terms_of({2, 2}), -kInf, 2.0);
  p.add_row(terms_of({1, 0}), -kInf, 1.0);
  p.add_row(terms_of({0, 1}), -kInf, 1.0);
  p.add_row(terms_of({3, 3}), -kInf, 3.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-8);
}

TEST(Simplex, EmptyProblemIsTriviallyOptimal) {
  LpProblem p;
  p.set_objective_offset(5.0);
  const auto s = solve(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 5.0);
}

TEST(Simplex, FixedVariables) {
  // All variables fixed; feasibility decided by the rows.
  LpProblem p;
  p.add_variable(2.0, 2.0, 1.0);
  p.add_variable(3.0, 3.0, 1.0);
  p.add_row(terms_of({1, 1}), 5.0, 5.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);

  LpProblem q;
  q.add_variable(2.0, 2.0, 1.0);
  q.add_row(terms_of({1}), 3.0, 3.0);
  EXPECT_EQ(solve(q).status, LpStatus::kInfeasible);
}

TEST(LpProblem, RejectsRowBeforeAllVariables) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  p.add_row(terms_of({1}), 0.0, 1.0);
  EXPECT_THROW(p.add_variable(0.0, 1.0, 1.0), InvalidArgument);
}

TEST(LpProblem, AddRowSortsTermsByColumn) {
  LpProblem p;
  for (int j = 0; j < 4; ++j) {
    p.add_variable(0.0, 1.0, 1.0);
  }
  p.add_row({{3, 4.0}, {0, 1.0}, {2, 3.0}}, 0.0, 1.0);
  const std::vector<Term> want = {{0, 1.0}, {2, 3.0}, {3, 4.0}};
  EXPECT_EQ(p.rows()[0].terms, want);
}

TEST(LpProblem, AddRowSumsDuplicateColumnsInInputOrder) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  p.add_variable(0.0, 1.0, 1.0);
  // (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in binary floating point, so the
  // stored value pins the summation order.
  p.add_row({{1, 0.1}, {0, 5.0}, {1, 0.2}, {1, 0.3}}, 0.0, 1.0);
  ASSERT_EQ(p.rows()[0].terms.size(), 2u);
  EXPECT_EQ(p.rows()[0].terms[0], (Term{0, 5.0}));
  EXPECT_EQ(p.rows()[0].terms[1].first, 1u);
  EXPECT_EQ(p.rows()[0].terms[1].second, (0.0 + 0.1 + 0.2) + 0.3);
  EXPECT_NE(p.rows()[0].terms[1].second, 0.1 + (0.2 + 0.3));
}

TEST(LpProblem, AddRowDropsExactZeros) {
  LpProblem p;
  for (int j = 0; j < 3; ++j) {
    p.add_variable(0.0, 1.0, 1.0);
  }
  // An explicit zero, a negative zero, and a duplicate pair that cancels.
  p.add_row({{0, 0.0}, {1, -0.0}, {2, 1.5}, {0, 2.0}, {0, -2.0}}, 0.0, 1.0);
  const std::vector<Term> want = {{2, 1.5}};
  EXPECT_EQ(p.rows()[0].terms, want);
}

TEST(LpProblem, AddRowRejectsOutOfRangeColumn) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  EXPECT_THROW(p.add_row({{1, 2.0}}, 0.0, 1.0), InvalidArgument);
  EXPECT_EQ(p.num_rows(), 0u);
}

}  // namespace
}  // namespace hslb::lp

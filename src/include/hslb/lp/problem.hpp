// Linear program container.
//
// The LP layer plays the role of CLP inside MINOTAUR: it solves the MILP /
// LP relaxations produced by the outer-approximation branch-and-bound.
// Rows are stored sparse -- only their nonzero (column, value) terms, sorted
// by column.  The master LPs are wide and sparse (a few dozen rows, about a
// thousand columns, ~5% dense: every SOS1 set spans its whole allowed node
// list, every cut and chord touches two columns), so a solve costs
// O(nonzeros) rather than O(rows x columns).
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "hslb/linalg/matrix.hpp"

namespace hslb::lp {

/// +infinity sentinel for unbounded row/column limits.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One nonzero of a constraint row: (column, coefficient).
using Term = std::pair<std::size_t, double>;

/// A linear constraint: lower <= sum(value * x[column]) <= upper.  `terms`
/// is canonical: strictly ascending columns, no exact zeros.
struct Row {
  std::vector<Term> terms;
  double lower = -kInf;
  double upper = kInf;
};

/// Minimization LP:  min c.x + offset  s.t.  row bounds and column bounds.
class LpProblem {
 public:
  LpProblem() = default;

  /// Add a variable; returns its column index.
  std::size_t add_variable(double lower, double upper, double cost);

  /// Add a constraint row over existing variables (add all variables
  /// first).  `terms` may come in any order: they are sorted by column,
  /// duplicate columns are summed in input order, and exact zeros are
  /// dropped.  A column >= num_vars() throws.  Returns the row index.
  std::size_t add_row(std::vector<Term> terms, double lower, double upper);

  std::size_t num_vars() const { return cost_.size(); }
  std::size_t num_rows() const { return rows_.size(); }

  const linalg::Vector& cost() const { return cost_; }
  double objective_offset() const { return offset_; }
  void set_objective_offset(double offset) { offset_ = offset; }
  void set_cost(std::size_t var, double cost);

  const linalg::Vector& col_lower() const { return col_lower_; }
  const linalg::Vector& col_upper() const { return col_upper_; }
  void set_col_bounds(std::size_t var, double lower, double upper);

  const std::vector<Row>& rows() const { return rows_; }

 private:
  linalg::Vector cost_;
  linalg::Vector col_lower_;
  linalg::Vector col_upper_;
  std::vector<Row> rows_;
  double offset_ = 0.0;
};

}  // namespace hslb::lp

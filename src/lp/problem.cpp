#include "hslb/lp/problem.hpp"

#include <algorithm>

#include "hslb/common/error.hpp"

namespace hslb::lp {

std::size_t LpProblem::add_variable(double lower, double upper, double cost) {
  HSLB_REQUIRE(lower <= upper, "variable bounds crossed");
  HSLB_REQUIRE(rows_.empty(), "add all variables before adding rows");
  cost_.push_back(cost);
  col_lower_.push_back(lower);
  col_upper_.push_back(upper);
  return cost_.size() - 1;
}

std::size_t LpProblem::add_row(std::vector<Term> terms, double lower,
                               double upper) {
  HSLB_REQUIRE(lower <= upper, "row bounds crossed");
  for (const Term& term : terms) {
    HSLB_REQUIRE(term.first < num_vars(), "row term column out of range");
  }
  const auto by_column = [](const Term& a, const Term& b) {
    return a.first < b.first;
  };
  // Stable, so duplicate columns keep their input order for the sum below.
  if (!std::is_sorted(terms.begin(), terms.end(), by_column)) {
    std::stable_sort(terms.begin(), terms.end(), by_column);
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < terms.size();) {
    const std::size_t col = terms[k].first;
    double sum = 0.0;
    for (; k < terms.size() && terms[k].first == col; ++k) {
      sum += terms[k].second;
    }
    if (sum != 0.0) {
      terms[kept++] = Term{col, sum};
    }
  }
  terms.resize(kept);
  rows_.push_back(Row{std::move(terms), lower, upper});
  return rows_.size() - 1;
}

void LpProblem::set_cost(std::size_t var, double cost) {
  HSLB_REQUIRE(var < num_vars(), "set_cost: variable index out of range");
  cost_[var] = cost;
}

void LpProblem::set_col_bounds(std::size_t var, double lower, double upper) {
  HSLB_REQUIRE(var < num_vars(), "set_col_bounds: index out of range");
  HSLB_REQUIRE(lower <= upper, "set_col_bounds: bounds crossed");
  col_lower_[var] = lower;
  col_upper_[var] = upper;
}

}  // namespace hslb::lp

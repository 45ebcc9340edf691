#include "hslb/linalg/least_squares.hpp"

#include <cmath>

#include "hslb/common/error.hpp"

namespace hslb::linalg {

bool householder_solve(std::size_t m, std::size_t n, std::span<double> r,
                       std::span<double> qtb, std::span<double> v,
                       std::span<double> x) {
  HSLB_REQUIRE(m >= n, "least squares needs rows >= cols");
  HSLB_REQUIRE(r.size() == m * n && qtb.size() == m && v.size() >= m &&
                   x.size() == n,
               "least squares buffer size mismatch");
  const auto at = [&](std::size_t i, std::size_t c) -> double& {
    return r[i * n + c];
  };
  bool full_rank = true;

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      alpha += at(i, k) * at(i, k);
    }
    alpha = std::sqrt(alpha);
    if (alpha < 1e-300) {
      full_rank = false;
      at(k, k) = 1e-150;  // regularize a dead column; its solution entry ~ 0
      continue;
    }
    if (at(k, k) > 0.0) {
      alpha = -alpha;
    }
    const std::span<double> hv = v.first(m - k);
    hv[0] = at(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) {
      hv[i - k] = at(i, k);
    }
    const double vnorm2 = dot(hv, hv);
    if (vnorm2 < 1e-300) {
      at(k, k) = alpha;
      continue;
    }
    // Apply H = I - 2 v v^T / (v^T v) to trailing columns and to qtb.
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        proj += hv[i - k] * at(i, c);
      }
      proj = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) {
        at(i, c) -= proj * hv[i - k];
      }
    }
    double proj = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      proj += hv[i - k] * qtb[i];
    }
    proj = 2.0 * proj / vnorm2;
    for (std::size_t i = k; i < m; ++i) {
      qtb[i] -= proj * hv[i - k];
    }
  }

  // Back substitution on the n x n upper triangle.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = qtb[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= at(ii, j) * x[j];
    }
    const double diag = at(ii, ii);
    if (std::fabs(diag) < 1e-140) {
      x[ii] = 0.0;
      full_rank = false;
    } else {
      x[ii] = sum / diag;
    }
  }
  return full_rank;
}

LeastSquaresResult solve_least_squares(const Matrix& a,
                                       std::span<const double> b) {
  HSLB_REQUIRE(b.size() == a.rows(), "least squares rhs size mismatch");
  Vector r;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    r.insert(r.end(), a.row(i).begin(), a.row(i).end());
  }
  Vector qtb(b.begin(), b.end());
  Vector v(a.rows());
  LeastSquaresResult out;
  out.x.assign(a.cols(), 0.0);
  out.full_rank = householder_solve(a.rows(), a.cols(), r, qtb, v, out.x);
  out.residual_norm = norm2(subtract(matvec(a, out.x), b));
  return out;
}

}  // namespace hslb::linalg

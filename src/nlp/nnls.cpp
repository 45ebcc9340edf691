// NNLS by exact passive-set enumeration (see nnls.hpp).
#include "hslb/nlp/nnls.hpp"

#include <algorithm>
#include <bit>

#include "hslb/common/error.hpp"
#include "hslb/linalg/least_squares.hpp"

namespace hslb::nlp {
namespace {

/// ||A x - b||_2, with `resid` as scratch.
double residual_norm(const linalg::Matrix& a, std::span<const double> b,
                     std::span<const double> x, std::span<double> resid) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    resid[i] = linalg::dot(a.row(i), x) - b[i];
  }
  return linalg::norm2(resid);
}

}  // namespace

const NnlsResult& solve_nnls(const linalg::Matrix& a,
                             std::span<const double> b, NnlsWorkspace& ws) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HSLB_REQUIRE(m == b.size(), "NNLS rhs size mismatch");
  HSLB_REQUIRE(n <= kNnlsMaxColumns,
               "NNLS enumerates at most kNnlsMaxColumns columns");
  ws.columns.resize(m * n);
  ws.qtb.resize(m);
  ws.householder.resize(m);
  ws.z.resize(n);
  ws.x.resize(n);
  ws.residual.resize(m);

  const double tol = 1e-10 * std::max(1.0, a.frobenius_norm());
  NnlsResult& out = ws.result;
  out.x.assign(n, 0.0);
  out.residual_norm = residual_norm(a, b, out.x, ws.residual);

  for (unsigned mask = 1; mask < (1u << n); ++mask) {
    const auto k = static_cast<std::size_t>(std::popcount(mask));
    if (k > m) {
      continue;
    }
    std::size_t at = 0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if ((mask >> j) & 1u) {
          ws.columns[at++] = a(i, j);
        }
      }
    }
    std::copy(b.begin(), b.end(), ws.qtb.begin());
    const std::span<double> z = std::span(ws.z).first(k);
    linalg::householder_solve(m, k, std::span(ws.columns).first(m * k),
                              ws.qtb, ws.householder, z);
    if (!std::all_of(z.begin(), z.end(), [&](double v) { return v > tol; })) {
      continue;
    }
    for (std::size_t j = 0, t = 0; j < n; ++j) {
      ws.x[j] = ((mask >> j) & 1u) ? z[t++] : 0.0;
    }
    const double norm = residual_norm(a, b, ws.x, ws.residual);
    if (norm < out.residual_norm) {
      out.residual_norm = norm;
      std::copy(ws.x.begin(), ws.x.end(), out.x.begin());
    }
  }
  return out;
}

NnlsResult solve_nnls(const linalg::Matrix& a, std::span<const double> b) {
  NnlsWorkspace ws;
  return solve_nnls(a, b, ws);
}

}  // namespace hslb::nlp

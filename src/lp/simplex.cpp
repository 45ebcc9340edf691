// Two-phase bounded-variable primal simplex over a maintained sparse
// factorization.
//
// Internal standard form: one slack per row turns `rlo <= a.x <= rup` into
// `a.x - s = 0, s in [rlo, rup]`, and Phase I adds one artificial column per
// row with a +/-1 coefficient chosen so the artificial starts nonnegative.
//
// The engine (SparseSimplex) keeps the constraint matrix in CSC form,
// factorizes the basis once per (re)start with a Markowitz sparse LU, and
// absorbs each pivot as a product-form eta update; a deterministic trigger
// (eta count, eta fill, or a refused unstable update) forces a
// refactorization.  A solve may capture its maintained factor as an
// immutable FactorSnapshot, and a child re-solve that presents matching row
// identities adopts it -- extending the parent's factor by a bordered
// block for rows the parent did not have -- instead of paying a cold
// factorization.  See DESIGN.md section 15.  Optimality is checked
// independently of all of this by lp::certify (certify.hpp).
//
// Warm starts (resolve_from_basis) reuse a captured basis when it is still
// complete and factorizable.  If the basis is also primal feasible, Phase I
// is skipped outright; if not (the branch-and-bound norm: a child's bound
// change or a new cut exists precisely to cut off the parent's optimum), a
// dual-simplex repair phase pivots the violated basics out until the basis
// is primal feasible again, and only then does Phase II run.  The repair
// phase needs no dual-feasibility precondition for correctness: any valid
// basis change sequence that ends primal feasible is a legitimate Phase-II
// start, and its iteration cap sends everything else to the cold path.
#include "hslb/lp/simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "hslb/common/error.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/linalg/sparse.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::lp {

/// Tag bit marking a FactorSnapshot basis member as a row slack (the low
/// bits then hold the row key); structural members store the column index.
constexpr std::uint64_t kSlackBit = 1ULL << 63;

/// Immutable capture of a maintained factorization: the root sparse LU (or
/// a reference to the parent snapshot plus the bordered extension that
/// turned the parent's basis into this one), the eta updates accumulated at
/// this level, and enough row identity (keys + coefficient signatures) for
/// a later solve to validate adoption.  Snapshots form a chain via
/// `parent`; shared_ptr keeps every level alive and the whole object is
/// deep-value otherwise, so concurrent readers on different threads are
/// safe.
class FactorSnapshot {
 public:
  struct BorderRow {
    int row = 0;                                 ///< row index at this level
    double slack_coeff = -1.0;                   ///< the row's basic slack
    std::vector<std::pair<int, double>> terms;   ///< (parent position, coeff)
  };

  FactorRef parent;                 ///< null for a root snapshot
  linalg::SparseLu lu;              ///< root level only
  std::vector<int> old_rows;        ///< parent row i -> row at this level
  std::vector<BorderRow> border;    ///< rows new at this level
  linalg::EtaFile etas;             ///< updates accumulated at this level
  int m = 0;                        ///< rows at this level
  int levels = 1;                   ///< chain depth including this level
  long total_etas = 0;              ///< eta count across the whole chain
  long base_nnz = 0;                ///< root factor fill
  std::size_t n = 0;                ///< structural columns when captured
  std::vector<std::uint64_t> row_keys;   ///< caller-chosen row identifiers
  std::vector<std::uint64_t> row_sigs;   ///< coefficient signature per row
  std::vector<std::uint64_t> basis_ids;  ///< basic member per position
};

namespace {

/// Bound/row violation tolerance.
constexpr double kFeasibilityTol = 1e-7;
/// Reduced-cost tolerance.
constexpr double kOptimalityTol = 1e-8;
/// Pivot cap across both phases.
constexpr int kMaxIterations = 50000;
/// Maximum depth of inherited factor levels (parent snapshots
/// + borders) before a handoff is declined in favor of a fresh
/// factorization.
constexpr int kMaxFactorLevels = 4;

using linalg::EtaFile;
using linalg::SparseColumns;
using linalg::SparseLu;
using linalg::SparseLuOptions;
using linalg::Vector;

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFree, kFixed };

/// How a warm basis was absorbed into the working state.
enum class WarmMode {
  kCold,        ///< no usable warm data; all-artificial start
  kReuse,       ///< warm basis primal feasible; Phase I skipped
  kDualRepair,  ///< warm basis repaired by dual pivots; Phase I skipped
};

/// FNV-1a over the bytes of a row's (column, coefficient bits) nonzero
/// terms: the signature that lets factor adoption detect a row whose key
/// survived but whose coefficients changed (chord rows are rebuilt against
/// the node's bounds under a stable key) or moved to another column.
std::uint64_t row_signature(std::span<const Term> terms) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [col, value] : terms) {
    mix(static_cast<std::uint64_t>(col));
    mix(std::bit_cast<std::uint64_t>(value));
  }
  return h;
}

/// The engine's basis representation: either a factorization it owns
/// (own mode: fresh SparseLu of the current basis + a live eta file), or an
/// inherited FactorSnapshot chain extended by a live bordered block and a
/// live eta file.  Either way the chain is flattened into `levels_`
/// (root first) and FTRAN/BTRAN run iteratively over it:
///
///   B_l = [[B_{l-1}, 0], [C_l, S_l]]  (after the row permutation old_rows)
///
/// is block lower triangular, so FTRAN extracts the parent subsystem on the
/// way down, solves the root, and back-substitutes each border block (then
/// that level's etas) on the way up; BTRAN runs the mirror image.  Two
/// buffer pools with per-level offsets (bufA_ row-space, bufB_
/// position-space) keep the sweeps allocation-free.
class MaintainedFactor {
 public:
  /// Fresh factorization of the basis columns; drops any inherited chain.
  /// Retains own_lu_/etas_ capacity across calls.
  bool refactorize(const SparseColumns& cols, const SparseLuOptions& opts) {
    inherited_.reset();
    old_rows_.clear();
    border_.clear();
    etas_.clear();
    levels_.clear();  // never leave pointers into a released chain
    own_mode_ = true;
    m_ = cols.cols();
    valid_ = own_lu_.factorize(cols, opts);
    if (valid_) {
      rebuild_levels();
    }
    return valid_;
  }

  /// Adopt a parent snapshot extended by a live bordered block mapping it
  /// onto the current problem's m rows.  Caller has validated row identity.
  void adopt(FactorRef snap, std::vector<int> old_rows,
             std::vector<FactorSnapshot::BorderRow> border, int m) {
    inherited_ = std::move(snap);
    old_rows_ = std::move(old_rows);
    border_ = std::move(border);
    etas_.clear();
    own_mode_ = false;
    m_ = m;
    valid_ = true;
    rebuild_levels();
  }

  /// Invalidate and release any inherited snapshot chain (so a pooled
  /// workspace does not pin dead parents between solves).
  void release() {
    inherited_.reset();
    old_rows_.clear();
    border_.clear();
    levels_.clear();
    valid_ = false;
  }

  bool valid() const { return valid_; }
  int rows() const { return m_; }
  int depth() const { return static_cast<int>(levels_.size()); }

  /// Append a product-form update at position r (w = FTRAN image of the
  /// entering column).  False => unstable pivot, caller must refactorize.
  bool update(std::span<const double> w, int r, double stability_tol) {
    return etas_.append(w, r, stability_tol);
  }

  long total_etas() const {
    long t = 0;
    for (const Level& l : levels_) {
      t += l.etas->count();
    }
    return t;
  }

  long eta_entries() const {
    long t = 0;
    for (const Level& l : levels_) {
      t += l.etas->nnz();
    }
    return t;
  }

  long base_nnz() const {
    return levels_.empty() ? 0 : levels_.front().lu->factor_nnz();
  }

  /// Solve B x = rhs; `rhs` indexed by row, `out` by basis position.
  /// Aliasing rhs/out is allowed (both are staged through the buffers).
  void ftran(std::span<const double> rhs, std::span<double> out) {
    const int levels = static_cast<int>(levels_.size());
    const int top = levels - 1;
    std::copy(rhs.begin(), rhs.end(), bufA_.begin() + offsets_[top]);
    // Down sweep: extract each parent's rows.
    for (int l = top; l >= 1; --l) {
      const std::vector<int>& om = *levels_[l].old_rows;
      const double* a = bufA_.data() + offsets_[l];
      double* ap = bufA_.data() + offsets_[l - 1];
      const int pm = levels_[l - 1].m;
      for (int i = 0; i < pm; ++i) {
        ap[i] = a[om[i]];
      }
    }
    // Root solve + root etas.
    {
      const Level& root = levels_[0];
      const std::size_t rm = static_cast<std::size_t>(root.m);
      std::span<double> a0(bufA_.data() + offsets_[0], rm);
      std::span<double> b0(bufB_.data() + offsets_[0], rm);
      root.lu->ftran(a0, b0, std::span<double>(work_.data(), rm));
      root.etas->apply_ftran(b0);
    }
    // Up sweep: back-substitute each border block, then that level's etas.
    for (int l = 1; l < levels; ++l) {
      const Level& lev = levels_[l];
      const int pm = levels_[l - 1].m;
      const double* bp = bufB_.data() + offsets_[l - 1];
      double* b = bufB_.data() + offsets_[l];
      const double* a = bufA_.data() + offsets_[l];
      std::copy(bp, bp + pm, b);
      const auto& border = *lev.border;
      for (std::size_t j = 0; j < border.size(); ++j) {
        const FactorSnapshot::BorderRow& br = border[j];
        double v = a[br.row];
        for (const auto& [p, c] : br.terms) {
          v -= c * b[p];
        }
        b[pm + static_cast<int>(j)] = v / br.slack_coeff;
      }
      lev.etas->apply_ftran(
          std::span<double>(b, static_cast<std::size_t>(lev.m)));
    }
    const double* bt = bufB_.data() + offsets_[top];
    std::copy(bt, bt + m_, out.begin());
  }

  /// Solve B^T y = rhs; `rhs` indexed by basis position, `out` by row.
  void btran(std::span<const double> rhs, std::span<double> out) {
    const int levels = static_cast<int>(levels_.size());
    const int top = levels - 1;
    std::copy(rhs.begin(), rhs.end(), bufB_.begin() + offsets_[top]);
    // Down sweep: undo this level's etas, peel the border block (storing
    // each border dual in place at its tail slot for the up sweep), and
    // hand the modified prefix to the parent.
    for (int l = top; l >= 1; --l) {
      const Level& lev = levels_[l];
      const int pm = levels_[l - 1].m;
      double* b = bufB_.data() + offsets_[l];
      double* bp = bufB_.data() + offsets_[l - 1];
      lev.etas->apply_btran(
          std::span<double>(b, static_cast<std::size_t>(lev.m)));
      const auto& border = *lev.border;
      for (std::size_t j = 0; j < border.size(); ++j) {
        const FactorSnapshot::BorderRow& br = border[j];
        const double yj = b[pm + static_cast<int>(j)] / br.slack_coeff;
        b[pm + static_cast<int>(j)] = yj;
        for (const auto& [p, c] : br.terms) {
          b[p] -= c * yj;
        }
      }
      std::copy(b, b + pm, bp);
    }
    // Root: etas transposed, then the factor's BTRAN.
    {
      const Level& root = levels_[0];
      const std::size_t rm = static_cast<std::size_t>(root.m);
      std::span<double> b0(bufB_.data() + offsets_[0], rm);
      std::span<double> a0(bufA_.data() + offsets_[0], rm);
      root.etas->apply_btran(b0);
      root.lu->btran(b0, a0, std::span<double>(work_.data(), rm));
    }
    // Up sweep: scatter parent duals through old_rows, border duals to
    // their own rows.
    for (int l = 1; l < levels; ++l) {
      const Level& lev = levels_[l];
      const int pm = levels_[l - 1].m;
      const std::vector<int>& om = *lev.old_rows;
      double* a = bufA_.data() + offsets_[l];
      const double* ap = bufA_.data() + offsets_[l - 1];
      const double* b = bufB_.data() + offsets_[l];
      for (int i = 0; i < pm; ++i) {
        a[om[i]] = ap[i];
      }
      const auto& border = *lev.border;
      for (std::size_t j = 0; j < border.size(); ++j) {
        a[border[j].row] = b[pm + static_cast<int>(j)];
      }
    }
    const double* at = bufA_.data() + offsets_[top];
    std::copy(at, at + m_, out.begin());
  }

  /// Package the current state as an immutable snapshot.  The live pieces
  /// are copied (the workspace keeps its capacity); an inherited chain is
  /// shared by reference.
  FactorRef capture(std::size_t n, std::span<const std::uint64_t> row_keys,
                    std::vector<std::uint64_t> row_sigs,
                    std::vector<std::uint64_t> basis_ids) const {
    auto s = std::make_shared<FactorSnapshot>();
    s->m = m_;
    s->n = n;
    s->row_keys.assign(row_keys.begin(), row_keys.end());
    s->row_sigs = std::move(row_sigs);
    s->basis_ids = std::move(basis_ids);
    s->etas = etas_;
    if (own_mode_) {
      s->lu = own_lu_;
      s->levels = 1;
      s->total_etas = s->etas.count();
      s->base_nnz = own_lu_.factor_nnz();
    } else {
      s->parent = inherited_;
      s->old_rows = old_rows_;
      s->border = border_;
      s->levels = inherited_->levels + 1;
      s->total_etas = inherited_->total_etas + s->etas.count();
      s->base_nnz = inherited_->base_nnz;
    }
    return s;
  }

 private:
  struct Level {
    const SparseLu* lu = nullptr;  // root level only
    const std::vector<int>* old_rows = nullptr;
    const std::vector<FactorSnapshot::BorderRow>* border = nullptr;
    const EtaFile* etas = nullptr;
    int m = 0;
  };

  void rebuild_levels() {
    levels_.clear();
    if (own_mode_) {
      levels_.push_back(Level{&own_lu_, nullptr, nullptr, &etas_, m_});
    } else {
      // Walk the snapshot chain down to the root, then emit root-first.
      chain_.clear();
      for (const FactorSnapshot* s = inherited_.get(); s != nullptr;
           s = s->parent.get()) {
        chain_.push_back(s);
      }
      for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
        const FactorSnapshot* s = *it;
        Level l;
        l.etas = &s->etas;
        l.m = s->m;
        if (s->parent) {
          l.old_rows = &s->old_rows;
          l.border = &s->border;
        } else {
          l.lu = &s->lu;
        }
        levels_.push_back(l);
      }
      levels_.push_back(Level{nullptr, &old_rows_, &border_, &etas_, m_});
    }
    offsets_.resize(levels_.size());
    std::size_t total = 0;
    std::size_t max_m = 0;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      offsets_[i] = static_cast<std::ptrdiff_t>(total);
      total += static_cast<std::size_t>(levels_[i].m);
      max_m = std::max(max_m, static_cast<std::size_t>(levels_[i].m));
    }
    bufA_.resize(total);
    bufB_.resize(total);
    work_.resize(max_m);
  }

  bool own_mode_ = true;
  bool valid_ = false;
  int m_ = 0;
  SparseLu own_lu_;
  FactorRef inherited_;
  std::vector<int> old_rows_;
  std::vector<FactorSnapshot::BorderRow> border_;
  EtaFile etas_;
  std::vector<Level> levels_;
  std::vector<const FactorSnapshot*> chain_;
  std::vector<std::ptrdiff_t> offsets_;
  std::vector<double> bufA_, bufB_, work_;
};

/// Per-thread scratch for the engine.  Branch-and-bound issues
/// thousands of tiny LP solves per second per worker; reusing these
/// buffers (vectors keep capacity, the eta file keeps its pools, the CSC
/// builders keep their arrays) removes every steady-state heap allocation
/// from the solve path.  `in_use` guards reentrancy: a nested solve on the
/// same thread falls back to a heap-allocated private workspace.
struct LpWorkspace {
  bool in_use = false;
  Vector lower, upper, value, cost, phase1_cost, y, w, rhs, cb;
  std::vector<VarStatus> status;
  std::vector<std::size_t> basis;
  Vector art_sign;
  SparseColumns csc;         // structural columns of the current problem
  std::vector<int> col_next;   // CSC build: per-column fill cursor
  std::vector<int> row_of;     // CSC build: row index per entry
  Vector value_of;             // CSC build: value per entry
  std::vector<int> basis_pos;  // factor adoption: column -> basis position
  SparseColumns basis_cols;  // basis columns fed to the factorization
  MaintainedFactor factor;
};

LpWorkspace& thread_workspace() {
  thread_local LpWorkspace ws;
  return ws;
}

/// Revised simplex over a maintained sparse factorization.  Pricing is
/// Dantzig's rule (largest |reduced cost|, smallest index on ties) with a
/// switch to Bland's rule (smallest eligible index) once a phase exceeds
/// 5 (n + 3m) + 200 pivots; the ratio test takes the smallest step and
/// prefers the largest pivot magnitude among near-ties.  Basic values are
/// maintained incrementally and recomputed through the factor at every
/// factorization point and on optimal exit.
class SparseSimplex {
 public:
  SparseSimplex(const LpProblem& problem, const SimplexOptions& options,
                LpWorkspace& ws)
      : problem_(problem), opts_(options), ws_(ws) {
    n_ = problem.num_vars();
    m_ = problem.num_rows();
    total_ = n_ + 2 * m_;  // structural | slack | artificial

    ws_.lower.assign(total_, -kInf);
    ws_.upper.assign(total_, kInf);
    for (std::size_t j = 0; j < n_; ++j) {
      ws_.lower[j] = problem.col_lower()[j];
      ws_.upper[j] = problem.col_upper()[j];
    }
    for (std::size_t i = 0; i < m_; ++i) {
      ws_.lower[n_ + i] = problem.rows()[i].lower;
      ws_.upper[n_ + i] = problem.rows()[i].upper;
      ws_.lower[n_ + m_ + i] = 0.0;  // artificials
    }
    ws_.art_sign.assign(m_, 1.0);
    ws_.status.assign(total_, VarStatus::kAtLower);
    ws_.value.assign(total_, 0.0);
    ws_.y.assign(m_, 0.0);
    ws_.w.assign(m_, 0.0);
    ws_.rhs.assign(m_, 0.0);
    ws_.cb.assign(m_, 0.0);
    build_csc();
    for (std::size_t j = 0; j < total_; ++j) {
      init_nonbasic(j);
    }
    init_basis();
  }

  LpSolution run(const Basis* warm, const WarmFactor* wf) {
    LpSolution out;

    ws_.cost.assign(total_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      ws_.cost[j] = problem_.cost()[j];
    }

    WarmMode mode = WarmMode::kCold;
    if (warm != nullptr && !warm->empty()) {
      mode = prepare_warm(*warm, wf, ws_.cost, out);
    }
    out.warm_used = mode != WarmMode::kCold;
    out.warm_phase1_skipped = mode != WarmMode::kCold;

    if (mode == WarmMode::kCold) {
      // The all-artificial basis is diag(+/-1): its factorization cannot
      // fail unless something is structurally broken, in which case the
      // caller's cold-retry assertion fires.
      if (!factorize_current()) {
        numeric_failure_ = true;
        out.status = LpStatus::kIterationLimit;
        finalize(out);
        return out;
      }
      refresh_basics();
      // ---- Phase I: minimize the sum of artificial values. ----
      ws_.phase1_cost.assign(total_, 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.phase1_cost[n_ + m_ + i] = 1.0;
      }
      const LpStatus st1 = optimize(ws_.phase1_cost);
      out.phase1_iterations = iterations_;
      if (st1 == LpStatus::kIterationLimit) {
        out.status = st1;
        finalize(out);
        return out;
      }
      double infeasibility = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        infeasibility += ws_.value[n_ + m_ + i];
      }
      if (infeasibility >
          kFeasibilityTol * std::max<double>(1.0, static_cast<double>(m_))) {
        out.status = LpStatus::kInfeasible;
        finalize(out);
        return out;
      }
    }

    // Freeze artificials at zero for Phase II.
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t a = n_ + m_ + i;
      ws_.lower[a] = ws_.upper[a] = 0.0;
      if (ws_.status[a] != VarStatus::kBasic) {
        ws_.status[a] = VarStatus::kFixed;
        ws_.value[a] = 0.0;
      }
    }

    // ---- Phase II: the real objective. ----
    const LpStatus st2 = optimize(ws_.cost);
    out.status = st2;
    finalize(out);
    if (st2 == LpStatus::kOptimal) {
      out.x.assign(ws_.value.begin(),
                   ws_.value.begin() + static_cast<std::ptrdiff_t>(n_));
      out.objective = problem_.objective_offset();
      for (std::size_t j = 0; j < n_; ++j) {
        out.objective += problem_.cost()[j] * out.x[j];
      }
      if (opts_.capture_basis) {
        capture_basis(out.basis);
      }
      if (opts_.capture_factor && wf != nullptr &&
          wf->row_keys.size() == m_ && ws_.factor.valid()) {
        capture_factor(out, wf->row_keys);
      }
    }
    ws_.factor.release();  // drop inherited refs; keep buffer capacity
    return out;
  }

  bool numeric_failure() const { return numeric_failure_; }

 private:
  void finalize(LpSolution& out) const {
    out.iterations = iterations_;
    out.factorizations = factorizations_;
    out.refactorizations = refactorizations_;
    out.eta_updates = eta_updates_;
    out.bound_flips = bound_flips_;
    out.factor_inherited = factor_inherited_;
    out.factor_seconds = factor_seconds_;
    out.update_seconds = update_seconds_;
  }

  /// CSC of the structural columns, built once per solve by transposing
  /// the sparse rows (a counting sort over columns, rows visited in
  /// ascending order, so entries within a column stay in ascending row
  /// order).  Slack and artificial columns are singletons and stay
  /// implicit, so the pricing loop and the basis-column gather handle them
  /// inline (and an art_sign flip never invalidates this matrix).
  void build_csc() {
    std::vector<int>& next = ws_.col_next;
    next.assign(n_ + 1, 0);
    for (const Row& row : problem_.rows()) {
      for (const Term& term : row.terms) {
        ++next[term.first + 1];
      }
    }
    for (std::size_t j = 0; j < n_; ++j) {
      next[j + 1] += next[j];
    }
    const auto nnz = static_cast<std::size_t>(next[n_]);
    ws_.row_of.resize(nnz);
    ws_.value_of.resize(nnz);
    for (std::size_t i = 0; i < m_; ++i) {
      for (const auto& [col, value] : problem_.rows()[i].terms) {
        const auto k = static_cast<std::size_t>(next[col]++);
        ws_.row_of[k] = static_cast<int>(i);
        ws_.value_of[k] = value;
      }
    }
    // next[j] now ends column j, i.e. starts column j + 1.
    ws_.csc.reset(static_cast<int>(m_));
    std::size_t k = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      for (const auto end = static_cast<std::size_t>(next[j]); k < end; ++k) {
        ws_.csc.add_entry(ws_.row_of[k], ws_.value_of[k]);
      }
      ws_.csc.finish_column();
    }
  }

  void init_nonbasic(std::size_t j) {
    const double lo = ws_.lower[j];
    const double hi = ws_.upper[j];
    if (lo == hi) {
      ws_.status[j] = VarStatus::kFixed;
      ws_.value[j] = lo;
    } else if (std::isfinite(lo) && std::isfinite(hi)) {
      const bool lower_closer = std::fabs(lo) <= std::fabs(hi);
      ws_.status[j] = lower_closer ? VarStatus::kAtLower : VarStatus::kAtUpper;
      ws_.value[j] = lower_closer ? lo : hi;
    } else if (std::isfinite(lo)) {
      ws_.status[j] = VarStatus::kAtLower;
      ws_.value[j] = lo;
    } else if (std::isfinite(hi)) {
      ws_.status[j] = VarStatus::kAtUpper;
      ws_.value[j] = hi;
    } else {
      ws_.status[j] = VarStatus::kFree;
      ws_.value[j] = 0.0;
    }
  }

  /// Choose artificial signs so every artificial starts >= 0, and make the
  /// artificials the initial basis.  Row residuals accumulate through the
  /// CSC column by column, so each row's sum still runs in ascending column
  /// order (a zero resting value adds nothing and is skipped).
  void init_basis() {
    ws_.basis.resize(m_);
    std::fill(ws_.rhs.begin(), ws_.rhs.end(), 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      const double x = ws_.value[j];
      if (x == 0.0) {
        continue;
      }
      const auto idx = ws_.csc.col_index(static_cast<int>(j));
      const auto val = ws_.csc.col_value(static_cast<int>(j));
      for (std::size_t k = 0; k < idx.size(); ++k) {
        ws_.rhs[static_cast<std::size_t>(idx[k])] += val[k] * x;
      }
    }
    for (std::size_t i = 0; i < m_; ++i) {
      double v = ws_.rhs[i];
      v -= ws_.value[n_ + i];  // slack column is -1
      ws_.art_sign[i] = v > 0.0 ? -1.0 : 1.0;
      const std::size_t a = n_ + m_ + i;
      ws_.basis[i] = a;
      ws_.status[a] = VarStatus::kBasic;
      ws_.value[a] = std::fabs(v);
    }
  }

  /// Gather column j of [A | -I | G] into ws_.rhs (dense by row).
  void gather_column(std::size_t j) {
    std::fill(ws_.rhs.begin(), ws_.rhs.end(), 0.0);
    if (j < n_) {
      const auto idx = ws_.csc.col_index(static_cast<int>(j));
      const auto val = ws_.csc.col_value(static_cast<int>(j));
      for (std::size_t k = 0; k < idx.size(); ++k) {
        ws_.rhs[static_cast<std::size_t>(idx[k])] = val[k];
      }
    } else if (j < n_ + m_) {
      ws_.rhs[j - n_] = -1.0;
    } else {
      ws_.rhs[j - n_ - m_] = ws_.art_sign[j - n_ - m_];
    }
  }

  /// Fresh sparse LU of the current basis.  Relative pivot threshold 0.1,
  /// absolute 1e-14: every column magnitude passes the relative threshold,
  /// so a false "singular" verdict needs the whole column below 1e-14 -- at
  /// which point the basis is singular for every practical purpose.
  bool factorize_current() {
    common::WallTimer timer;
    ws_.basis_cols.reset(static_cast<int>(m_));
    for (std::size_t k = 0; k < m_; ++k) {
      const std::size_t j = ws_.basis[k];
      if (j < n_) {
        const auto idx = ws_.csc.col_index(static_cast<int>(j));
        const auto val = ws_.csc.col_value(static_cast<int>(j));
        for (std::size_t e = 0; e < idx.size(); ++e) {
          ws_.basis_cols.add_entry(idx[e], val[e]);
        }
      } else if (j < n_ + m_) {
        ws_.basis_cols.add_entry(static_cast<int>(j - n_), -1.0);
      } else {
        ws_.basis_cols.add_entry(static_cast<int>(j - n_ - m_),
                                 ws_.art_sign[j - n_ - m_]);
      }
      ws_.basis_cols.finish_column();
    }
    const bool ok =
        ws_.factor.refactorize(ws_.basis_cols, SparseLuOptions{0.1, 1e-14});
    factor_seconds_ += timer.seconds();
    if (ok) {
      ++factorizations_;
    }
    return ok;
  }

  /// Recompute basic values from the nonbasic resting values through the
  /// maintained factor: B x_B = -N x_N.
  void refresh_basics() {
    std::fill(ws_.rhs.begin(), ws_.rhs.end(), 0.0);
    for (std::size_t j = 0; j < total_; ++j) {
      if (ws_.status[j] == VarStatus::kBasic || ws_.value[j] == 0.0) {
        continue;
      }
      const double v = ws_.value[j];
      if (j < n_) {
        const auto idx = ws_.csc.col_index(static_cast<int>(j));
        const auto val = ws_.csc.col_value(static_cast<int>(j));
        for (std::size_t k = 0; k < idx.size(); ++k) {
          ws_.rhs[static_cast<std::size_t>(idx[k])] -= val[k] * v;
        }
      } else if (j < n_ + m_) {
        ws_.rhs[j - n_] += v;  // -(-1 * v)
      } else {
        ws_.rhs[j - n_ - m_] -= ws_.art_sign[j - n_ - m_] * v;
      }
    }
    ws_.factor.ftran(ws_.rhs, ws_.w);
    for (std::size_t i = 0; i < m_; ++i) {
      ws_.value[ws_.basis[i]] = ws_.w[i];
    }
  }

  /// Absolute tolerance: Phase II never pulls a basic back inside its
  /// bound (the ratio test only blocks further excursions), so any slack
  /// granted here survives to the reported vertex.  A relative tolerance
  /// was measured to let values ~1e4 sit ~1e-3 outside their bounds,
  /// yielding super-optimal LP bounds that stall branch-and-bound pruning.
  bool basics_feasible() const {
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t bj = ws_.basis[i];
      const double v = ws_.value[bj];
      if (v < ws_.lower[bj] - kFeasibilityTol ||
          v > ws_.upper[bj] + kFeasibilityTol) {
        return false;
      }
    }
    return true;
  }

  /// Absorb a pivot at basis position r: try a product-form update first
  /// (w must be the FTRAN image of the new basic column through the
  /// current factor); on a refused (unstable) eta, or once the
  /// deterministic budget trips -- eta count across the whole stack, or
  /// eta fill beyond eta_fill_factor x base fill plus a per-row allowance
  /// -- rebuild the factorization of the *new* basis.  Returns false only
  /// when that rebuild finds the basis singular.
  bool pivot_factor_update(int r) {
    common::WallTimer timer;
    const bool updated = ws_.factor.update(ws_.w, r, opts_.eta_stability_tol);
    update_seconds_ += timer.seconds();
    if (updated) {
      ++eta_updates_;
      const long allowance = 4 * static_cast<long>(m_);
      const long fill_budget =
          static_cast<long>(opts_.eta_fill_factor *
                            static_cast<double>(ws_.factor.base_nnz())) +
          allowance;
      if (ws_.factor.total_etas() < opts_.refactor_interval &&
          ws_.factor.eta_entries() < fill_budget) {
        return true;
      }
    }
    if (!factorize_current()) {
      return false;
    }
    ++refactorizations_;
    refresh_basics();
    return true;
  }

  /// Validate and adopt an inherited snapshot: every snapshot row must
  /// still exist (by key) with byte-identical coefficients (by signature),
  /// the remapped snapshot basis plus the new rows' slacks must equal the
  /// warm candidate set, and the stack must have eta/depth headroom.
  /// Anything else declines -- a declined handoff costs one fresh
  /// factorization, an invalid accepted one would corrupt the solve.
  bool try_adopt(const FactorSnapshot& snap,
                 std::span<const std::uint64_t> keys,
                 const std::vector<std::size_t>& candidates) {
    if (snap.n != n_ || keys.size() != m_) {
      return false;
    }
    if (snap.levels + 1 > kMaxFactorLevels) {
      return false;
    }
    if (snap.total_etas >= opts_.refactor_interval) {
      return false;
    }
    const std::size_t pm = static_cast<std::size_t>(snap.m);
    if (pm > m_) {
      return false;
    }
    std::unordered_map<std::uint64_t, int> row_of;
    row_of.reserve(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      row_of.emplace(keys[i], static_cast<int>(i));  // first wins
    }
    std::vector<char> matched(m_, 0);
    std::vector<int> old_rows(pm);
    for (std::size_t i = 0; i < pm; ++i) {
      const auto it = row_of.find(snap.row_keys[i]);
      if (it == row_of.end()) {
        return false;
      }
      const int t = it->second;
      if (matched[static_cast<std::size_t>(t)]) {
        return false;
      }
      if (row_signature(problem_.rows()[static_cast<std::size_t>(t)].terms) !=
          snap.row_sigs[i]) {
        return false;
      }
      matched[static_cast<std::size_t>(t)] = 1;
      old_rows[i] = t;
    }
    // The expected basic set: snapshot members remapped onto this problem,
    // plus the basic slack of every border (new) row.
    std::vector<char> expected(n_ + m_, 0);
    for (std::size_t p = 0; p < pm; ++p) {
      const std::uint64_t id = snap.basis_ids[p];
      if (id & kSlackBit) {
        const auto it = row_of.find(id & ~kSlackBit);
        if (it == row_of.end() ||
            !matched[static_cast<std::size_t>(it->second)]) {
          return false;
        }
        expected[n_ + static_cast<std::size_t>(it->second)] = 1;
      } else {
        expected[static_cast<std::size_t>(id)] = 1;
      }
    }
    // Border terms: each new row's nonzeros on the snapshot's structural
    // basics, keyed by basis position and sorted by it, so FTRAN/BTRAN sum
    // them in position order.  (A slack is a singleton in its own, matched,
    // row and never appears in a border row.)
    std::vector<int>& pos_of = ws_.basis_pos;
    pos_of.assign(n_, -1);
    for (std::size_t p = 0; p < pm; ++p) {
      const std::uint64_t id = snap.basis_ids[p];
      if (!(id & kSlackBit)) {
        pos_of[static_cast<std::size_t>(id)] = static_cast<int>(p);
      }
    }
    std::vector<FactorSnapshot::BorderRow> border;
    border.reserve(m_ - pm);
    for (std::size_t t = 0; t < m_; ++t) {
      if (matched[t]) {
        continue;
      }
      FactorSnapshot::BorderRow br;
      br.row = static_cast<int>(t);
      br.slack_coeff = -1.0;
      for (const auto& [col, value] : problem_.rows()[t].terms) {
        if (pos_of[col] >= 0) {
          br.terms.emplace_back(pos_of[col], value);
        }
      }
      std::sort(br.terms.begin(), br.terms.end());
      expected[n_ + t] = 1;
      border.push_back(std::move(br));
    }
    // candidates has exactly m_ distinct members (the caller checked), so
    // subset + equal cardinality => set equality.
    for (const std::size_t c : candidates) {
      if (!expected[c]) {
        return false;
      }
    }
    // Adopt: basis order becomes snapshot positions then border slacks.
    for (std::size_t p = 0; p < pm; ++p) {
      const std::uint64_t id = snap.basis_ids[p];
      ws_.basis[p] = (id & kSlackBit)
                         ? n_ + static_cast<std::size_t>(
                                    row_of.find(id & ~kSlackBit)->second)
                         : static_cast<std::size_t>(id);
    }
    for (std::size_t j = 0; j < border.size(); ++j) {
      ws_.basis[pm + j] = n_ + static_cast<std::size_t>(border[j].row);
    }
    // The snapshot chain is shared by reference; only the border extension
    // is fresh state.
    FactorRef keep;
    if (wf_keepalive_ != nullptr) {
      keep = *wf_keepalive_;
    }
    ws_.factor.adopt(std::move(keep), std::move(old_rows), std::move(border),
                     static_cast<int>(m_));
    return true;
  }

  /// Absorb a warm basis.  The warm basic set must be complete and
  /// factorizable; if it is also primal feasible, Phase I is skipped
  /// outright (kReuse), and if not, the dual repair pivots the violated
  /// basics out (kDualRepair).  On any failure the working state is reset
  /// to the cold all-artificial start.  (A "crash" start that seeded
  /// Phase I from the warm nonbasic placements was measured to *increase*
  /// Phase I pivots by ~50% on branch-and-bound: after branching, the
  /// parent's resting point is exactly the vertex the child excludes.)
  WarmMode prepare_warm(const Basis& warm, const WarmFactor* wf,
                        const Vector& phase2_cost, LpSolution& out) {
    if (warm.cols.size() != n_ || warm.row_slacks.size() != m_) {
      return WarmMode::kCold;
    }
    std::vector<std::size_t> candidates;
    candidates.reserve(m_);
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      const BasisStatus s =
          j < n_ ? warm.cols[j] : warm.row_slacks[j - n_];
      switch (s) {
        case BasisStatus::kBasic:
          candidates.push_back(j);
          break;
        case BasisStatus::kAtLower:
          if (std::isfinite(ws_.lower[j]) && ws_.lower[j] != ws_.upper[j]) {
            ws_.status[j] = VarStatus::kAtLower;
            ws_.value[j] = ws_.lower[j];
          }
          break;
        case BasisStatus::kAtUpper:
          if (std::isfinite(ws_.upper[j]) && ws_.lower[j] != ws_.upper[j]) {
            ws_.status[j] = VarStatus::kAtUpper;
            ws_.value[j] = ws_.upper[j];
          }
          break;
        case BasisStatus::kFree:
          if (!std::isfinite(ws_.lower[j]) && !std::isfinite(ws_.upper[j])) {
            ws_.status[j] = VarStatus::kFree;
            ws_.value[j] = 0.0;
          }
          break;
        case BasisStatus::kFixed:
        case BasisStatus::kUnset:
          break;  // keep the constructor's resting placement
      }
    }

    if (candidates.size() == m_) {
      ws_.basis = candidates;
      for (const std::size_t c : candidates) {
        ws_.status[c] = VarStatus::kBasic;
      }
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t a = n_ + m_ + i;
        ws_.status[a] = VarStatus::kAtLower;
        ws_.value[a] = 0.0;
      }
      // One factorization serves both FTRAN and BTRAN, obtained either by
      // adopting the parent's snapshot or by factoring fresh.
      bool have_factor = false;
      bool inherited = false;
      if (wf != nullptr && wf->snapshot != nullptr &&
          wf->row_keys.size() == m_) {
        wf_keepalive_ = &wf->snapshot;
        inherited = try_adopt(*wf->snapshot, wf->row_keys, candidates);
        wf_keepalive_ = nullptr;
        have_factor = inherited;
      }
      if (!have_factor) {
        have_factor = factorize_current();
      }
      if (have_factor) {
        refresh_basics();
        if (basics_feasible()) {
          factor_inherited_ = inherited;
          return WarmMode::kReuse;
        }
        if (dual_repair(phase2_cost)) {
          factor_inherited_ = inherited;
          return WarmMode::kDualRepair;
        }
      }
    }
    // No reuse: rebuild the cold start from scratch.
    for (std::size_t j = 0; j < total_; ++j) {
      init_nonbasic(j);
    }
    init_basis();
    ws_.factor.release();
    (void)out;
    return WarmMode::kCold;
  }

  /// Dual-simplex repair for the warm path: starting from a complete,
  /// factorizable basis whose basic values violate their bounds, pivot the
  /// most-violated basic out to its nearest bound and bring in the nonbasic
  /// column winning the dual ratio test (|reduced cost| / |pivot|, priced
  /// against the Phase-II objective), until every basic value is within
  /// bounds.  Correctness does not rest on the pricing: any valid basis
  /// change sequence that ends primal feasible is a legitimate Phase-II
  /// start, so a stall, a singular rebuild, or the iteration cap simply
  /// reports failure and the caller falls back to the cold start.  Ties
  /// break on the smallest index, so the repair is deterministic.  Each
  /// pivot is absorbed as an eta update (or a refactorization when
  /// refused).
  bool dual_repair(const Vector& cost) {
    // A repair that has not restored feasibility within ~m pivots is
    // churning on degeneracy; the cold start is cheaper than letting it
    // run (measured: pathological repairs averaged ~200 pivots under a
    // 20m cap where a cold solve takes ~40).
    const int cap = std::min(kMaxIterations - iterations_,
                             static_cast<int>(m_) + 10);
    // Stricter than the primal ratio test's 1e-9: a tiny repair pivot
    // leaves a near-singular basis that Phase II inherits.  Refusing the
    // pivot bails to the cold start instead.
    const double pivot_tol = 1e-7;
    for (int it = 0;; ++it) {
      refresh_basics();

      std::ptrdiff_t r = -1;
      bool above = false;
      double worst = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t bj = ws_.basis[i];
        const double v = ws_.value[bj];
        if (v < ws_.lower[bj] - kFeasibilityTol &&
            ws_.lower[bj] - v > worst) {
          worst = ws_.lower[bj] - v;
          r = static_cast<std::ptrdiff_t>(i);
          above = false;
        } else if (v > ws_.upper[bj] + kFeasibilityTol &&
                   v - ws_.upper[bj] > worst) {
          worst = v - ws_.upper[bj];
          r = static_cast<std::ptrdiff_t>(i);
          above = true;
        }
      }
      if (r < 0) {
        return true;  // primal feasible: ready for Phase II
      }
      if (it >= cap) {
        return false;
      }
      // Row r of B^{-1}A via B^T w = e_r, and the duals y = B^{-T} c_B.
      std::fill(ws_.cb.begin(), ws_.cb.end(), 0.0);
      ws_.cb[static_cast<std::size_t>(r)] = 1.0;
      ws_.factor.btran(ws_.cb, ws_.w);
      Vector& wrow = ws_.w;  // by row
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.cb[i] = cost[ws_.basis[i]];
      }
      ws_.factor.btran(ws_.cb, ws_.y);

      std::size_t entering = total_;
      double best_ratio = kInf;
      double best_alpha = 0.0;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        const VarStatus st = ws_.status[j];
        if (st == VarStatus::kBasic || st == VarStatus::kFixed) {
          continue;
        }
        double alpha = 0.0;
        double d = cost[j];
        if (j < n_) {
          const auto idx = ws_.csc.col_index(static_cast<int>(j));
          const auto val = ws_.csc.col_value(static_cast<int>(j));
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const auto row = static_cast<std::size_t>(idx[k]);
            alpha += wrow[row] * val[k];
            d -= ws_.y[row] * val[k];
          }
        } else {
          alpha -= wrow[j - n_];  // slack coefficient -1
          d += ws_.y[j - n_];
        }
        if (std::fabs(alpha) <= pivot_tol) {
          continue;
        }
        // x_Br moves by -alpha * dj_step.  To DECREASE x_Br (above its
        // upper bound) an at-lower column needs alpha > 0 (it can only
        // increase) and an at-upper column alpha < 0; mirrored when x_Br
        // must increase.  Free columns may move either way.  Artificials
        // never re-enter.
        bool eligible = st == VarStatus::kFree;
        if (!eligible && st == VarStatus::kAtLower) {
          eligible = above ? alpha > 0.0 : alpha < 0.0;
        }
        if (!eligible && st == VarStatus::kAtUpper) {
          eligible = above ? alpha < 0.0 : alpha > 0.0;
        }
        if (!eligible) {
          continue;
        }
        const double ratio = std::fabs(d) / std::fabs(alpha);
        // Stability tie-break: among (near-)equal ratios take the largest
        // pivot element.  Strict >, so exact ties keep the smallest index.
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && std::fabs(alpha) > best_alpha)) {
          best_ratio = std::min(best_ratio, ratio);
          best_alpha = std::fabs(alpha);
          entering = j;
        }
      }
      if (entering == total_) {
        return false;  // no eligible pivot: likely primal infeasible
      }

      // Absorb the pivot into the factor before mutating the basis: the
      // eta needs the entering column's FTRAN image through the *old* B.
      gather_column(entering);
      ws_.factor.ftran(ws_.rhs, ws_.w);
      const std::size_t out_var = ws_.basis[static_cast<std::size_t>(r)];
      ws_.status[out_var] = above ? VarStatus::kAtUpper : VarStatus::kAtLower;
      ws_.value[out_var] = above ? ws_.upper[out_var] : ws_.lower[out_var];
      ws_.basis[static_cast<std::size_t>(r)] = entering;
      ws_.status[entering] = VarStatus::kBasic;
      if (!pivot_factor_update(static_cast<int>(r))) {
        return false;
      }
      ++iterations_;
    }
  }

  /// Read the final statuses into a reusable Basis.  A basis that still
  /// contains an artificial (degenerate Phase-I leftover) is not reusable
  /// and is reported as empty.
  void capture_basis(Basis& out) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (ws_.status[n_ + m_ + i] == VarStatus::kBasic) {
        return;
      }
    }
    const auto to_basis = [](VarStatus s) {
      switch (s) {
        case VarStatus::kBasic:
          return BasisStatus::kBasic;
        case VarStatus::kAtLower:
          return BasisStatus::kAtLower;
        case VarStatus::kAtUpper:
          return BasisStatus::kAtUpper;
        case VarStatus::kFree:
          return BasisStatus::kFree;
        case VarStatus::kFixed:
          return BasisStatus::kFixed;
      }
      return BasisStatus::kUnset;
    };
    out.cols.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      out.cols[j] = to_basis(ws_.status[j]);
    }
    out.row_slacks.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      out.row_slacks[i] = to_basis(ws_.status[n_ + i]);
    }
  }

  /// Package the maintained factor for the next generation.  Declined when
  /// an artificial is still basic (the same condition that blocks basis
  /// capture: such a basis is not reusable).
  void capture_factor(LpSolution& out,
                      std::span<const std::uint64_t> keys) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (ws_.status[n_ + m_ + i] == VarStatus::kBasic) {
        return;
      }
    }
    std::vector<std::uint64_t> sigs(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      sigs[i] = row_signature(problem_.rows()[i].terms);
    }
    std::vector<std::uint64_t> ids(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = ws_.basis[i];
      ids[i] = j < n_ ? static_cast<std::uint64_t>(j)
                      : (keys[j - n_] | kSlackBit);
    }
    out.factor = ws_.factor.capture(n_, keys, std::move(sigs), std::move(ids));
  }

  LpStatus optimize(const Vector& cost) {
    const int bland_threshold =
        5 * static_cast<int>(total_ + m_) + 200;
    int phase_iterations = 0;

    for (;;) {
      if (iterations_ >= kMaxIterations) {
        return LpStatus::kIterationLimit;
      }
      const bool bland = phase_iterations > bland_threshold;

      // Pricing: y = B^{-T} c_B through the maintained factor, then
      // reduced costs by column structure (CSC for structural, singletons
      // for slack/artificial), each column's entries in ascending row
      // order.
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.cb[i] = cost[ws_.basis[i]];
      }
      ws_.factor.btran(ws_.cb, ws_.y);

      std::size_t entering = total_;
      int direction = 0;  // +1 increase, -1 decrease
      double best_score = kOptimalityTol;
      for (std::size_t j = 0; j < total_; ++j) {
        const VarStatus st = ws_.status[j];
        if (st == VarStatus::kBasic || st == VarStatus::kFixed) {
          continue;
        }
        double d = cost[j];
        if (j < n_) {
          const auto idx = ws_.csc.col_index(static_cast<int>(j));
          const auto val = ws_.csc.col_value(static_cast<int>(j));
          for (std::size_t k = 0; k < idx.size(); ++k) {
            d -= ws_.y[static_cast<std::size_t>(idx[k])] * val[k];
          }
        } else if (j < n_ + m_) {
          d += ws_.y[j - n_];  // slack coefficient -1
        } else {
          d -= ws_.y[j - n_ - m_] * ws_.art_sign[j - n_ - m_];
        }
        int dir = 0;
        if ((st == VarStatus::kAtLower || st == VarStatus::kFree) &&
            d < -kOptimalityTol) {
          dir = +1;
        } else if ((st == VarStatus::kAtUpper || st == VarStatus::kFree) &&
                   d > kOptimalityTol) {
          dir = -1;
        }
        if (dir == 0) {
          continue;
        }
        if (bland) {
          entering = j;
          direction = dir;
          break;  // smallest eligible index
        }
        if (std::fabs(d) > best_score) {
          best_score = std::fabs(d);
          entering = j;
          direction = dir;
        }
      }
      if (entering == total_) {
        // Optimal under this objective.  Values were maintained
        // incrementally since the last factorization; recompute them once
        // through the factor so the Phase-I infeasibility sum and the
        // reported vertex see solve-quality numbers.
        refresh_basics();
        return LpStatus::kOptimal;
      }

      // Direction through the basics: w = B^{-1} A_e.
      gather_column(entering);
      ws_.factor.ftran(ws_.rhs, ws_.w);
      Vector& w = ws_.w;

      // Ratio test.  x_B(t) = x_B - t * direction * w;  entering moves by
      // +/- t from its current bound, capped by its own bound span.
      double t_max = kInf;
      if (std::isfinite(ws_.lower[entering]) &&
          std::isfinite(ws_.upper[entering])) {
        t_max = ws_.upper[entering] - ws_.lower[entering];
      }
      std::ptrdiff_t leaving = -1;  // -1 => bound flip
      bool leaving_to_upper = false;
      double leaving_pivot_mag = 0.0;
      const double pivot_tol = 1e-9;
      for (std::size_t i = 0; i < m_; ++i) {
        const double rate = direction * w[i];  // basic i decreases at `rate`
        const std::size_t bj = ws_.basis[i];
        double limit = kInf;
        bool to_upper = false;
        if (rate > pivot_tol) {
          if (std::isfinite(ws_.lower[bj])) {
            limit = (ws_.value[bj] - ws_.lower[bj]) / rate;
          }
        } else if (rate < -pivot_tol) {
          if (std::isfinite(ws_.upper[bj])) {
            limit = (ws_.value[bj] - ws_.upper[bj]) / rate;
            to_upper = true;
          }
        } else {
          continue;
        }
        limit = std::max(limit, 0.0);  // degeneracy snap
        const bool better =
            limit < t_max - 1e-12 ||
            (limit < t_max + 1e-12 && std::fabs(w[i]) > leaving_pivot_mag);
        if (better && limit <= t_max + 1e-12) {
          t_max = std::min(t_max, limit);
          leaving = static_cast<std::ptrdiff_t>(i);
          leaving_to_upper = to_upper;
          leaving_pivot_mag = std::fabs(w[i]);
        }
      }

      if (!std::isfinite(t_max)) {
        return LpStatus::kUnbounded;
      }

      // Apply the step incrementally.
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.value[ws_.basis[i]] -= t_max * direction * w[i];
      }
      ws_.value[entering] += direction * t_max;

      if (leaving < 0) {
        // Bound flip: entering traverses its whole span; the basis -- and
        // therefore the factorization -- is unchanged.
        ws_.status[entering] = direction > 0 ? VarStatus::kAtUpper
                                             : VarStatus::kAtLower;
        ws_.value[entering] =
            direction > 0 ? ws_.upper[entering] : ws_.lower[entering];
        ++bound_flips_;
      } else {
        const std::size_t out_var =
            ws_.basis[static_cast<std::size_t>(leaving)];
        ws_.status[out_var] =
            leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
        ws_.value[out_var] =
            leaving_to_upper ? ws_.upper[out_var] : ws_.lower[out_var];
        ws_.basis[static_cast<std::size_t>(leaving)] = entering;
        ws_.status[entering] = VarStatus::kBasic;
        if (!pivot_factor_update(static_cast<int>(leaving))) {
          // A pivot reached a numerically singular basis -- possible only
          // on warm trajectories; the caller retries the solve cold.
          numeric_failure_ = true;
          return LpStatus::kIterationLimit;
        }
      }

      ++iterations_;
      ++phase_iterations;
    }
  }

  const LpProblem& problem_;
  SimplexOptions opts_;
  LpWorkspace& ws_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t total_ = 0;
  const FactorRef* wf_keepalive_ = nullptr;  // snapshot ref during adoption
  int iterations_ = 0;
  long factorizations_ = 0;
  long refactorizations_ = 0;
  long eta_updates_ = 0;
  long bound_flips_ = 0;
  bool factor_inherited_ = false;
  double factor_seconds_ = 0.0;
  double update_seconds_ = 0.0;
  bool numeric_failure_ = false;
};

/// Clears the reentrancy flag even when an assertion unwinds mid-solve.
struct WorkspaceGuard {
  LpWorkspace* ws;
  ~WorkspaceGuard() { ws->in_use = false; }
};

LpSolution solve_impl(const LpProblem& problem, const SimplexOptions& options,
                      const Basis* warm, const WarmFactor* wf) {
  if (problem.num_vars() == 0) {
    LpSolution out;
    out.status = LpStatus::kOptimal;
    out.objective = problem.objective_offset();
    return out;
  }
  // Reject inconsistent fixed bounds early (the simplex would report them as
  // Phase-I infeasible anyway, but this gives a crisper answer).
  for (std::size_t j = 0; j < problem.num_vars(); ++j) {
    if (problem.col_lower()[j] > problem.col_upper()[j]) {
      LpSolution out;
      out.status = LpStatus::kInfeasible;
      return out;
    }
  }
  common::WallTimer total_timer;
  // The engine solves out of a per-thread workspace; a reentrant solve on
  // the same thread (none exist today, but the flag is cheap insurance)
  // gets a private heap-allocated one.
  LpWorkspace& shared = thread_workspace();
  std::unique_ptr<LpWorkspace> local;
  LpWorkspace* ws = &shared;
  if (shared.in_use) {
    local = std::make_unique<LpWorkspace>();
    ws = local.get();
  }
  ws->in_use = true;
  WorkspaceGuard guard{ws};
  SparseSimplex simplex(problem, options, *ws);
  LpSolution out = simplex.run(warm, wf);
  if (simplex.numeric_failure()) {
    // Only a warm-started trajectory can pivot into a singular basis; for
    // a cold solve this is a genuine invariant violation.
    HSLB_ASSERT(warm != nullptr && !warm->empty(), "singular simplex basis");
    SparseSimplex retry(problem, options, *ws);
    out = retry.run(nullptr, wf);
    HSLB_ASSERT(!retry.numeric_failure(), "singular simplex basis");
  }
  // Wall clock not spent factoring or updating is pivot work (pricing,
  // ratio tests, dual repair).  Timing never feeds fingerprints.
  out.pivot_seconds = std::max(
      0.0, total_timer.seconds() - out.factor_seconds - out.update_seconds);
  // Counters only (no span): B&B issues thousands of tiny LP solves and a
  // span per solve would swamp the trace.
  if (obs::Registry* metrics = obs::current_metrics()) {
    metrics->counter("lp.simplex.solves").add(1.0);
    metrics->counter("lp.simplex.pivots")
        .add(static_cast<double>(out.iterations));
    metrics
        ->histogram("lp.simplex.pivots_per_solve",
                    obs::Registry::hdr_count_bounds())
        .observe(static_cast<double>(out.iterations));
    if (out.warm_used) {
      metrics->counter("lp.simplex.warm_solves").add(1.0);
      if (out.warm_phase1_skipped) {
        metrics->counter("lp.simplex.warm_phase1_skips").add(1.0);
      }
    }
    metrics->counter("lp.simplex.factorizations")
        .add(static_cast<double>(out.factorizations));
    if (out.refactorizations > 0) {
      metrics->counter("lp.simplex.refactorizations")
          .add(static_cast<double>(out.refactorizations));
    }
    if (out.eta_updates > 0) {
      metrics->counter("lp.simplex.eta_updates")
          .add(static_cast<double>(out.eta_updates));
    }
    if (out.bound_flips > 0) {
      metrics->counter("lp.simplex.bound_flips")
          .add(static_cast<double>(out.bound_flips));
    }
    if (out.factor_inherited) {
      metrics->counter("lp.simplex.factor_inherits").add(1.0);
    }
  }
  return out;
}

}  // namespace

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

Basis map_basis(const Basis& from, std::span<const std::uint64_t> from_keys,
                std::span<const std::uint64_t> to_keys) {
  Basis out;
  out.cols = from.cols;
  // Rows with no match in the source basis are NEW rows: their slack enters
  // the basis (the textbook basis extension).  If the new row holds at the
  // warm point the extended basis is still primal feasible and Phase I is
  // skipped; if it cuts the point off, prepare_warm's feasibility check
  // rejects the basis and the solve falls back to a cold start.  kUnset here
  // would instead leave the basis short one member and force the cold path
  // for every added cut.
  out.row_slacks.assign(to_keys.size(), BasisStatus::kBasic);
  std::unordered_map<std::uint64_t, BasisStatus> by_key;
  const std::size_t known = std::min(from_keys.size(), from.row_slacks.size());
  by_key.reserve(known);
  for (std::size_t i = 0; i < known; ++i) {
    by_key.emplace(from_keys[i], from.row_slacks[i]);  // first wins
  }
  for (std::size_t i = 0; i < to_keys.size(); ++i) {
    if (const auto it = by_key.find(to_keys[i]); it != by_key.end()) {
      out.row_slacks[i] = it->second;
    }
  }
  return out;
}

LpSolution solve(const LpProblem& problem, const SimplexOptions& options) {
  return solve_impl(problem, options, nullptr, nullptr);
}

LpSolution resolve_from_basis(const LpProblem& problem, const Basis& warm,
                              const SimplexOptions& options) {
  return solve_impl(problem, options, &warm, nullptr);
}

LpSolution resolve_from_basis(const LpProblem& problem, const Basis& warm,
                              const WarmFactor& factor,
                              const SimplexOptions& options) {
  return solve_impl(problem, options, &warm, &factor);
}

}  // namespace hslb::lp

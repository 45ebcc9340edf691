// NLP-based branch-and-bound with the same deterministic epoch-parallel
// scheme as branch_and_bound.cpp: each epoch pops a fixed-size batch of
// nodes from the DFS stack (LIFO order), solves their barrier NLPs in
// parallel against a snapshot of the cutoff, and merges results in batch
// order.  Node evaluation is pure, so the result is byte-identical across
// thread counts; epoch_batch == 1 reproduces the classic serial loop.
#include "hslb/minlp/nlp_bb.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <thread>

#include "hslb/common/error.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/minlp/relaxation.hpp"
#include "hslb/minlp/worker_pool.hpp"
#include "hslb/nlp/barrier.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::minlp {
namespace {

using linalg::Vector;

/// Integrality tolerance for the branching decision.
constexpr double kIntegerTol = 1e-6;

struct Node {
  Vector lower;
  Vector upper;
  double bound = -lp::kInf;
  int depth = 0;
};

/// Continuous relaxation NLP over the node's box.
nlp::NlpProblem build_node_nlp(const Model& model, const Vector& lo,
                               const Vector& up) {
  nlp::NlpProblem relax;
  const std::size_t n = model.num_vars();
  relax.num_vars = n;
  relax.lower = lo;
  relax.upper = up;

  expr::Expr obj = expr::constant(model.objective_offset());
  for (std::size_t j = 0; j < n; ++j) {
    if (model.objective_coeffs()[j] != 0.0) {
      obj += model.objective_coeffs()[j] * model.var(j);
    }
  }
  relax.objective = obj;

  for (const LinearConstraint& c : model.linear_constraints()) {
    expr::Expr row = expr::constant(0.0);
    for (const auto& [v, coef] : c.terms) {
      row += coef * model.var(v);
    }
    const double slack =
        c.lower == c.upper ? 1e-7 * (1.0 + std::fabs(c.upper)) : 0.0;
    if (std::isfinite(c.upper)) {
      relax.constraints.push_back(row - (c.upper + slack));
    }
    if (std::isfinite(c.lower)) {
      relax.constraints.push_back((c.lower - slack) - row);
    }
  }
  for (const UnivariateLink& link : model.links()) {
    relax.constraints.push_back(link.fn.as_expr(model.var(link.n_var)) -
                                model.var(link.t_var));
  }
  for (const NonlinearConstraint& c : model.nonlinear_constraints()) {
    relax.constraints.push_back(c.g - c.upper);
  }
  return relax;
}

/// Output of one node evaluation, merged in batch order on the main thread.
struct NodeResult {
  bool pruned = false;  // skipped by snapshot cutoff or infeasible/failed
  std::vector<Node> children;
  std::optional<Completion> completion;
  long nlp_solves = 0;
  long lp_solves = 0;
};

/// Evaluate one node: barrier solve, branching decision, completion.  Pure
/// function of (node, cutoff snapshot, options) -- the determinism anchor.
NodeResult process_node(const Model& model, const NlpBbOptions& opts,
                        const std::vector<Curvature>& curvature,
                        const CutPool& empty_pool, double cutoff_snapshot,
                        Node node) {
  const std::size_t n = model.num_vars();
  NodeResult r;
  if (node.bound >= cutoff_snapshot) {
    r.pruned = true;
    return r;
  }

  const nlp::NlpProblem relax = build_node_nlp(model, node.lower, node.upper);
  const nlp::NlpResult sol = nlp::solve_barrier(relax);
  ++r.nlp_solves;
  if (sol.status != nlp::NlpStatus::kOptimal) {
    r.pruned = true;  // infeasible, or failed node solve pruned conservatively
    return r;
  }
  node.bound = sol.objective;
  if (node.bound >= cutoff_snapshot) {
    r.pruned = true;
    return r;
  }

  // Most fractional integer variable.
  std::ptrdiff_t branch_var = -1;
  double worst_frac = kIntegerTol;
  for (std::size_t j = 0; j < n; ++j) {
    if (model.variables()[j].type == VarType::kContinuous) {
      continue;
    }
    const double f = std::fabs(sol.x[j] - std::round(sol.x[j]));
    if (f > worst_frac) {
      worst_frac = f;
      branch_var = static_cast<std::ptrdiff_t>(j);
    }
  }

  if (branch_var < 0) {
    // Integral: complete exactly and offer as incumbent candidate.
    r.completion = complete_integer_point(model, empty_pool, curvature, sol.x,
                                          node.lower, node.upper);
    ++r.lp_solves;
    const bool exact =
        r.completion &&
        r.completion->objective - node.bound <=
            std::max(1e-9, opts.rel_gap * std::fabs(r.completion->objective));
    if (exact) {
      return r;
    }
    // Residual gap: tighten by splitting the widest link interval.
    std::ptrdiff_t widest = -1;
    double width = 0.999;
    for (const UnivariateLink& link : model.links()) {
      const double w = node.upper[link.n_var] - node.lower[link.n_var];
      if (w > width) {
        width = w;
        widest = static_cast<std::ptrdiff_t>(link.n_var);
      }
    }
    if (widest < 0) {
      return r;  // node fully resolved
    }
    const auto j = static_cast<std::size_t>(widest);
    const double split = std::clamp(std::round(sol.x[j]), node.lower[j],
                                    node.upper[j] - 1.0);
    Node left = node;
    Node right = node;
    left.upper[j] = split;
    right.lower[j] = split + 1.0;
    left.depth = right.depth = node.depth + 1;
    r.children.push_back(std::move(left));
    r.children.push_back(std::move(right));
    return r;
  }

  const auto j = static_cast<std::size_t>(branch_var);
  Node down = node;
  Node up = node;
  down.upper[j] = std::floor(sol.x[j]);
  up.lower[j] = std::ceil(sol.x[j]);
  down.depth = up.depth = node.depth + 1;
  if (down.lower[j] <= down.upper[j]) {
    r.children.push_back(std::move(down));
  }
  if (up.lower[j] <= up.upper[j]) {
    r.children.push_back(std::move(up));
  }
  return r;
}

}  // namespace

MinlpResult solve_nlp_bb(const Model& model, const NlpBbOptions& opts) {
  HSLB_REQUIRE(model.sos1_sets().empty(),
               "NLP-BB does not support SOS1 sets; use minlp::solve");
  for (const UnivariateLink& link : model.links()) {
    HSLB_REQUIRE(static_cast<bool>(link.fn.as_expr),
                 "NLP-BB needs a symbolic form for every link");
  }

  common::WallTimer timer;
  MinlpResult out;
  SolveStats& stats = out.stats;

  const std::size_t n = model.num_vars();
  const std::vector<Curvature> curvature = resolve_curvatures(model);
  const CutPool empty_pool;

  Node root;
  root.lower.resize(n);
  root.upper.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    root.lower[j] = model.variables()[j].lower;
    root.upper[j] = model.variables()[j].upper;
  }

  std::deque<Node> stack;
  stack.push_back(std::move(root));

  bool have_incumbent = false;
  double incumbent_obj = lp::kInf;
  Vector incumbent_x;
  bool hit_node_limit = false;

  const auto cutoff = [&]() {
    if (!have_incumbent) {
      return lp::kInf;
    }
    return incumbent_obj -
           std::max(1e-9, opts.rel_gap * std::fabs(incumbent_obj));
  };

  const int requested_threads =
      opts.threads > 0 ? opts.threads
                       : static_cast<int>(std::thread::hardware_concurrency());
  const int num_threads = std::max(1, requested_threads);
  const std::size_t epoch_batch =
      static_cast<std::size_t>(std::max(1, opts.epoch_batch));
  std::optional<WorkerPool> workers;
  if (num_threads > 1) {
    workers.emplace(num_threads);
  }

  std::vector<Node> batch;
  std::vector<NodeResult> results;
  while (!stack.empty()) {
    if (stats.nodes_explored >= opts.max_nodes) {
      hit_node_limit = true;
      break;
    }
    const std::size_t batch_size = std::min(
        {epoch_batch, stack.size(),
         static_cast<std::size_t>(opts.max_nodes - stats.nodes_explored)});
    batch.clear();
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch.push_back(std::move(stack.back()));  // LIFO, deterministic
      stack.pop_back();
    }
    const double cutoff_snapshot = cutoff();
    results.assign(batch_size, NodeResult{});
    obs::ScopedSpan epoch_span("minlp.epoch", "minlp");
    if (epoch_span.active()) {
      epoch_span.arg("batch", static_cast<long long>(batch_size));
    }
    const auto evaluate = [&](std::size_t i) {
      results[i] = process_node(model, opts, curvature, empty_pool,
                                cutoff_snapshot, std::move(batch[i]));
    };
    if (workers && batch_size > 1) {
      workers->run(batch_size, evaluate);
    } else {
      for (std::size_t i = 0; i < batch_size; ++i) {
        evaluate(i);
      }
    }
    ++stats.epochs;

    for (std::size_t i = 0; i < batch_size; ++i) {
      NodeResult& r = results[i];
      ++stats.nodes_explored;
      stats.nlp_solves += r.nlp_solves;
      stats.lp_solves += r.lp_solves;
      if (r.completion && r.completion->objective < incumbent_obj) {
        incumbent_obj = r.completion->objective;
        incumbent_x = r.completion->x;
        have_incumbent = true;
        ++stats.incumbent_updates;
      }
      for (Node& child : r.children) {
        stack.push_back(std::move(child));
      }
    }
  }

  stats.wall_seconds = timer.seconds();
  stats.best_bound = incumbent_obj;
  if (have_incumbent) {
    out.status =
        hit_node_limit ? MinlpStatus::kNodeLimit : MinlpStatus::kOptimal;
    out.x = std::move(incumbent_x);
    out.objective = incumbent_obj;
  } else {
    out.status =
        hit_node_limit ? MinlpStatus::kNodeLimit : MinlpStatus::kInfeasible;
  }
  return out;
}

}  // namespace hslb::minlp

// Nonlinear branch-and-bound (NLP-BB).
//
// The classical alternative to LP/NLP-based branch-and-bound that MINOTAUR
// also offers: every node solves the continuous NLP relaxation with the
// barrier solver and branching happens on fractional integer variables.
// Links are relaxed one-sided (t >= fn(n)), which is a valid convex
// relaxation when every link function is convex; integer candidates are
// completed exactly (t == fn(n)) before being accepted as incumbents.
//
// Restrictions (checked): no SOS1 sets (use the LP/NLP-BB solver for the
// discrete allocation-set models) and convex link functions.
#pragma once

#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/minlp/model.hpp"

namespace hslb::minlp {

struct NlpBbOptions {
  double rel_gap = 1e-6;
  long max_nodes = 100000;
  /// Worker threads for node NLP solves; <= 0 picks hardware concurrency.
  /// Same deterministic epoch scheme as SolverOptions: the result is
  /// byte-identical for every thread count.
  int threads = 1;
  /// Nodes per epoch; thread-count independent.  1 reproduces the classic
  /// serial DFS loop exactly.
  int epoch_batch = 4;
};

/// Solve by NLP-based branch-and-bound.  Every link must provide `as_expr`.
[[nodiscard]] MinlpResult solve_nlp_bb(const Model& model,
                                       const NlpBbOptions& options = {});

}  // namespace hslb::minlp

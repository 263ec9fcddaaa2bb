// CostModel: estimate how expensive a scenario request is *before*
// running it, so the dispatch engine's longest-job-first policy (ljf)
// can place the whales first.
//
// Every request in this system lowers to the same shape of work: per
// STCL point, Algorithm 1 alternates cheap model-guided construction
// with oracle validations; each validation is either one steady-state
// back-substitution or `steps` backward-Euler back-substitutions; each
// back-substitution touches n² matrix entries on the dense backend and
// nnz(L) factor entries on the sparse one — the *post-ordering* fill,
// predicted from n as n·(4 + log2 n) (docs/SOLVERS.md "Ordering").
// The model simply multiplies those factors out:
//
//   cost ≈ stcl_points · validations(cores) · solves_per_validation
//          · solve_ops(nodes, backend)   (+ fixed per-request overhead)
//
// The output is a RELATIVE unit, not seconds: LJF only needs correct
// *ordering*, so the constants (fixed, in cost_model.cpp) are chosen to
// rank (a 1034-node sparse request must score far above an Alpha
// request, which measures ~100× slower — ROADMAP "Backend-aware serve
// placement"). bench_dispatch checks the ranking against measured
// per-request wall time on every CI run.
#pragma once

#include <cstddef>

namespace thermo::dispatch {

/// What the estimator needs to know about one request. Deliberately
/// backend-agnostic plain numbers: the scenario layer maps a parsed
/// request onto this (scenario/cost.hpp); dispatch never sees JSON.
struct CostFeatures {
  std::size_t nodes = 0;       ///< thermal nodes of the (estimated) model
  std::size_t cores = 0;       ///< cores to schedule (drives validations)
  bool sparse = false;         ///< resolved solver backend is sparse
  bool transient = true;       ///< transient oracle (false = steady)
  double steps_per_call = 0.0; ///< BE steps per oracle call (transient)
  std::size_t stcl_points = 1; ///< Algorithm 1 runs in the request
  /// Exact oracle-call count per point when the request shape makes it
  /// known up front (a power-trace replay performs exactly one call per
  /// trace step). 0 (default) keeps the Algorithm 1 estimate of two
  /// validations per core.
  double oracle_calls = 0.0;
};

class CostModel {
 public:
  /// Estimated relative cost; > 0, monotone in every feature.
  double estimate(const CostFeatures& features) const;
};

}  // namespace thermo::dispatch

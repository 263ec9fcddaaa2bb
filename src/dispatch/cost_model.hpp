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
// supplied directly (solve_nnz) or predicted from n
// (predicted_factor_nnz; docs/SOLVERS.md "Ordering"). The model simply
// multiplies those factors out:
//
//   cost ≈ stcl_points · validations(cores) · solves_per_validation
//          · solve_ops(nodes, backend)   (+ fixed per-request overhead)
//
// The output is a RELATIVE unit, not seconds: LJF only needs correct
// *ordering*, so constants are calibrated to rank (a 1034-node sparse
// request must score far above an Alpha request, which measures ~100×
// slower — ROADMAP "Backend-aware serve placement"). bench_dispatch
// validates the ranking against measured per-request wall time on every
// CI run; the constants are a struct so callers can re-calibrate
// without recompiling the layer.
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
  /// trace step). 0 (default) keeps the Algorithm 1 estimate of
  /// validations_per_core * cores.
  double oracle_calls = 0.0;
  /// Non-zeros of the post-ordering sparse factor L, when known (e.g.
  /// from an already-factored model). 0 (default) falls back to
  /// predicted_factor_nnz(nodes). Ignored on the dense backend.
  double solve_nnz = 0.0;
};

/// Predicted nnz(L) of a fill-ordered sparse factor of an n-node
/// thermal model: ≈ n·(4 + log2 n). RC lattices keep ~4 off-diagonal
/// couplings per node, and min-degree ordering holds fill growth to
/// roughly a log factor on 2-D meshes (measured: a 64×64 grid factors
/// at ~15·n, a 317×317 at ~20·n — see BENCH_backend.json fill columns).
/// Replaces the old flat c·n guess, which under-ranked 100k-node grid
/// requests against small transient sweeps.
double predicted_factor_nnz(std::size_t nodes);

/// Calibrated constants (relative units). Defaults were fitted against
/// BENCH_dispatch.json measurements on the skewed demo batch; override
/// to re-calibrate for different hardware.
struct CostConstants {
  /// Ops per back-substitution: dense touches all n² factor entries...
  double dense_ops_per_node_sq = 1.0;
  /// ...sparse touches every factor non-zero; the nnz itself comes from
  /// solve_nnz or predicted_factor_nnz, so this constant is per-entry.
  /// (Replaces the pre-ordering sparse_ops_per_node = 24·n guess.)
  double sparse_ops_per_nnz = 1.0;
  /// Oracle validations per scheduled core (committed sessions plus the
  /// discard/re-try churn of Algorithm 1's weighting loop).
  double validations_per_core = 2.0;
  /// Session-model + bookkeeping cost per oracle call, in node units
  /// (keeps tiny steady requests from rounding to zero).
  double per_call_overhead = 50.0;
  /// Fixed per-request floor (parse, SoC build, serialization).
  double per_request = 1000.0;
};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(const CostConstants& constants)
      : constants_(constants) {}

  const CostConstants& constants() const { return constants_; }

  /// Estimated relative cost; > 0, monotone in every feature.
  double estimate(const CostFeatures& features) const;

 private:
  CostConstants constants_;
};

}  // namespace thermo::dispatch

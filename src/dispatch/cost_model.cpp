#include "dispatch/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace thermo::dispatch {

namespace {

// The model's fixed constants, in relative units (see cost_model.hpp).
/// Ops per back-substitution: dense touches all n² factor entries...
constexpr double kDenseOpsPerNodeSq = 1.0;
/// ...sparse touches every factor non-zero (predicted_factor_nnz).
constexpr double kSparseOpsPerNnz = 1.0;
/// Oracle validations per scheduled core (committed sessions plus the
/// discard/re-try churn of Algorithm 1's weighting loop).
constexpr double kValidationsPerCore = 2.0;
/// Session-model + bookkeeping cost per oracle call, in node units
/// (keeps tiny steady requests from rounding to zero).
constexpr double kPerCallOverhead = 50.0;
/// Fixed per-request floor (parse, SoC build, serialization).
constexpr double kPerRequest = 1000.0;

/// Predicted nnz(L) of a fill-ordered sparse factor of an n-node
/// thermal model: ≈ n·(4 + log2 n). RC lattices keep ~4 off-diagonal
/// couplings per node, and min-degree ordering holds fill growth to
/// roughly a log factor on 2-D meshes (measured: a 64×64 grid factors
/// at ~15·n, a 317×317 at ~20·n — see BENCH_backend.json fill columns).
/// Replaces the old flat c·n guess, which under-ranked 100k-node grid
/// requests against small transient sweeps.
double predicted_factor_nnz(std::size_t nodes) {
  const double n = static_cast<double>(std::max<std::size_t>(nodes, 1));
  return n * (4.0 + std::log2(n));
}

}  // namespace

double CostModel::estimate(const CostFeatures& features) const {
  const double n = static_cast<double>(std::max<std::size_t>(features.nodes, 1));
  const double solve_ops =
      features.sparse ? kSparseOpsPerNnz * predicted_factor_nnz(features.nodes)
                      : kDenseOpsPerNodeSq * n * n;
  const double solves_per_call =
      features.transient ? std::max(1.0, features.steps_per_call) : 1.0;
  const double calls =
      features.oracle_calls > 0.0
          ? features.oracle_calls
          : kValidationsPerCore *
                static_cast<double>(std::max<std::size_t>(features.cores, 1));
  const double points =
      static_cast<double>(std::max<std::size_t>(features.stcl_points, 1));
  return kPerRequest +
         points * calls * (solves_per_call * solve_ops + kPerCallOverhead);
}

}  // namespace thermo::dispatch

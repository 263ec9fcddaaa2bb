// Steady-state thermal analysis: solve G * dT = P for the temperature
// rise over ambient.
//
// Steady state is the worst case for a test session that runs long
// enough (temperatures only rise towards it), and it is the regime the
// paper's session thermal model assumes (Section 2, modification 1:
// drop the capacitances). The scheduler's validation step uses these
// solvers through ThermalAnalyzer; transient.hpp covers the
// time-resolved counterpart.
//
// The Cholesky and LU paths are factor-cached: G is fixed per RCModel,
// so the model keeps its factorization (filled through
// ThermalSolverCache, solver_cache.hpp) and repeated solves on it cost
// only two triangular substitutions. The Cholesky path additionally honours a SolverBackend
// (backend.hpp): kDense keeps the dense factor, kSparse factors the
// model's CSR matrix instead (linalg/sparse_cholesky.hpp), and kAuto —
// the default — picks by node count. docs/SOLVERS.md explains how to
// choose between the solvers/backends and when the cache applies (it
// never does for CG).
#pragma once

#include <vector>

#include "thermal/backend.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::thermal {

enum class SteadySolver {
  kCholesky,      ///< Cholesky, dense or sparse per SolverBackend (default)
  kLu,            ///< dense LU (reference / cross-check; ignores the backend)
  kConjugateGradient  ///< Jacobi-preconditioned CG (iterative reference)
};

struct SteadyStateOptions {
  SteadySolver solver = SteadySolver::kCholesky;
  /// Factor representation for the kCholesky path; kLu is deliberately
  /// dense-only (it exists as the cross-check of the default path) and
  /// kConjugateGradient is inherently sparse.
  SolverBackend backend = SolverBackend::kAuto;
};

struct SteadyStateResult {
  /// Absolute temperature per node [deg C], ambient included.
  std::vector<double> temperature;
  /// Temperature rise over ambient per node [K].
  std::vector<double> rise;
};

/// Solves the steady state for per-block power [W] (size = block count).
/// Throws NumericalError when the system cannot be solved.
SteadyStateResult solve_steady_state(const RCModel& model,
                                     const std::vector<double>& block_power,
                                     const SteadyStateOptions& options = {});

/// Solver-only convenience overload (backend stays kAuto).
SteadyStateResult solve_steady_state(const RCModel& model,
                                     const std::vector<double>& block_power,
                                     SteadySolver solver);

/// Maximum block temperature (die nodes only) of a steady-state result.
double max_block_temperature(const RCModel& model,
                             const SteadyStateResult& result);

}  // namespace thermo::thermal

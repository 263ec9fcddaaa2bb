// Transient thermal simulation:  C dT/dt = P - G (T - T_amb).
//
// This is the expensive full-RC simulation behind Algorithm 1's
// validation step — what the paper drove HotSpot for, and what the
// cheap session thermal model exists to avoid calling more often than
// necessary. ThermalAnalyzer calls it once per unit-response column and
// superposes those for each session (unit_response.hpp); chained and
// power-trace replays call it directly.
//
// The system is stiff (die time constants are milliseconds, the heat
// sink's are tens of seconds), so the default integrator is backward
// Euler with a factored system matrix; RK4 is available for
// cross-validation on short horizons.
//
// The backward-Euler system matrix (C/dt + G) is factored once per
// (model, dt) and kept in the model (ThermalSolverCache,
// solver_cache.hpp): the first simulated session pays the
// factorization, every later session on the same model and step size
// pays only back-substitution per step. The
// factor representation follows TransientOptions::backend (backend.hpp):
// dense LU below the kAuto crossover, sparse LDLᵗ above it — the sparse
// path is what keeps per-step cost linear in the node count on
// thousand-node SoCs. docs/SOLVERS.md covers the cost model and solver
// trade-offs.
#pragma once

#include <functional>
#include <vector>

#include "thermal/backend.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::thermal {

enum class TransientIntegrator {
  kBackwardEuler,  ///< implicit, unconditionally stable (default)
  kRk4             ///< explicit, accurate but needs tiny steps when stiff
};

struct TransientOptions {
  double dt = 1e-3;  ///< step size [s]
  TransientIntegrator integrator = TransientIntegrator::kBackwardEuler;
  /// Matrix representation: for kBackwardEuler it picks the factor of
  /// (C/dt + G); for kRk4 it picks the G product per stage — dense n²
  /// below the kAuto crossover, the CSR SpMV fast path
  /// (SparseMatrix::multiply_into) at and above it.
  SolverBackend backend = SolverBackend::kAuto;
  /// Optional per-step observer (t, absolute node temperatures).
  std::function<void(double, const std::vector<double>&)> observer;
};

struct TransientResult {
  /// Absolute node temperatures at the end of the horizon [deg C].
  std::vector<double> final_temperature;
  /// Per-node maximum absolute temperature over the horizon [deg C]
  /// (includes the initial state).
  std::vector<double> peak_temperature;
  std::size_t steps = 0;
};

/// Simulates `duration` seconds with constant per-block power, starting
/// from `initial` absolute node temperatures (pass ambient_state() to
/// start cold).
TransientResult simulate_transient(const RCModel& model,
                                   const std::vector<double>& block_power,
                                   double duration,
                                   const std::vector<double>& initial,
                                   const TransientOptions& options = {});

/// All-nodes-at-ambient initial state for a model.
std::vector<double> ambient_state(const RCModel& model);

/// Maximum die-block entry of a per-node peak-temperature vector.
double max_block_peak(const RCModel& model, const TransientResult& result);

}  // namespace thermo::thermal

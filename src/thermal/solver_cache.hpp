// ThermalSolverCache: the fetch-or-build path into a thermal model's
// own factor store (FactorStore below).
//
// The paper's Algorithm 1 validates thousands of candidate sessions
// against ONE fixed conductance matrix G — only the power vector (the
// right-hand side) changes per candidate. The same holds for every
// scenario sweep: the floorplan is fixed, the workloads vary. Factoring
// G once (n^3/3 flops) and back-substituting per solve (2 n^2) turns
// the steady-state hot path from cubic to quadratic; the transient
// backward-Euler system matrix (C/dt + G) gets the same treatment per
// (model, dt) pair. Each factor exists in a dense and a sparse flavour
// (SolverBackend, backend.hpp) held in separate slots; the sparse
// LDLᵗ flavour drops both costs to ~linear in n on RC networks.
// docs/SOLVERS.md has the full cost model.
//
// Ownership: every RCModel and GridThermalModel holds one FactorStore,
// shared by its copies (an RCModel is immutable after construction, so
// copies always hold identical matrices) and freed with the last copy.
// The cache owns nothing: whoever bounds the models — in serve, the
// ScenarioRunner's model LRU — bounds their factors.
//
// Concurrency: a fetch takes the model's store mutex, but factorization
// itself runs OUTSIDE it — an O(n^3) factor never stalls other workers'
// fetches. Two threads racing the same cold slot may both factor; the
// first insert wins and both share its result. The returned factor
// objects are const and thread-safe, so an STCL sweep or serve batch
// fanning one model across N threads factors (effectively) once and
// solves N-wide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "linalg/cholesky.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/lu.hpp"
#include "linalg/ode.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::thermal {

/// One model's lazily filled factors, filled only through
/// ThermalSolverCache (and RCModel::conductance() for the mirror). Every
/// slot is set once and never replaced. Steppers are keyed by the exact
/// bit pattern of their step size. A GridThermalModel uses only the
/// steady factor slots.
struct FactorStore {
  std::mutex mutex;
  std::unique_ptr<const linalg::DenseMatrix> dense_conductance;
  std::shared_ptr<const linalg::CholeskyFactor> cholesky;
  std::shared_ptr<const linalg::SparseCholeskyFactor> sparse_cholesky;
  std::shared_ptr<const linalg::LuFactor> lu;
  std::map<std::uint64_t, std::shared_ptr<const linalg::LinearImplicitStepper>>
      steppers;
  std::map<std::uint64_t, std::shared_ptr<const linalg::SparseImplicitStepper>>
      sparse_steppers;
};

class ThermalSolverCache {
 public:
  /// The process-wide instance used by solve_steady_state /
  /// simulate_transient / ThermalAnalyzer; it holds only the hit/miss
  /// counters.
  static ThermalSolverCache& instance();

  /// Cholesky factor of the model's conductance matrix G (steady state).
  std::shared_ptr<const linalg::CholeskyFactor> cholesky(const RCModel& model);

  /// LU factor of G (reference / cross-check steady-state path).
  std::shared_ptr<const linalg::LuFactor> lu(const RCModel& model);

  /// Backward-Euler stepper for (C/dt + G), one per (model, dt). Two
  /// dts share a stepper iff their doubles are bit-identical.
  std::shared_ptr<const linalg::LinearImplicitStepper> stepper(
      const RCModel& model, double dt);

  /// Sparse LDLᵗ factor of G (the SolverBackend::kSparse steady path),
  /// a separate slot from the dense factors.
  std::shared_ptr<const linalg::SparseCholeskyFactor> sparse_cholesky(
      const RCModel& model);

  /// Sparse backward-Euler stepper for (C/dt + G), one per (model, dt)
  /// exactly like stepper() — the SolverBackend::kSparse transient path.
  std::shared_ptr<const linalg::SparseImplicitStepper> sparse_stepper(
      const RCModel& model, double dt);

  /// Grid-model factors. Steady-state only (the grid model has no
  /// transient path).
  std::shared_ptr<const linalg::CholeskyFactor> cholesky(
      const GridThermalModel& model);
  std::shared_ptr<const linalg::SparseCholeskyFactor> sparse_cholesky(
      const GridThermalModel& model);

  /// Frees nothing: factors belong to their models and are freed with
  /// the last copy of the model. Kept so callers that model a fresh
  /// process (perfbench) need not change.
  void clear();

  struct Stats {
    std::size_t hits = 0;    ///< fetches served from a model's store
    std::size_t misses = 0;  ///< fetches that had to factor
  };
  Stats stats() const;

  /// Zeroes the hit/miss counters.
  void reset_stats();

 private:
  ThermalSolverCache() = default;

  /// Returns the slot `slot_of(store)` picks, building it via `make` on
  /// miss (outside the store's lock; first insert wins).
  template <typename T, typename Slot, typename Make>
  std::shared_ptr<const T> fetch(FactorStore& store, Slot&& slot_of,
                                 Make&& make);

  /// Counts one fetch in stats() and the obs counters.
  void count(bool hit);

  mutable std::mutex mutex_;  // guards hits_ and misses_
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace thermo::thermal

// UnitResponses: the cached unit-power step responses that let
// ThermalAnalyzer::simulate_session validate an Algorithm-1 session by
// superposition instead of re-simulating the RC network.
//
// The network is linear and time-invariant, and every session
// validation starts from ambient under constant per-block power. So the
// block temperatures at the end of a D-second backward-Euler simulation
// are
//
//     T = T_amb + Σ_{i: P_i > 0} P_i · Z_{:,i}(backend, dt, D)
//
// where column Z_{:,i} is the block-row rise at the end of the same
// simulation with 1 W in block i and nothing elsewhere. Because the
// conductance matrix is an M-matrix and power is non-negative, the
// backward-Euler rise from ambient never decreases, so that end state is
// also the per-block peak over the horizon (proof: docs/SOLVERS.md,
// "Superposition").
//
// Each column is one unit-power simulate_transient call — same stepper,
// same step schedule as a direct simulation — built the first time a
// validation needs it, keyed by (resolved backend, dt bits, duration
// bits, block). Columns cost n_blocks doubles each and are never
// evicted: the store belongs to its RCModel (copies share it, as they
// share its factor store), so the owner of the model bounds it.
//
// Concurrency: lookups take one mutex; a missing column is simulated
// OUTSIDE it and the first insert wins. A column's contents depend only
// on its key, never on which request built it, so results are
// bit-identical at every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "thermal/backend.hpp"

namespace thermo::thermal {

class RCModel;

class UnitResponses {
 public:
  /// Block-row temperature rise over ambient [K] at the end of a
  /// `duration`-second backward-Euler simulation with step `dt`:
  /// Σ_{i: P_i > 0} P_i · Z_{:,i}, summed in ascending block index.
  /// `model` must be the model owning this store; `backend` must be
  /// resolved (never kAuto); `block_power` must already be validated
  /// (RCModel::require_valid_power); dt and duration positive and finite.
  std::vector<double> rise(const RCModel& model, SolverBackend backend,
                           double dt, double duration,
                           const std::vector<double>& block_power);

  /// Columns built so far (all keys together).
  std::size_t column_count() const;

 private:
  /// (backend, dt bits, duration bits): one column slot per block.
  using SetKey = std::tuple<int, std::uint64_t, std::uint64_t>;
  using Column = std::unique_ptr<const std::vector<double>>;

  mutable std::mutex mutex_;
  std::map<SetKey, std::vector<Column>> sets_;
  std::size_t columns_ = 0;
};

}  // namespace thermo::thermal

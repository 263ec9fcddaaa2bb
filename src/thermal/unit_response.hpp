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
// Algorithm 1's solo pre-pass needs only block i's own peak,
// T_amb + P_i · Z_ii. In transient mode that is entry i of the column
// above. The steady oracle keeps Z_ii too: the diagonal of the block
// rows of G⁻¹, n_blocks doubles per resolved backend, filled from
// n_blocks unit solves through the model's steady factor the first time
// a solo peak needs it. Full steady columns are deliberately not kept
// (docs/SOLVERS.md, "Superposition"): a steady validation costs one
// back-substitution, less than summing |TS| columns on large models.
//
// Concurrency: lookups take one mutex; a missing column or diagonal is
// built OUTSIDE it and the first insert wins. Its contents depend only
// on its key, never on which request built it, so results are
// bit-identical at every thread count.
#pragma once

#include <array>
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

  /// Z_{block,block}(backend, dt, duration): entry `block` of the
  /// transient column rise() superposes, built if missing. Same
  /// preconditions as rise().
  double transient_self_response(const RCModel& model, SolverBackend backend,
                                 double dt, double duration,
                                 std::size_t block);

  /// Z_{block,block} of the steady oracle: entry (block, block) of G⁻¹
  /// under the resolved `backend`, from the diagonal built on first use.
  double steady_self_response(const RCModel& model, SolverBackend backend,
                              std::size_t block);

  /// Columns built so far (all keys together).
  std::size_t column_count() const;

  /// Steady diagonals inserted so far (at most one per resolved backend).
  std::size_t diagonal_count() const;

 private:
  /// (backend, dt bits, duration bits): one column slot per block.
  using SetKey = std::tuple<int, std::uint64_t, std::uint64_t>;
  using Column = std::unique_ptr<const std::vector<double>>;

  /// The columns for `blocks` under one key, building the missing ones.
  std::vector<const std::vector<double>*> columns(
      const RCModel& model, SolverBackend backend, double dt, double duration,
      const std::vector<std::size_t>& blocks);

  mutable std::mutex mutex_;
  std::map<SetKey, std::vector<Column>> sets_;
  std::size_t columns_ = 0;
  /// Steady diagonals, indexed by resolved backend.
  std::array<Column, 2> diagonals_;
  std::size_t diagonal_count_ = 0;
};

}  // namespace thermo::thermal

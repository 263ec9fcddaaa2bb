#include "thermal/unit_response.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/solver_cache.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Columns inserted into any model's store (docs/OBSERVABILITY.md).
obs::Counter& columns_built() {
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("thermal.response_columns");
  return counter;
}

/// Z_{:,block}: block-row rise at the end of a unit-power simulation.
std::vector<double> build_column(const RCModel& model, SolverBackend backend,
                                 double dt, double duration,
                                 std::size_t block) {
  std::vector<double> unit(model.block_count(), 0.0);
  unit[block] = 1.0;
  TransientOptions options;
  options.dt = dt;
  options.backend = backend;
  const TransientResult result =
      simulate_transient(model, unit, duration, ambient_state(model), options);
  const double ambient = model.package().ambient;
  std::vector<double> column(model.block_count());
  for (std::size_t r = 0; r < column.size(); ++r) {
    column[r] = result.final_temperature[r] - ambient;
  }
  return column;
}

/// Steady diagonals inserted into any model's store.
obs::Counter& diagonals_built() {
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("thermal.response_diagonals");
  return counter;
}

}  // namespace

std::vector<const std::vector<double>*> UnitResponses::columns(
    const RCModel& model, SolverBackend backend, double dt, double duration,
    const std::vector<std::size_t>& blocks) {
  const SetKey key{static_cast<int>(backend), bits_of(dt), bits_of(duration)};
  std::vector<const std::vector<double>*> found(blocks.size(), nullptr);
  std::vector<std::size_t> missing;  // positions in `blocks`
  {
    std::scoped_lock lock(mutex_);
    const std::vector<Column>& set =
        sets_.try_emplace(key, model.block_count()).first->second;
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      if (set[blocks[k]]) {
        found[k] = set[blocks[k]].get();
      } else {
        missing.push_back(k);
      }
    }
  }
  if (missing.empty()) return found;

  // Simulate outside the lock; a racing thread may build the same
  // column, in which case the first insert wins and both use it.
  std::vector<Column> built;
  built.reserve(missing.size());
  for (const std::size_t k : missing) {
    built.push_back(std::make_unique<const std::vector<double>>(
        build_column(model, backend, dt, duration, blocks[k])));
  }
  std::scoped_lock lock(mutex_);
  std::vector<Column>& set = sets_.at(key);
  for (std::size_t m = 0; m < missing.size(); ++m) {
    const std::size_t k = missing[m];
    Column& slot = set[blocks[k]];
    if (!slot) {
      slot = std::move(built[m]);
      ++columns_;
      columns_built().add();
    }
    found[k] = slot.get();
  }
  return found;
}

std::vector<double> UnitResponses::rise(const RCModel& model,
                                        SolverBackend backend, double dt,
                                        double duration,
                                        const std::vector<double>& block_power) {
  const std::size_t n = model.block_count();
  std::vector<std::size_t> powered;
  for (std::size_t i = 0; i < n; ++i) {
    if (block_power[i] > 0.0) powered.push_back(i);
  }
  const std::vector<const std::vector<double>*> found =
      columns(model, backend, dt, duration, powered);

  std::vector<double> rise(n, 0.0);
  for (std::size_t k = 0; k < powered.size(); ++k) {
    const double power = block_power[powered[k]];
    const std::vector<double>& column = *found[k];
    for (std::size_t r = 0; r < n; ++r) rise[r] += power * column[r];
  }
  return rise;
}

double UnitResponses::transient_self_response(const RCModel& model,
                                              SolverBackend backend, double dt,
                                              double duration,
                                              std::size_t block) {
  return (*columns(model, backend, dt, duration, {block}).front())[block];
}

double UnitResponses::steady_self_response(const RCModel& model,
                                           SolverBackend backend,
                                           std::size_t block) {
  THERMO_REQUIRE(backend != SolverBackend::kAuto,
                 "steady self-responses need a resolved backend");
  const auto slot = static_cast<std::size_t>(backend);
  {
    std::scoped_lock lock(mutex_);
    if (diagonals_[slot]) return (*diagonals_[slot])[block];
  }
  // Build outside the lock, as columns are: n_blocks unit solves through
  // the model's steady factor, keeping only each solve's own entry.
  auto diagonal = std::make_unique<std::vector<double>>(model.block_count());
  std::vector<double> unit(model.node_count(), 0.0);
  const auto solve = [&](const auto& factor) {
    for (std::size_t i = 0; i < diagonal->size(); ++i) {
      unit[i] = 1.0;
      (*diagonal)[i] = factor->solve(unit)[i];
      unit[i] = 0.0;
    }
  };
  if (backend == SolverBackend::kSparse) {
    solve(ThermalSolverCache::instance().sparse_cholesky(model));
  } else {
    solve(ThermalSolverCache::instance().cholesky(model));
  }
  std::scoped_lock lock(mutex_);
  if (!diagonals_[slot]) {
    diagonals_[slot] = std::move(diagonal);
    ++diagonal_count_;
    diagonals_built().add();
  }
  return (*diagonals_[slot])[block];
}

std::size_t UnitResponses::column_count() const {
  std::scoped_lock lock(mutex_);
  return columns_;
}

std::size_t UnitResponses::diagonal_count() const {
  std::scoped_lock lock(mutex_);
  return diagonal_count_;
}

}  // namespace thermo::thermal

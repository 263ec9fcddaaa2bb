#include "thermal/unit_response.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/transient.hpp"

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

}  // namespace

std::vector<double> UnitResponses::rise(const RCModel& model,
                                        SolverBackend backend, double dt,
                                        double duration,
                                        const std::vector<double>& block_power) {
  const std::size_t n = model.block_count();
  const SetKey key{static_cast<int>(backend), bits_of(dt), bits_of(duration)};
  std::vector<const std::vector<double>*> columns(n, nullptr);
  std::vector<std::size_t> missing;
  {
    std::scoped_lock lock(mutex_);
    const std::vector<Column>& set = sets_.try_emplace(key, n).first->second;
    for (std::size_t i = 0; i < n; ++i) {
      if (block_power[i] <= 0.0) continue;
      if (set[i]) {
        columns[i] = set[i].get();
      } else {
        missing.push_back(i);
      }
    }
  }
  if (!missing.empty()) {
    // Simulate outside the lock; a racing thread may build the same
    // column, in which case the first insert wins and both use it.
    std::vector<Column> built;
    built.reserve(missing.size());
    for (const std::size_t i : missing) {
      built.push_back(std::make_unique<const std::vector<double>>(
          build_column(model, backend, dt, duration, i)));
    }
    std::scoped_lock lock(mutex_);
    std::vector<Column>& set = sets_.at(key);
    for (std::size_t k = 0; k < missing.size(); ++k) {
      Column& slot = set[missing[k]];
      if (!slot) {
        slot = std::move(built[k]);
        ++columns_;
        columns_built().add();
      }
      columns[missing[k]] = slot.get();
    }
  }

  std::vector<double> rise(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (columns[i] == nullptr) continue;
    const std::vector<double>& column = *columns[i];
    for (std::size_t r = 0; r < n; ++r) rise[r] += block_power[i] * column[r];
  }
  return rise;
}

std::size_t UnitResponses::column_count() const {
  std::scoped_lock lock(mutex_);
  return columns_;
}

}  // namespace thermo::thermal

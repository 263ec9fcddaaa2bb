#include "thermal/solver_cache.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace {

std::uint64_t bits_of(double dt) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(dt));
  std::memcpy(&bits, &dt, sizeof(bits));
  return bits;
}

/// Cache observability (docs/OBSERVABILITY.md): hit/miss counts plus
/// the wall time of the factorizations the stores exist to amortize.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Histogram& factor_ns;
};

CacheMetrics& cache_metrics() {
  auto& registry = obs::MetricsRegistry::instance();
  static CacheMetrics metrics{registry.counter("thermal.solver_cache.hits"),
                              registry.counter("thermal.solver_cache.misses"),
                              registry.histogram("thermal.factor_ns")};
  return metrics;
}

}  // namespace

ThermalSolverCache& ThermalSolverCache::instance() {
  static ThermalSolverCache cache;
  return cache;
}

void ThermalSolverCache::count(bool hit) {
  CacheMetrics& metrics = cache_metrics();
  std::scoped_lock lock(mutex_);
  if (hit) {
    ++hits_;
    metrics.hits.add();
  } else {
    ++misses_;
    metrics.misses.add();
  }
}

template <typename T, typename Slot, typename Make>
std::shared_ptr<const T> ThermalSolverCache::fetch(FactorStore& store,
                                                   Slot&& slot_of,
                                                   Make&& make) {
  {
    std::scoped_lock lock(store.mutex);
    const std::shared_ptr<const T>& slot = slot_of(store);
    count(slot != nullptr);
    if (slot) return slot;
  }
  // Factor OUTSIDE the lock: an O(n^3) factorization must not stall
  // every other worker's fetch. Two threads racing the same slot may
  // both factor; the first insert wins and both share its result (the
  // loser's work is discarded — rare, and merely wasted cycles).
  std::shared_ptr<const T> value;
  {
    obs::TraceSpan factor_span("thermal.factor");
    obs::ScopedTimer factor_timer(cache_metrics().factor_ns);
    value = make();
  }
  std::scoped_lock lock(store.mutex);
  std::shared_ptr<const T>& slot = slot_of(store);
  if (!slot) slot = std::move(value);
  return slot;
}

std::shared_ptr<const linalg::CholeskyFactor> ThermalSolverCache::cholesky(
    const RCModel& model) {
  return fetch<linalg::CholeskyFactor>(
      *model.factors_, [](FactorStore& s) -> auto& { return s.cholesky; },
      [&] {
        return std::make_shared<const linalg::CholeskyFactor>(
            model.conductance());
      });
}

std::shared_ptr<const linalg::LuFactor> ThermalSolverCache::lu(
    const RCModel& model) {
  return fetch<linalg::LuFactor>(
      *model.factors_, [](FactorStore& s) -> auto& { return s.lu; },
      [&] {
        return std::make_shared<const linalg::LuFactor>(model.conductance());
      });
}

std::shared_ptr<const linalg::LinearImplicitStepper> ThermalSolverCache::stepper(
    const RCModel& model, double dt) {
  THERMO_REQUIRE(dt > 0.0, "solver cache: dt must be positive");
  const std::uint64_t key = bits_of(dt);
  return fetch<linalg::LinearImplicitStepper>(
      *model.factors_,
      [key](FactorStore& s) -> auto& { return s.steppers[key]; },
      [&] {
        return std::make_shared<const linalg::LinearImplicitStepper>(
            model.conductance(), model.capacitance(), dt);
      });
}

std::shared_ptr<const linalg::SparseCholeskyFactor>
ThermalSolverCache::sparse_cholesky(const RCModel& model) {
  return fetch<linalg::SparseCholeskyFactor>(
      *model.factors_,
      [](FactorStore& s) -> auto& { return s.sparse_cholesky; },
      [&] {
        return std::make_shared<const linalg::SparseCholeskyFactor>(
            model.conductance_sparse());
      });
}

std::shared_ptr<const linalg::SparseImplicitStepper>
ThermalSolverCache::sparse_stepper(const RCModel& model, double dt) {
  THERMO_REQUIRE(dt > 0.0, "solver cache: dt must be positive");
  const std::uint64_t key = bits_of(dt);
  return fetch<linalg::SparseImplicitStepper>(
      *model.factors_,
      [key](FactorStore& s) -> auto& { return s.sparse_steppers[key]; },
      [&] {
        return std::make_shared<const linalg::SparseImplicitStepper>(
            model.conductance_sparse(), model.capacitance(), dt);
      });
}

std::shared_ptr<const linalg::CholeskyFactor> ThermalSolverCache::cholesky(
    const GridThermalModel& model) {
  return fetch<linalg::CholeskyFactor>(
      *model.factors_, [](FactorStore& s) -> auto& { return s.cholesky; },
      [&] {
        return std::make_shared<const linalg::CholeskyFactor>(
            model.conductance().to_dense());
      });
}

std::shared_ptr<const linalg::SparseCholeskyFactor>
ThermalSolverCache::sparse_cholesky(const GridThermalModel& model) {
  return fetch<linalg::SparseCholeskyFactor>(
      *model.factors_,
      [](FactorStore& s) -> auto& { return s.sparse_cholesky; },
      [&] {
        return std::make_shared<const linalg::SparseCholeskyFactor>(
            model.conductance());
      });
}

void ThermalSolverCache::clear() {}

ThermalSolverCache::Stats ThermalSolverCache::stats() const {
  std::scoped_lock lock(mutex_);
  return Stats{hits_, misses_};
}

void ThermalSolverCache::reset_stats() {
  std::scoped_lock lock(mutex_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace thermo::thermal

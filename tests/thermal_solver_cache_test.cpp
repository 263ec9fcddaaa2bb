// ThermalSolverCache: cached solves must agree with cold solves, factors
// must belong to their model (shared by its copies, never aliased across
// different models, freed with the last copy, one per model even when
// threads race), and the hit/miss accounting must reflect reuse.
#include "thermal/solver_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "floorplan/generator.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "test_helpers.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

std::vector<double> centre_power(std::size_t blocks, double watts) {
  std::vector<double> power(blocks, 0.0);
  power[blocks / 2] = watts;
  return power;
}

TEST(ThermalSolverCacheTest, CachedSteadySolveMatchesColdSolve) {
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);

  // Cold: factor from scratch, outside the cache.
  const std::vector<double> expanded = model.expand_power(block_power);
  const linalg::CholeskyFactor cold(model.conductance());
  const std::vector<double> cold_rise = cold.solve(expanded);

  // First call factors into the cache; second call reuses the factor.
  const SteadyStateResult first = solve_steady_state(model, block_power);
  const SteadyStateResult second = solve_steady_state(model, block_power);

  ASSERT_EQ(first.rise.size(), cold_rise.size());
  for (std::size_t i = 0; i < cold_rise.size(); ++i) {
    // Same factorization algorithm on the same matrix: bitwise equal.
    EXPECT_DOUBLE_EQ(first.rise[i], cold_rise[i]);
    EXPECT_DOUBLE_EQ(second.rise[i], cold_rise[i]);
  }
}

TEST(ThermalSolverCacheTest, CachedLuSolveMatchesColdSolve) {
  const RCModel model(quad_floorplan(), PackageParams{});
  const auto block_power = centre_power(4, 8.0);
  const std::vector<double> cold_rise =
      linalg::LuFactor(model.conductance()).solve(model.expand_power(block_power));
  const SteadyStateResult cached =
      solve_steady_state(model, block_power, SteadySolver::kLu);
  const SteadyStateResult again =
      solve_steady_state(model, block_power, SteadySolver::kLu);
  for (std::size_t i = 0; i < cold_rise.size(); ++i) {
    EXPECT_DOUBLE_EQ(cached.rise[i], cold_rise[i]);
    EXPECT_DOUBLE_EQ(again.rise[i], cold_rise[i]);
  }
}

TEST(ThermalSolverCacheTest, RepeatLookupsHitTheCache) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});

  cache.reset_stats();
  const auto first = cache.cholesky(model);
  const auto stats_after_first = cache.stats();
  EXPECT_EQ(stats_after_first.misses, 1u);
  EXPECT_EQ(stats_after_first.hits, 0u);

  const auto second = cache.cholesky(model);
  const auto stats_after_second = cache.stats();
  EXPECT_EQ(stats_after_second.misses, 1u);
  EXPECT_EQ(stats_after_second.hits, 1u);
  EXPECT_EQ(first.get(), second.get());  // literally the same factor
}

TEST(ThermalSolverCacheTest, CopiesShareIdentityAndFactors) {
  // A copy holds the same factor store: every factor kind, and the
  // dense mirror, is built once for the model and all its copies —
  // whether the copy was taken before or after the factor was built.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  const RCModel early = model;  // NOLINT(performance-unnecessary-copy-initialization)
  const auto factor = cache.cholesky(model);
  RCModel late(quad_floorplan(), PackageParams{});
  late = model;
  EXPECT_EQ(factor.get(), cache.cholesky(early).get());
  EXPECT_EQ(factor.get(), cache.cholesky(late).get());
  EXPECT_EQ(cache.lu(early).get(), cache.lu(late).get());
  EXPECT_EQ(cache.sparse_cholesky(early).get(),
            cache.sparse_cholesky(model).get());
  EXPECT_EQ(cache.stepper(late, 1e-3).get(), cache.stepper(model, 1e-3).get());
  EXPECT_EQ(cache.sparse_stepper(early, 1e-3).get(),
            cache.sparse_stepper(late, 1e-3).get());
  EXPECT_EQ(&model.conductance(), &early.conductance());
  EXPECT_EQ(&model.conductance(), &late.conductance());

  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{4, 4});
  const GridThermalModel grid_copy = grid;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(cache.sparse_cholesky(grid).get(),
            cache.sparse_cholesky(grid_copy).get());
}

TEST(ThermalSolverCacheTest, DistinctModelsNeverAliasEntries) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  // Identical construction parameters still yield distinct stores — a
  // rebuilt model can never pick up a stale factor.
  const RCModel a(nine_floorplan(), PackageParams{});
  const RCModel b(nine_floorplan(), PackageParams{});
  EXPECT_NE(cache.cholesky(a).get(), cache.cholesky(b).get());

  // A genuinely different model (hotter package) must produce different
  // temperatures even when solved back-to-back through the cache.
  PackageParams warmer;
  warmer.r_convec *= 2.0;
  const RCModel c(nine_floorplan(), warmer);
  const auto block_power = centre_power(9, 10.0);
  const SteadyStateResult cool = solve_steady_state(a, block_power);
  const SteadyStateResult warm = solve_steady_state(c, block_power);
  EXPECT_GT(warm.rise[4], cool.rise[4]);
}

TEST(ThermalSolverCacheTest, GridModelFactorsHitTheCache) {
  // GridThermalModel factors go through the same fetch path as RCModel
  // factors: repeat lookups must hit, and the dense and sparse flavours
  // are separate slots.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{6, 6});

  cache.reset_stats();
  const auto first = cache.sparse_cholesky(grid);
  const auto second = cache.sparse_cholesky(grid);
  EXPECT_EQ(first.get(), second.get());
  const auto dense = cache.cholesky(grid);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // one sparse factor + one dense factor
  EXPECT_EQ(first->size(), grid.node_count());
  EXPECT_EQ(dense->size(), grid.node_count());
}

TEST(ThermalSolverCacheTest, GridAndBlockModelsNeverAlias) {
  // Each model owns its own store, so a grid model and a block model
  // built from the same floorplan never share a factor.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel block(quad_floorplan(), PackageParams{});
  const GridThermalModel grid(quad_floorplan(), PackageParams{},
                              GridOptions{6, 6});
  EXPECT_NE(
      static_cast<const void*>(cache.sparse_cholesky(block).get()),
      static_cast<const void*>(cache.sparse_cholesky(grid).get()));
}

TEST(ThermalSolverCacheTest, TransientStepperIsCachedPerDt) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto s1 = cache.stepper(model, 1e-3);
  const auto s2 = cache.stepper(model, 1e-3);
  const auto s3 = cache.stepper(model, 2e-3);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_THROW(cache.stepper(model, 0.0), InvalidArgument);
}

TEST(ThermalSolverCacheTest, RepeatedTransientSimulationsAgreeExactly) {
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto block_power = centre_power(9, 10.0);
  const auto initial = ambient_state(model);
  TransientOptions options;
  options.dt = 1e-3;

  // A freshly built model: the first run factors, the second reuses.
  const TransientResult cold =
      simulate_transient(model, block_power, 0.02, initial, options);
  const TransientResult cached =
      simulate_transient(model, block_power, 0.02, initial, options);
  ASSERT_EQ(cold.steps, cached.steps);
  for (std::size_t i = 0; i < cold.final_temperature.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold.final_temperature[i], cached.final_temperature[i]);
    EXPECT_DOUBLE_EQ(cold.peak_temperature[i], cached.peak_temperature[i]);
  }
}

TEST(ThermalSolverCacheTest, ClearEmptiesTheCache) {
  // The cache itself holds no factors, so clear() has nothing to empty:
  // the model's factors survive it and the next fetch is a hit.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(quad_floorplan(), PackageParams{});
  const auto factor = cache.cholesky(model);
  const auto stepper = cache.stepper(model, 1e-3);
  cache.clear();
  cache.reset_stats();
  EXPECT_EQ(cache.cholesky(model).get(), factor.get());
  EXPECT_EQ(cache.stepper(model, 1e-3).get(), stepper.get());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ThermalSolverCacheTest, FactorsAreFreedWithTheLastCopyOfTheirModel) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  auto model = std::make_unique<RCModel>(nine_floorplan(), PackageParams{});
  const std::weak_ptr<const linalg::CholeskyFactor> cholesky =
      cache.cholesky(*model);
  const std::weak_ptr<const linalg::LuFactor> lu = cache.lu(*model);
  const std::weak_ptr<const linalg::SparseCholeskyFactor> sparse =
      cache.sparse_cholesky(*model);
  const std::weak_ptr<const linalg::LinearImplicitStepper> stepper =
      cache.stepper(*model, 1e-3);
  const std::weak_ptr<const linalg::SparseImplicitStepper> sparse_stepper =
      cache.sparse_stepper(*model, 1e-3);

  // A surviving copy keeps them alive...
  auto copy = std::make_unique<RCModel>(*model);
  model.reset();
  EXPECT_FALSE(cholesky.expired());
  EXPECT_FALSE(lu.expired());
  EXPECT_FALSE(sparse.expired());
  EXPECT_FALSE(stepper.expired());
  EXPECT_FALSE(sparse_stepper.expired());
  EXPECT_EQ(cache.cholesky(*copy).get(), cholesky.lock().get());

  // ...and the last copy takes them with it.
  copy.reset();
  EXPECT_TRUE(cholesky.expired());
  EXPECT_TRUE(lu.expired());
  EXPECT_TRUE(sparse.expired());
  EXPECT_TRUE(stepper.expired());
  EXPECT_TRUE(sparse_stepper.expired());

  auto grid = std::make_unique<GridThermalModel>(
      quad_floorplan(), PackageParams{}, GridOptions{4, 4});
  const std::weak_ptr<const linalg::CholeskyFactor> grid_dense =
      cache.cholesky(*grid);
  const std::weak_ptr<const linalg::SparseCholeskyFactor> grid_sparse =
      cache.sparse_cholesky(*grid);
  grid.reset();
  EXPECT_TRUE(grid_dense.expired());
  EXPECT_TRUE(grid_sparse.expired());
}

TEST(ThermalSolverCacheTest, ThreadsRacingOnAColdModelGetOneFactor) {
  // 16×16 blocks (266 nodes): each factorization takes long enough for
  // the threads to overlap. Every thread must come back with the one
  // factor that won the first insert, whoever built it.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(floorplan::make_grid_floorplan(16, 16, 0.016, 0.016),
                      PackageParams{});
  constexpr std::size_t kThreads = 8;
  std::vector<const void*> dense(kThreads), sparse(kThreads),
      stepper(kThreads), mirror(kThreads);
  std::atomic<std::size_t> ready{0};
  cache.reset_stats();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      dense[t] = cache.cholesky(model).get();
      sparse[t] = cache.sparse_cholesky(model).get();
      stepper[t] = cache.stepper(model, 1e-3).get();
      mirror[t] = &model.conductance();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(dense[t], dense[0]);
    EXPECT_EQ(sparse[t], sparse[0]);
    EXPECT_EQ(stepper[t], stepper[0]);
    EXPECT_EQ(mirror[t], mirror[0]);
  }
  const ThermalSolverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 3 * kThreads);
  EXPECT_GE(stats.misses, 3u);
  // Once the race is over, the winners stay.
  EXPECT_EQ(cache.cholesky(model).get(), dense[0]);
}

}  // namespace
}  // namespace thermo::thermal

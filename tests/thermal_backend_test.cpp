// SolverBackend: dense and sparse backends must agree to the documented
// 1e-9 relative tolerance on steady and transient solves (random
// synthetic SoCs), kAuto must resolve by node count, and the sparse
// factor/stepper slots must mirror the dense ones' hit / per-dt /
// no-aliasing semantics (thermal_solver_cache_test).
#include "thermal/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "floorplan/generator.hpp"
#include "soc/synthetic.hpp"
#include "test_helpers.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/solver_cache.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

/// Documented cross-backend agreement bound (docs/SOLVERS.md "Choosing
/// a backend"): two direct factorizations of the same well-conditioned
/// SPD system, so 1e-9 relative is generous.
constexpr double kBackendTolerance = 1e-9;

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale =
        std::max(1e-30, std::max(std::fabs(a[i]), std::fabs(b[i])));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

/// A grid model big enough that kAuto resolves to the sparse backend.
RCModel large_grid_model() {
  const floorplan::Floorplan fp =
      floorplan::make_grid_floorplan(17, 17, 0.016, 0.016);  // 299 nodes
  return RCModel(fp, PackageParams{});
}

TEST(SolverBackendTest, ResolveByNodeCount) {
  EXPECT_EQ(resolve_backend(SolverBackend::kDense, 100000),
            SolverBackend::kDense);
  EXPECT_EQ(resolve_backend(SolverBackend::kSparse, 4),
            SolverBackend::kSparse);
  EXPECT_EQ(resolve_backend(SolverBackend::kAuto, kSparseBackendCrossover - 1),
            SolverBackend::kDense);
  EXPECT_EQ(resolve_backend(SolverBackend::kAuto, kSparseBackendCrossover),
            SolverBackend::kSparse);
  EXPECT_EQ(resolve_backend(SolverBackend::kAuto, 10 * kSparseBackendCrossover),
            SolverBackend::kSparse);
}

TEST(SolverBackendTest, Names) {
  EXPECT_STREQ(solver_backend_name(SolverBackend::kDense), "dense");
  EXPECT_STREQ(solver_backend_name(SolverBackend::kSparse), "sparse");
  EXPECT_STREQ(solver_backend_name(SolverBackend::kAuto), "auto");
  // name -> enum is the exact inverse, and the single source of truth
  // for the CLI flag and the scenario request parser.
  for (SolverBackend backend : {SolverBackend::kDense, SolverBackend::kSparse,
                                SolverBackend::kAuto}) {
    EXPECT_EQ(solver_backend_from_name(solver_backend_name(backend)), backend);
  }
  EXPECT_EQ(solver_backend_from_name("cuda"), std::nullopt);
  EXPECT_EQ(solver_backend_from_name(""), std::nullopt);
}

TEST(SolverBackendTest, BackendsAgreeOnRandomSyntheticSocs) {
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    Rng rng(seed);
    soc::SyntheticOptions options;
    options.core_count = 40;
    const core::SocSpec soc = soc::make_synthetic_soc(rng, options);
    const RCModel model(soc.flp, soc.package);
    const std::vector<double> power = soc.test_powers();

    SteadyStateOptions dense_opts;
    dense_opts.backend = SolverBackend::kDense;
    SteadyStateOptions sparse_opts;
    sparse_opts.backend = SolverBackend::kSparse;
    const SteadyStateResult steady_dense =
        solve_steady_state(model, power, dense_opts);
    const SteadyStateResult steady_sparse =
        solve_steady_state(model, power, sparse_opts);
    EXPECT_LT(max_rel_diff(steady_dense.rise, steady_sparse.rise),
              kBackendTolerance)
        << "seed=" << seed;

    TransientOptions dense_topt;
    dense_topt.backend = SolverBackend::kDense;
    TransientOptions sparse_topt;
    sparse_topt.backend = SolverBackend::kSparse;
    const auto initial = ambient_state(model);
    const TransientResult tr_dense =
        simulate_transient(model, power, 0.035, initial, dense_topt);
    const TransientResult tr_sparse =
        simulate_transient(model, power, 0.035, initial, sparse_topt);
    ASSERT_EQ(tr_dense.steps, tr_sparse.steps);
    EXPECT_LT(max_rel_diff(tr_dense.final_temperature,
                           tr_sparse.final_temperature),
              kBackendTolerance)
        << "seed=" << seed;
    EXPECT_LT(
        max_rel_diff(tr_dense.peak_temperature, tr_sparse.peak_temperature),
        kBackendTolerance)
        << "seed=" << seed;
  }
}

TEST(SolverBackendTest, AutoPicksDenseBelowAndSparseAboveTheCrossover) {
  // Small model: kAuto must take the EXACT dense path (same cached
  // factor, bit-identical result).
  const RCModel small(nine_floorplan(), PackageParams{});
  ASSERT_LT(small.node_count(), kSparseBackendCrossover);
  const std::vector<double> small_power(9, 4.0);
  SteadyStateOptions auto_opts;  // backend defaults to kAuto
  SteadyStateOptions dense_opts;
  dense_opts.backend = SolverBackend::kDense;
  const auto via_auto = solve_steady_state(small, small_power, auto_opts);
  const auto via_dense = solve_steady_state(small, small_power, dense_opts);
  for (std::size_t i = 0; i < via_auto.rise.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_auto.rise[i], via_dense.rise[i]);
  }

  // Large model: kAuto must take the EXACT sparse path.
  const RCModel large = large_grid_model();
  ASSERT_GE(large.node_count(), kSparseBackendCrossover);
  const std::vector<double> large_power(large.block_count(), 1.0);
  SteadyStateOptions sparse_opts;
  sparse_opts.backend = SolverBackend::kSparse;
  const auto large_auto = solve_steady_state(large, large_power, auto_opts);
  const auto large_sparse = solve_steady_state(large, large_power, sparse_opts);
  for (std::size_t i = 0; i < large_auto.rise.size(); ++i) {
    EXPECT_DOUBLE_EQ(large_auto.rise[i], large_sparse.rise[i]);
  }
}

TEST(SolverBackendTest, Rk4MatrixFreeSparsePathAgreesWithDense) {
  // The explicit integrator's stage derivative is a G product: dense n²
  // below the backend choice, the CSR SpMV fast path under kSparse
  // (ROADMAP "matrix-free RK4"). Same nonzero terms, same within-row
  // order, so the two must agree to roundoff — far inside the 1e-9
  // cross-backend bound.
  const RCModel model(quad_floorplan(), PackageParams{});
  const std::vector<double> power(model.block_count(), 6.0);
  const auto initial = ambient_state(model);
  TransientOptions dense_opts;
  dense_opts.integrator = TransientIntegrator::kRk4;
  dense_opts.dt = 1e-5;  // explicit integration of a stiff system
  dense_opts.backend = SolverBackend::kDense;
  TransientOptions sparse_opts = dense_opts;
  sparse_opts.backend = SolverBackend::kSparse;
  const TransientResult dense =
      simulate_transient(model, power, 0.005, initial, dense_opts);
  const TransientResult sparse =
      simulate_transient(model, power, 0.005, initial, sparse_opts);
  ASSERT_EQ(dense.steps, sparse.steps);
  EXPECT_LT(max_rel_diff(dense.final_temperature, sparse.final_temperature),
            kBackendTolerance);
  EXPECT_LT(max_rel_diff(dense.peak_temperature, sparse.peak_temperature),
            kBackendTolerance);
  // And the explicit path must track the implicit one on this horizon
  // (the existing RK4-vs-BE bound, re-checked through the sparse path).
  TransientOptions be_opts;
  be_opts.dt = 1e-5;
  be_opts.backend = SolverBackend::kSparse;
  const TransientResult be =
      simulate_transient(model, power, 0.005, initial, be_opts);
  EXPECT_LT(max_rel_diff(sparse.final_temperature, be.final_temperature),
            1e-3);
}

TEST(SolverBackendTest, AnalyzerHonoursTheBackend) {
  const core::SocSpec soc = testing::nine_soc();
  ThermalAnalyzer::Options dense_opts;
  dense_opts.backend = SolverBackend::kDense;
  ThermalAnalyzer::Options sparse_opts;
  sparse_opts.backend = SolverBackend::kSparse;
  ThermalAnalyzer dense(soc.flp, soc.package, dense_opts);
  ThermalAnalyzer sparse(soc.flp, soc.package, sparse_opts);
  const SessionSimulation sim_dense =
      dense.simulate_session(soc.test_powers(), 0.5);
  const SessionSimulation sim_sparse =
      sparse.simulate_session(soc.test_powers(), 0.5);
  EXPECT_EQ(sim_dense.hottest_block, sim_sparse.hottest_block);
  EXPECT_LT(max_rel_diff(sim_dense.peak_temperature,
                         sim_sparse.peak_temperature),
            kBackendTolerance);
}

// --- sparse factor slots: mirror thermal_solver_cache_test -----------

TEST(SparseSolverCacheTest, RepeatSparseLookupsHitTheCache) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  cache.reset_stats();
  const auto first = cache.sparse_cholesky(model);
  EXPECT_EQ(cache.stats().misses, 1u);
  const auto second = cache.sparse_cholesky(model);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.get(), second.get());

  // Dense and sparse factors of the same model are distinct slots.
  const auto dense = cache.cholesky(model);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(static_cast<const void*>(first.get()),
            static_cast<const void*>(dense.get()));
}

TEST(SparseSolverCacheTest, DistinctModelsNeverAlias) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel a(nine_floorplan(), PackageParams{});
  const RCModel b(nine_floorplan(), PackageParams{});
  EXPECT_NE(cache.sparse_cholesky(a).get(), cache.sparse_cholesky(b).get());
  const RCModel copy = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(cache.sparse_cholesky(a).get(), cache.sparse_cholesky(copy).get());
}

TEST(SparseSolverCacheTest, SparseStepperIsCachedPerDt) {
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  const RCModel model(nine_floorplan(), PackageParams{});
  const auto s1 = cache.sparse_stepper(model, 1e-3);
  const auto s2 = cache.sparse_stepper(model, 1e-3);
  const auto s3 = cache.sparse_stepper(model, 2e-3);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_THROW(cache.sparse_stepper(model, 0.0), InvalidArgument);
  // Dense and sparse steppers at the same dt are distinct slots.
  EXPECT_NE(static_cast<const void*>(s1.get()),
            static_cast<const void*>(cache.stepper(model, 1e-3).get()));
}

}  // namespace
}  // namespace thermo::thermal

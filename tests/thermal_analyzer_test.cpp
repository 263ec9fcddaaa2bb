#include "thermal/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "test_helpers.hpp"
#include "thermal/transient.hpp"
#include "thermal/unit_response.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::thermal {
namespace {

using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

class AnalyzerTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = quad_floorplan();
  PackageParams pkg_;
  ThermalAnalyzer analyzer_{fp_, pkg_};
};

TEST_F(AnalyzerTest, SimulateSessionReportsHottestBlock) {
  const SessionSimulation sim =
      analyzer_.simulate_session({10.0, 0.0, 0.0, 0.0}, 1.0);
  ASSERT_EQ(sim.peak_temperature.size(), 4u);
  EXPECT_EQ(sim.hottest_block, 0u);
  EXPECT_DOUBLE_EQ(sim.max_temperature, sim.peak_temperature[0]);
  EXPECT_GT(sim.max_temperature, pkg_.ambient);
}

TEST_F(AnalyzerTest, EffortAccumulatesSessionTime) {
  analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 1.0);
  analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 2.5);
  EXPECT_DOUBLE_EQ(analyzer_.simulation_effort(), 3.5);
  EXPECT_EQ(analyzer_.simulation_count(), 2u);
}

TEST_F(AnalyzerTest, ResetEffortClearsCounters) {
  analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 1.0);
  analyzer_.reset_effort();
  EXPECT_DOUBLE_EQ(analyzer_.simulation_effort(), 0.0);
  EXPECT_EQ(analyzer_.simulation_count(), 0u);
}

TEST_F(AnalyzerTest, SteadyTemperaturesExceedTransientPeaks) {
  const SessionSimulation transient =
      analyzer_.simulate_session({5.0, 5.0, 0.0, 0.0}, 1.0);
  const std::vector<double> steady =
      analyzer_.steady_block_temperatures({5.0, 5.0, 0.0, 0.0});
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_GE(steady[b] + 1e-9, transient.peak_temperature[b]);
  }
}

TEST_F(AnalyzerTest, SteadyOracleModeChargesEffortButSkipsTransient) {
  ThermalAnalyzer::Options options;
  options.transient = false;
  ThermalAnalyzer steady_analyzer(fp_, pkg_, options);
  const SessionSimulation sim =
      steady_analyzer.simulate_session({5.0, 0.0, 0.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(steady_analyzer.simulation_effort(), 1.0);
  // Steady oracle is more pessimistic than the transient one.
  const SessionSimulation tr =
      analyzer_.simulate_session({5.0, 0.0, 0.0, 0.0}, 1.0);
  EXPECT_GE(sim.max_temperature + 1e-9, tr.max_temperature);
}

TEST_F(AnalyzerTest, MoreConcurrencyIsHotter) {
  const SessionSimulation solo =
      analyzer_.simulate_session({8.0, 0.0, 0.0, 0.0}, 1.0);
  const SessionSimulation duo =
      analyzer_.simulate_session({8.0, 8.0, 0.0, 0.0}, 1.0);
  EXPECT_GT(duo.max_temperature, solo.max_temperature);
}

TEST_F(AnalyzerTest, ValidatesInputs) {
  EXPECT_THROW(analyzer_.simulate_session({1.0, 0.0, 0.0, 0.0}, 0.0),
               InvalidArgument);
  EXPECT_THROW(analyzer_.simulate_session({1.0}, 1.0), InvalidArgument);
  ThermalAnalyzer::Options bad;
  bad.dt = 0.0;
  EXPECT_THROW(ThermalAnalyzer(fp_, pkg_, bad), InvalidArgument);
}

TEST_F(AnalyzerTest, AnalyzersSharingAModelShareFactors) {
  // The pattern core::sweep_stcl and the serve workers rely on:
  // analyzers are per-thread, the model (and thus the cached factors)
  // is shared. Concurrent per-thread analyzers must reproduce what one
  // analyzer on the same model computes serially.
  const auto model =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  const auto peak_for = [&](ThermalAnalyzer& analyzer, std::size_t i) {
    std::vector<double> power(model->block_count(), 0.0);
    power[i % model->block_count()] = 10.0;
    return analyzer.simulate_session(power, 0.01).max_temperature;
  };
  constexpr std::size_t kRuns = 6;
  std::vector<double> parallel(kRuns, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ThermalAnalyzer analyzer(model);
      for (std::size_t i = t; i < kRuns; i += 3) {
        parallel[i] = peak_for(analyzer, i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ThermalAnalyzer serial(model);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_GT(parallel[i], 45.0);  // sane: above ambient
    EXPECT_DOUBLE_EQ(parallel[i], peak_for(serial, i)) << "run " << i;
  }
}

// --- superposition of cached unit responses (unit_response.hpp) ---

/// Alpha, fig1 and three random synthetic SoCs; `ragged` gives the
/// synthetic ones mixed test lengths.
std::vector<core::SocSpec> corpus(bool ragged) {
  std::vector<core::SocSpec> socs{soc::alpha_soc(), soc::fig1_soc()};
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    Rng rng(seed);
    soc::SyntheticOptions options;
    options.core_count = 6 + seed % 11;
    if (ragged) {
      options.test_length_min = 0.05;
      options.test_length_max = 0.3;
    }
    socs.push_back(soc::make_synthetic_soc(rng, options));
  }
  return socs;
}

bool close(double a, double b, double relative) {
  return std::abs(a - b) <= relative * std::max(std::abs(a), std::abs(b));
}

TEST(Superposition, SteppedRiseFromAmbientIsMonotone) {
  // The premise of answering a session with its end state: from ambient
  // under non-negative power the backward-Euler rise never decreases,
  // so every node's peak is its final temperature — also across a
  // fractional last step (0.1234 s at dt 1 ms).
  Rng rng(5);
  for (const core::SocSpec& soc : corpus(false)) {
    const RCModel model(soc.flp, soc.package);
    for (const SolverBackend backend :
         {SolverBackend::kDense, SolverBackend::kSparse}) {
      for (const double duration : {0.25, 0.1234}) {
        std::vector<double> power(model.block_count(), 0.0);
        for (double& p : power) p = rng.chance(0.5) ? rng.uniform(0.0, 20.0) : 0.0;
        TransientOptions options;
        options.backend = backend;
        const TransientResult result = simulate_transient(
            model, power, duration, ambient_state(model), options);
        for (std::size_t node = 0; node < model.node_count(); ++node) {
          EXPECT_TRUE(close(result.peak_temperature[node],
                            result.final_temperature[node], 1e-12))
              << soc.name << " " << solver_backend_name(backend) << " "
              << duration << " s, node " << node << ": peak "
              << result.peak_temperature[node] << " final "
              << result.final_temperature[node];
        }
      }
    }
  }
}

TEST(Superposition, MatchesTheStepperOnRandomSessions) {
  // Random sessions over uniform and mixed test lengths: the superposed
  // peaks must agree with a direct simulation from ambient.
  Rng rng(11);
  for (const bool ragged : {false, true}) {
    for (const core::SocSpec& soc : corpus(ragged)) {
      const auto model = std::make_shared<const RCModel>(soc.flp, soc.package);
      for (const SolverBackend backend :
           {SolverBackend::kDense, SolverBackend::kSparse}) {
        ThermalAnalyzer::Options options;
        options.backend = backend;
        ThermalAnalyzer analyzer(model, options);
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<double> power(model->block_count(), 0.0);
          double length = 0.0;
          for (std::size_t core = 0; core < soc.core_count(); ++core) {
            if (!rng.chance(0.5)) continue;
            power[core] = soc.tests[core].power;
            length = std::max(length, std::min(soc.tests[core].length, 0.3));
          }
          if (length == 0.0) continue;
          const SessionSimulation sim = analyzer.simulate_session(power, length);
          TransientOptions topt;
          topt.backend = backend;
          const TransientResult direct = simulate_transient(
              *model, power, length, ambient_state(*model), topt);
          for (std::size_t b = 0; b < model->block_count(); ++b) {
            EXPECT_TRUE(close(sim.peak_temperature[b],
                              direct.peak_temperature[b], 1e-9))
                << soc.name << " " << solver_backend_name(backend)
                << " block " << b << ": " << sim.peak_temperature[b]
                << " vs " << direct.peak_temperature[b];
          }
          EXPECT_TRUE(close(sim.max_temperature, max_block_peak(*model, direct),
                            1e-9));
        }
      }
    }
  }
}

TEST(Superposition, DenseAndSparseNeverShareColumns) {
  const auto model =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  const UnitResponses& store = model->unit_responses();
  std::vector<double> power(model->block_count(), 0.0);
  power[0] = 4.0;
  power[4] = 2.0;
  ThermalAnalyzer::Options dense_options;
  dense_options.backend = SolverBackend::kDense;
  ThermalAnalyzer::Options sparse_options;
  sparse_options.backend = SolverBackend::kSparse;
  ThermalAnalyzer dense(model, dense_options);
  ThermalAnalyzer sparse(model, sparse_options);
  ThermalAnalyzer automatic(model);  // 19 nodes: kAuto resolves to dense

  dense.simulate_session(power, 0.05);
  EXPECT_EQ(store.column_count(), 2u);
  sparse.simulate_session(power, 0.05);
  EXPECT_EQ(store.column_count(), 4u);
  automatic.simulate_session(power, 0.05);
  EXPECT_EQ(store.column_count(), 4u);
  // A copy of the model shares its columns, as it shares its factors.
  const RCModel copy(*model);
  EXPECT_EQ(&copy.unit_responses(), &store);
  // Another duration is another key.
  dense.simulate_session(power, 0.04);
  EXPECT_EQ(store.column_count(), 6u);
}

TEST(Superposition, RejectsUnusableDurationsAndPowers) {
  const auto model =
      std::make_shared<const RCModel>(quad_floorplan(), PackageParams{});
  ThermalAnalyzer analyzer(model);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double duration : {nan, inf, -inf, -1.0, 0.0}) {
    EXPECT_THROW(analyzer.simulate_session({1.0, 0.0, 0.0, 0.0}, duration),
                 InvalidArgument)
        << "duration " << duration;
  }
  for (const double power : {nan, inf, -1.0}) {
    EXPECT_THROW(analyzer.simulate_session({1.0, power, 0.0, 0.0}, 0.05),
                 InvalidArgument)
        << "power " << power;
  }
  EXPECT_THROW(analyzer.simulate_session({1.0, 0.0, 0.0}, 0.05),
               InvalidArgument);
  // Nothing was charged or built for the rejected calls.
  EXPECT_EQ(analyzer.simulation_count(), 0u);
  EXPECT_EQ(model->unit_responses().column_count(), 0u);
}

TEST(Superposition, RacingThreadsGetBitIdenticalResults) {
  // Four threads validate the same sessions on one cold model, each in
  // its own order, so they race to build the same columns. Every result
  // must equal, bit for bit, a serial run on a separate cold model.
  const core::SocSpec soc = soc::alpha_soc();
  const std::size_t n = soc.core_count();
  std::vector<std::vector<double>> sessions;
  for (std::size_t k = 0; k < 12; ++k) {
    std::vector<double> power(n, 0.0);
    for (std::size_t core = k % 3; core < n; core += 1 + k % 4) {
      power[core] = soc.tests[core].power;
    }
    sessions.push_back(power);
  }
  const auto run = [&](ThermalAnalyzer& analyzer, std::size_t k) {
    return analyzer.simulate_session(sessions[k], 0.2).peak_temperature;
  };

  const auto serial_model =
      std::make_shared<const RCModel>(soc.flp, soc.package);
  ThermalAnalyzer serial(serial_model);
  std::vector<std::vector<double>> expected;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    expected.push_back(run(serial, k));
  }

  const auto shared = std::make_shared<const RCModel>(soc.flp, soc.package);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<double>>> got(
      kThreads, std::vector<std::vector<double>>(sessions.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThermalAnalyzer analyzer(shared);
      for (std::size_t j = 0; j < sessions.size(); ++j) {
        const std::size_t k = (j + 3 * t) % sessions.size();
        got[t][k] = run(analyzer, k);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      EXPECT_EQ(got[t][k], expected[k]) << "thread " << t << " session " << k;
    }
  }
  EXPECT_EQ(shared->unit_responses().column_count(),
            serial_model->unit_responses().column_count());
}

// --- solo peaks from cached self-responses (ThermalAnalyzer::solo_peak) ---

ThermalAnalyzer::Options oracle(bool transient, SolverBackend backend) {
  ThermalAnalyzer::Options options;
  options.transient = transient;
  options.backend = backend;
  return options;
}

std::vector<double> solo_power(const core::SocSpec& soc, std::size_t core) {
  std::vector<double> power(soc.core_count(), 0.0);
  power[core] = soc.tests[core].power;
  return power;
}

TEST(SoloPeak, TransientIsBitEqualToTheSimulatedSolo) {
  // Each core alone, as Algorithm 1's pre-pass runs it, over uniform and
  // mixed test lengths. The simulated side runs on its own cold model,
  // so it builds its columns independently.
  for (const bool ragged : {false, true}) {
    for (const core::SocSpec& soc : corpus(ragged)) {
      for (const SolverBackend backend :
           {SolverBackend::kDense, SolverBackend::kSparse}) {
        ThermalAnalyzer solo(std::make_shared<const RCModel>(soc.flp, soc.package),
                             oracle(true, backend));
        ThermalAnalyzer simulated(
            std::make_shared<const RCModel>(soc.flp, soc.package),
            oracle(true, backend));
        for (std::size_t i = 0; i < soc.core_count(); ++i) {
          const double length = soc.tests[i].length;
          const SessionSimulation sim =
              simulated.simulate_session(solo_power(soc, i), length);
          EXPECT_EQ(solo.solo_peak(i, soc.tests[i].power, length),
                    sim.peak_temperature[i])
              << soc.name << " " << solver_backend_name(backend) << " core " << i;
        }
        // Charged exactly as the simulations were.
        EXPECT_EQ(solo.simulation_count(), simulated.simulation_count());
        EXPECT_EQ(solo.simulation_effort(), simulated.simulation_effort());
      }
    }
  }
}

TEST(SoloPeak, SteadyMatchesADirectSolve) {
  for (const core::SocSpec& soc : corpus(false)) {
    const auto model = std::make_shared<const RCModel>(soc.flp, soc.package);
    for (const SolverBackend backend :
         {SolverBackend::kDense, SolverBackend::kSparse}) {
      ThermalAnalyzer analyzer(model, oracle(false, backend));
      SteadyStateOptions direct;
      direct.backend = backend;
      for (std::size_t i = 0; i < soc.core_count(); ++i) {
        const double expected =
            solve_steady_state(*model, solo_power(soc, i), direct).temperature[i];
        const double got = analyzer.solo_peak(i, soc.tests[i].power, 0.5);
        EXPECT_TRUE(close(got, expected, 1e-12))
            << soc.name << " " << solver_backend_name(backend) << " core " << i
            << ": " << got << " vs " << expected;
      }
      EXPECT_EQ(analyzer.simulation_count(), soc.core_count());
    }
    // One diagonal per backend, shared by copies of the model; steady
    // solo peaks build no transient columns.
    EXPECT_EQ(model->unit_responses().diagonal_count(), 2u);
    EXPECT_EQ(model->unit_responses().column_count(), 0u);
    const RCModel copy(*model);
    EXPECT_EQ(&copy.unit_responses(), &model->unit_responses());
  }
}

TEST(SoloPeak, ZeroPowerReadsAmbientAndBuildsNothing) {
  const auto model =
      std::make_shared<const RCModel>(nine_floorplan(), PackageParams{});
  for (const bool transient : {true, false}) {
    for (const SolverBackend backend :
         {SolverBackend::kDense, SolverBackend::kSparse}) {
      ThermalAnalyzer analyzer(model, oracle(transient, backend));
      for (std::size_t i = 0; i < model->block_count(); ++i) {
        EXPECT_EQ(analyzer.solo_peak(i, 0.0, 0.05), model->package().ambient);
      }
      EXPECT_EQ(analyzer.simulation_count(), model->block_count());
    }
  }
  EXPECT_EQ(model->unit_responses().column_count(), 0u);
  EXPECT_EQ(model->unit_responses().diagonal_count(), 0u);
}

TEST(SoloPeak, RejectsUnusableDurationsPowersAndBlocks) {
  const auto model =
      std::make_shared<const RCModel>(quad_floorplan(), PackageParams{});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool transient : {true, false}) {
    ThermalAnalyzer analyzer(model, oracle(transient, SolverBackend::kAuto));
    for (const double duration : {nan, inf, -inf, -1.0, 0.0}) {
      EXPECT_THROW(analyzer.solo_peak(0, 1.0, duration), InvalidArgument)
          << "duration " << duration;
    }
    for (const double power : {nan, inf, -inf, -1.0}) {
      EXPECT_THROW(analyzer.solo_peak(0, power, 0.05), InvalidArgument)
          << "power " << power;
    }
    EXPECT_THROW(analyzer.solo_peak(4, 1.0, 0.05), InvalidArgument);
    EXPECT_EQ(analyzer.simulation_count(), 0u);
    EXPECT_EQ(analyzer.simulation_effort(), 0.0);
  }
  EXPECT_EQ(model->unit_responses().column_count(), 0u);
  EXPECT_EQ(model->unit_responses().diagonal_count(), 0u);
}

TEST(SoloPeak, RacingThreadsOnAColdModelGetOneDiagonal) {
  // Four steady analyzers on one cold model ask for every core's solo
  // peak, each in its own order, so they race to build the diagonal.
  // The first insert wins: one diagonal, and every answer equals a
  // serial run on a separate cold model bit for bit.
  Rng rng(3);
  soc::SyntheticOptions synthetic;
  synthetic.core_count = 300;
  const core::SocSpec soc = soc::make_synthetic_soc(rng, synthetic);
  const std::size_t n = soc.core_count();
  const auto options = oracle(false, SolverBackend::kSparse);

  ThermalAnalyzer serial(std::make_shared<const RCModel>(soc.flp, soc.package),
                         options);
  std::vector<double> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = serial.solo_peak(i, soc.tests[i].power, 1.0);
  }

  const auto shared = std::make_shared<const RCModel>(soc.flp, soc.package);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(n));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThermalAnalyzer analyzer(shared, options);
      start.arrive_and_wait();
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t i = (j + 7 * t) % n;
        got[t][i] = analyzer.solo_peak(i, soc.tests[i].power, 1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
  EXPECT_EQ(shared->unit_responses().diagonal_count(), 1u);
}

}  // namespace
}  // namespace thermo::thermal

#include "thermal/analyzer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"

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

}  // namespace
}  // namespace thermo::thermal

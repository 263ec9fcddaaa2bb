#include "thermal/analyzer.hpp"

#include <algorithm>
#include <cmath>

#include "thermal/unit_response.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

ThermalAnalyzer::ThermalAnalyzer(const floorplan::Floorplan& fp,
                                 const PackageParams& package)
    : ThermalAnalyzer(fp, package, Options{}) {}

ThermalAnalyzer::ThermalAnalyzer(const floorplan::Floorplan& fp,
                                 const PackageParams& package, Options options)
    : ThermalAnalyzer(std::make_shared<const RCModel>(fp, package), options) {}

ThermalAnalyzer::ThermalAnalyzer(std::shared_ptr<const RCModel> model)
    : ThermalAnalyzer(std::move(model), Options{}) {}

ThermalAnalyzer::ThermalAnalyzer(std::shared_ptr<const RCModel> model,
                                 Options options)
    : model_(std::move(model)), options_(options) {
  THERMO_REQUIRE(model_ != nullptr, "analyzer requires a model");
  THERMO_REQUIRE(options_.dt > 0.0, "analyzer dt must be positive");
}

SessionSimulation ThermalAnalyzer::simulate_session(
    const std::vector<double>& block_power, double duration) {
  THERMO_REQUIRE(std::isfinite(duration) && duration > 0.0,
                 "session duration must be positive and finite");

  SessionSimulation out;
  out.simulated_time = duration;

  if (options_.transient) {
    // Superposition of cached unit responses (unit_response.hpp): the
    // same backward-Euler answer as simulate_transient from ambient, up
    // to summation order, and its end state is the peak.
    model_->require_valid_power(block_power);
    const SolverBackend backend =
        resolve_backend(options_.backend, model_->node_count());
    std::vector<double> rise = model_->unit_responses().rise(
        *model_, backend, options_.dt, duration, block_power);
    const double ambient = model_->package().ambient;
    for (double& value : rise) value += ambient;
    out.peak_temperature = std::move(rise);
  } else {
    out.peak_temperature = steady_block_temperatures(block_power);
  }

  const auto hottest =
      std::max_element(out.peak_temperature.begin(), out.peak_temperature.end());
  out.max_temperature = *hottest;
  out.hottest_block =
      static_cast<std::size_t>(hottest - out.peak_temperature.begin());

  simulation_effort_ += duration;
  ++simulation_count_;
  return out;
}

double ThermalAnalyzer::solo_peak(std::size_t block, double power,
                                  double duration) {
  THERMO_REQUIRE(std::isfinite(duration) && duration > 0.0,
                 "session duration must be positive and finite");
  THERMO_REQUIRE(block < model_->block_count(), "block index out of range");
  THERMO_REQUIRE(std::isfinite(power) && power >= 0.0,
                 "block power must be finite and non-negative");

  const double ambient = model_->package().ambient;
  double peak = ambient;
  if (power > 0.0) {
    const SolverBackend backend =
        resolve_backend(options_.backend, model_->node_count());
    UnitResponses& responses = model_->unit_responses();
    const double self =
        options_.transient
            ? responses.transient_self_response(*model_, backend, options_.dt,
                                                duration, block)
            : responses.steady_self_response(*model_, backend, block);
    peak = ambient + power * self;
  }

  simulation_effort_ += duration;
  ++simulation_count_;
  return peak;
}

std::vector<double> ThermalAnalyzer::steady_block_temperatures(
    const std::vector<double>& block_power) const {
  SteadyStateOptions sopt;
  sopt.backend = options_.backend;
  const SteadyStateResult result = solve_steady_state(*model_, block_power, sopt);
  return std::vector<double>(
      result.temperature.begin(),
      result.temperature.begin() +
          static_cast<std::ptrdiff_t>(model_->block_count()));
}

ThermalAnalyzer::Chained ThermalAnalyzer::simulate_session_from(
    const std::vector<double>& block_power, double duration,
    const std::vector<double>& initial_state) {
  THERMO_REQUIRE(duration > 0.0, "session duration must be positive");
  THERMO_REQUIRE(options_.transient,
                 "chained simulation requires the transient oracle");

  TransientOptions topt;
  topt.dt = options_.dt;
  topt.backend = options_.backend;
  const TransientResult result =
      simulate_transient(*model_, block_power, duration, initial_state, topt);

  Chained out;
  out.final_state = result.final_temperature;
  out.session.simulated_time = duration;
  out.session.peak_temperature.assign(
      result.peak_temperature.begin(),
      result.peak_temperature.begin() +
          static_cast<std::ptrdiff_t>(model_->block_count()));
  const auto hottest = std::max_element(out.session.peak_temperature.begin(),
                                        out.session.peak_temperature.end());
  out.session.max_temperature = *hottest;
  out.session.hottest_block =
      static_cast<std::size_t>(hottest - out.session.peak_temperature.begin());

  simulation_effort_ += duration;
  ++simulation_count_;
  return out;
}

std::vector<double> ThermalAnalyzer::ambient_node_state() const {
  return ambient_state(*model_);
}

std::vector<double> ThermalAnalyzer::cool_down(
    const std::vector<double>& state, double gap) const {
  THERMO_REQUIRE(gap >= 0.0, "cooling gap must be non-negative");
  if (gap == 0.0) return state;
  TransientOptions topt;
  topt.dt = options_.dt;
  topt.backend = options_.backend;
  const TransientResult result = simulate_transient(
      *model_, std::vector<double>(model_->block_count(), 0.0), gap, state,
      topt);
  return result.final_temperature;
}

void ThermalAnalyzer::reset_effort() {
  simulation_effort_ = 0.0;
  simulation_count_ = 0;
}

}  // namespace thermo::thermal

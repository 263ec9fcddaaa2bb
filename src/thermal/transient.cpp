#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/ode.hpp"
#include "thermal/solver_cache.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

std::vector<double> ambient_state(const RCModel& model) {
  return std::vector<double>(model.node_count(), model.package().ambient);
}

TransientResult simulate_transient(const RCModel& model,
                                   const std::vector<double>& block_power,
                                   double duration,
                                   const std::vector<double>& initial,
                                   const TransientOptions& options) {
  THERMO_REQUIRE(duration >= 0.0 && std::isfinite(duration),
                 "duration must be non-negative and finite");
  THERMO_REQUIRE(options.dt > 0.0, "dt must be positive");
  THERMO_REQUIRE(initial.size() == model.node_count(),
                 "initial state size must equal the node count");

  const std::vector<double> power = model.expand_power(block_power);
  const double ambient = model.package().ambient;
  const std::size_t n = model.node_count();

  // Work in temperature rise over ambient: C x' = p - G x.
  std::vector<double> state(n);
  for (std::size_t i = 0; i < n; ++i) state[i] = initial[i] - ambient;

  TransientResult result;
  result.final_temperature = initial;
  result.peak_temperature = initial;

  auto record = [&](const std::vector<double>& rise) {
    for (std::size_t i = 0; i < n; ++i) {
      const double temp = ambient + rise[i];
      result.peak_temperature[i] = std::max(result.peak_temperature[i], temp);
    }
    if (options.observer) {
      std::vector<double> absolute(n);
      for (std::size_t i = 0; i < n; ++i) absolute[i] = ambient + rise[i];
      options.observer(static_cast<double>(result.steps) * options.dt, absolute);
    }
  };

  if (duration == 0.0) return result;

  const std::vector<double>& capacitance = model.capacitance();

  if (options.integrator == TransientIntegrator::kBackwardEuler) {
    // The (C/dt + G) factor lives in the model's store: repeated
    // sessions on the same model at the same dt — Algorithm 1 validates
    // thousands — pay the factorization once. The backend picks dense LU
    // or sparse LDLᵗ; both stepper kinds share the same loop below.
    ThermalSolverCache& cache = ThermalSolverCache::instance();
    const auto run_backward_euler = [&](const auto& stepper_for) {
      const auto stepper = stepper_for(options.dt);
      std::vector<double> next(n);
      double t = 0.0;
      while (t < duration - 1e-15) {
        const double step = std::min(options.dt, duration - t);
        if (step < options.dt * (1.0 - 1e-12)) {
          // Final fractional remainder: also kept, as its own (model,
          // step) stepper. Real workloads re-simulate the same durations
          // (Algorithm 1 re-validates fixed-length sessions), so the
          // remainder factor is reused; each distinct remainder adds one
          // stepper to the model, freed with it (docs/SOLVERS.md).
          stepper_for(step)->step_into(state, power, next);
        } else {
          stepper->step_into(state, power, next);
        }
        state.swap(next);
        t += step;
        ++result.steps;
        record(state);
      }
    };
    if (resolve_backend(options.backend, n) == SolverBackend::kSparse) {
      run_backward_euler(
          [&](double dt) { return cache.sparse_stepper(model, dt); });
    } else {
      run_backward_euler([&](double dt) { return cache.stepper(model, dt); });
    }
  } else {
    const auto integrate = [&](const linalg::OdeRhs& rhs) {
      state = linalg::rk4_integrate(
          rhs, 0.0, duration, state, options.dt,
          [&](double, const linalg::Vector& x) {
            ++result.steps;
            record(x);
          });
    };
    if (resolve_backend(options.backend, n) == SolverBackend::kSparse) {
      // Matrix-free path: the stage derivative is one SpMV through the
      // CSR fast path — O(nnz) per stage instead of the dense n²
      // product. Column order within a CSR row matches the dense scan
      // order and adding explicit zeros is the identity, so the two
      // paths agree to roundoff (pinned in thermal_backend_test).
      const auto& g = model.conductance_sparse();
      linalg::Vector product;
      const auto rhs = [&](double, const linalg::Vector& x) {
        g.multiply_into(x, product);
        linalg::Vector dx(n);
        for (std::size_t i = 0; i < n; ++i) {
          dx[i] = (power[i] - product[i]) / capacitance[i];
        }
        return dx;
      };
      integrate(rhs);
    } else {
      const auto& g = model.conductance();
      const auto rhs = [&](double, const linalg::Vector& x) {
        linalg::Vector dx = g.multiply(x);
        for (std::size_t i = 0; i < n; ++i) {
          dx[i] = (power[i] - dx[i]) / capacitance[i];
        }
        return dx;
      };
      integrate(rhs);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    result.final_temperature[i] = ambient + state[i];
  }
  return result;
}

double max_block_peak(const RCModel& model, const TransientResult& result) {
  THERMO_REQUIRE(result.peak_temperature.size() == model.node_count(),
                 "result does not match the model");
  THERMO_REQUIRE(model.block_count() > 0, "model has no blocks");
  return *std::max_element(
      result.peak_temperature.begin(),
      result.peak_temperature.begin() +
          static_cast<std::ptrdiff_t>(model.block_count()));
}

}  // namespace thermo::thermal

#include "thermal/steady_state.hpp"

#include <algorithm>

#include "linalg/iterative.hpp"
#include "thermal/solver_cache.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

SteadyStateResult solve_steady_state(const RCModel& model,
                                     const std::vector<double>& block_power,
                                     SteadySolver solver) {
  SteadyStateOptions options;
  options.solver = solver;
  return solve_steady_state(model, block_power, options);
}

SteadyStateResult solve_steady_state(const RCModel& model,
                                     const std::vector<double>& block_power,
                                     const SteadyStateOptions& options) {
  const std::vector<double> power = model.expand_power(block_power);

  SteadyStateResult result;
  switch (options.solver) {
    case SteadySolver::kCholesky:
      // Factor-cached: G is fixed per model, only the power vector
      // changes across calls (see solver_cache.hpp). The backend picks
      // the factor representation; the model keeps one of each.
      if (resolve_backend(options.backend, model.node_count()) ==
          SolverBackend::kSparse) {
        result.rise =
            ThermalSolverCache::instance().sparse_cholesky(model)->solve(power);
      } else {
        result.rise =
            ThermalSolverCache::instance().cholesky(model)->solve(power);
      }
      break;
    case SteadySolver::kLu:
      result.rise = ThermalSolverCache::instance().lu(model)->solve(power);
      break;
    case SteadySolver::kConjugateGradient: {
      linalg::IterativeOptions options;
      options.tolerance = 1e-12;
      options.max_iterations = 20ul * model.node_count() + 100ul;
      linalg::IterativeResult cg =
          linalg::conjugate_gradient(model.conductance_sparse(), power, options);
      if (!cg.converged) {
        throw NumericalError("steady state: CG failed to converge (residual " +
                             std::to_string(cg.residual) + ")");
      }
      result.rise = std::move(cg.solution);
      break;
    }
  }

  result.temperature.resize(result.rise.size());
  const double ambient = model.package().ambient;
  for (std::size_t i = 0; i < result.rise.size(); ++i) {
    result.temperature[i] = ambient + result.rise[i];
  }
  return result;
}

double max_block_temperature(const RCModel& model,
                             const SteadyStateResult& result) {
  THERMO_REQUIRE(result.temperature.size() == model.node_count(),
                 "result does not match the model");
  THERMO_REQUIRE(model.block_count() > 0, "model has no blocks");
  return *std::max_element(
      result.temperature.begin(),
      result.temperature.begin() + static_cast<std::ptrdiff_t>(model.block_count()));
}

}  // namespace thermo::thermal

// Performance benchmarks: the substrate costs behind the paper's
// "rapid generation" claim.
//
// Two modes:
//
//  * `--quick [--json PATH]` — self-timed (std::chrono) measurement of
//    the factor cache, emitting the machine-readable `BENCH_solver.json`
//    perf-trajectory point: per-size cold-vs-cached steady solves and
//    cold-vs-cached transient sessions.
//    This mode has NO dependency on Google Benchmark, so CI can always
//    produce a trajectory artifact (see .github/workflows/ci.yml and
//    README "Reading BENCH_solver.json").
//
//  * default — the Google Benchmark micro-suite (only when the package
//    was found at configure time; otherwise the binary tells you to use
//    --quick):
//     - steady-state solvers (cold Cholesky / cached Cholesky / LU / CG)
//       across floorplan sizes;
//     - transient backward-Euler session simulation across sizes;
//     - STC evaluation (the paper's guide metric) vs a full session
//       simulation on the Alpha-like SoC: the gap is the simulation
//       time Algorithm 1 saves per considered candidate;
//     - end-to-end Algorithm 1 on the Alpha SoC.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/session_model.hpp"
#include "core/thermal_scheduler.hpp"
#include "floorplan/generator.hpp"
#include "linalg/cholesky.hpp"
#include "soc/alpha.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

#ifdef THERMO_HAVE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

using namespace thermo;

namespace {

thermal::RCModel make_grid_model(std::size_t side) {
  const floorplan::Floorplan fp =
      floorplan::make_grid_floorplan(side, side, 0.016, 0.016);
  return thermal::RCModel(fp, thermal::PackageParams{});
}

std::vector<double> grid_power(std::size_t blocks) {
  std::vector<double> power(blocks, 0.0);
  for (std::size_t i = 0; i < blocks; i += 3) power[i] = 5.0;
  return power;
}

// ---------------------------------------------------------------------------
// --quick mode: chrono-timed, benchmark-free, JSON-emitting.
// ---------------------------------------------------------------------------

/// Seconds per call of `fn`, measured over enough repetitions to
/// accumulate `min_time` seconds of work (at most `max_reps`).
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_time = 0.05,
                        std::size_t max_reps = 1000) {
  using clock = std::chrono::steady_clock;
  std::size_t reps = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  while (reps < max_reps && elapsed < min_time) {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  }
  return elapsed / static_cast<double>(reps);
}

/// Seconds per call of `fn(model)` on a model `make()` built fresh for
/// that call — its factors are built inside the call, so this is the
/// cold cost. make() and the model's destruction are not timed.
template <typename Make, typename Fn>
double cold_seconds_per_call(Make&& make, Fn&& fn, double min_time,
                             std::size_t max_reps) {
  using clock = std::chrono::steady_clock;
  std::size_t reps = 0;
  double elapsed = 0.0;
  while (reps < max_reps && elapsed < min_time) {
    const auto model = make();
    const auto start = clock::now();
    fn(model);
    elapsed += std::chrono::duration<double>(clock::now() - start).count();
    ++reps;
  }
  return elapsed / static_cast<double>(reps);
}

struct SteadyPoint {
  std::size_t side = 0, blocks = 0, nodes = 0;
  double cold_s = 0.0, cached_s = 0.0;
  double speedup() const { return cached_s > 0.0 ? cold_s / cached_s : 0.0; }
};

SteadyPoint measure_steady(std::size_t side) {
  const thermal::RCModel model = make_grid_model(side);
  const auto block_power = grid_power(model.block_count());
  const std::vector<double> power = model.expand_power(block_power);

  SteadyPoint point;
  point.side = side;
  point.blocks = model.block_count();
  point.nodes = model.node_count();

  // Cold: what every solve paid before the cache — factor + solve.
  point.cold_s = seconds_per_call([&] {
    const linalg::CholeskyFactor factor(model.conductance());
    volatile double sink = factor.solve(power)[0];
    (void)sink;
  });

  // Cached: the steady-state entry point, factor already in the cache
  // (primed by the first call).
  thermal::solve_steady_state(model, block_power);
  point.cached_s = seconds_per_call([&] {
    volatile double sink =
        thermal::solve_steady_state(model, block_power).rise[0];
    (void)sink;
  });
  return point;
}

struct TransientPoint {
  std::size_t side = 0, nodes = 0;
  double duration = 0.0, dt = 0.0;
  double cold_s = 0.0, cached_s = 0.0;
  double speedup() const { return cached_s > 0.0 ? cold_s / cached_s : 0.0; }
};

TransientPoint measure_transient(std::size_t side) {
  const thermal::RCModel model = make_grid_model(side);
  const auto power = grid_power(model.block_count());
  const auto initial = thermal::ambient_state(model);
  thermal::TransientOptions topt;
  topt.dt = 1e-3;

  TransientPoint point;
  point.side = side;
  point.nodes = model.node_count();
  // 50 full steps plus a fractional remainder — the representative case
  // (real test lengths are rarely exact dt multiples), so the cached
  // path also exercises the remainder-stepper slot.
  point.duration = 0.0505;
  point.dt = topt.dt;

  // Cold: every session factors (C/dt + G) afresh, on a fresh model
  // built outside the timed region — with its dense mirror when the
  // dense backend resolves, since the mirror is a copy of G, not part
  // of factoring it.
  const bool dense = thermal::resolve_backend(topt.backend, point.nodes) ==
                     thermal::SolverBackend::kDense;
  point.cold_s = cold_seconds_per_call(
      [&] {
        auto fresh = std::make_unique<const thermal::RCModel>(
            make_grid_model(side));
        if (dense) fresh->conductance();
        return fresh;
      },
      [&](const auto& fresh) {
        thermal::simulate_transient(*fresh, power, point.duration, initial,
                                    topt);
      },
      0.05, 200);

  // Cached: the stepper factor is reused across sessions.
  thermal::simulate_transient(model, power, point.duration, initial, topt);
  point.cached_s = seconds_per_call(
      [&] {
        thermal::simulate_transient(model, power, point.duration, initial,
                                    topt);
      },
      0.05, 200);
  return point;
}

void write_json(const std::string& path, const std::vector<SteadyPoint>& steady,
                const std::vector<TransientPoint>& transient) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  out.precision(6);
  out << "{\n";
  out << "  \"schema\": \"thermo.bench_solver.v2\",\n";
  out << "  \"bench\": \"bench_solver_perf\",\n";
  out << "  \"mode\": \"quick\",\n";
  out << "  \"steady\": [\n";
  for (std::size_t i = 0; i < steady.size(); ++i) {
    const SteadyPoint& p = steady[i];
    out << "    {\"side\": " << p.side << ", \"blocks\": " << p.blocks
        << ", \"nodes\": " << p.nodes << ", \"cold_solve_s\": " << p.cold_s
        << ", \"cached_solve_s\": " << p.cached_s
        << ", \"speedup\": " << p.speedup() << "}"
        << (i + 1 < steady.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"transient\": [\n";
  for (std::size_t i = 0; i < transient.size(); ++i) {
    const TransientPoint& p = transient[i];
    out << "    {\"side\": " << p.side << ", \"nodes\": " << p.nodes
        << ", \"duration_s\": " << p.duration << ", \"dt_s\": " << p.dt
        << ", \"cold_session_s\": " << p.cold_s
        << ", \"cached_session_s\": " << p.cached_s
        << ", \"speedup\": " << p.speedup() << "}"
        << (i + 1 < transient.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

int run_quick(const std::string& json_path) {
  std::cout << "bench_solver_perf --quick (factor cache)\n";

  std::vector<SteadyPoint> steady;
  for (std::size_t side : {8u, 16u, 24u}) {  // 74 / 266 / 586 nodes
    steady.push_back(measure_steady(side));
    const SteadyPoint& p = steady.back();
    std::cout << "steady  " << p.nodes << " nodes: cold " << p.cold_s
              << " s, cached " << p.cached_s << " s, speedup " << p.speedup()
              << "x\n";
  }

  std::vector<TransientPoint> transient;
  for (std::size_t side : {8u, 16u}) {
    transient.push_back(measure_transient(side));
    const TransientPoint& p = transient.back();
    std::cout << "transient " << p.nodes << " nodes, " << p.duration
              << " s session: cold " << p.cold_s << " s, cached " << p.cached_s
              << " s, speedup " << p.speedup() << "x\n";
  }

  write_json(json_path, steady, transient);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Google Benchmark micro-suite (optional dependency).
// ---------------------------------------------------------------------------

#ifdef THERMO_HAVE_BENCHMARK
namespace {

// The cold path: factor + solve per call, what solve_steady_state cost
// before the factor cache.
void BM_SteadyCholeskyCold(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const thermal::RCModel model = make_grid_model(side);
  const auto power = model.expand_power(grid_power(model.block_count()));
  for (auto _ : state) {
    const linalg::CholeskyFactor factor(model.conductance());
    benchmark::DoNotOptimize(factor.solve(power));
  }
  state.SetLabel(std::to_string(model.block_count()) + " blocks");
}
BENCHMARK(BM_SteadyCholeskyCold)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

// The cached path (the entry point the scheduler uses).
void BM_SteadyCholesky(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const thermal::RCModel model = make_grid_model(side);
  const auto power = grid_power(model.block_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        thermal::solve_steady_state(model, power,
                                    thermal::SteadySolver::kCholesky));
  }
  state.SetLabel(std::to_string(model.block_count()) + " blocks");
}
BENCHMARK(BM_SteadyCholesky)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_SteadyLu(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const thermal::RCModel model = make_grid_model(side);
  const auto power = grid_power(model.block_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        thermal::solve_steady_state(model, power, thermal::SteadySolver::kLu));
  }
  state.SetLabel(std::to_string(model.block_count()) + " blocks");
}
BENCHMARK(BM_SteadyLu)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_SteadyCg(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const thermal::RCModel model = make_grid_model(side);
  const auto power = grid_power(model.block_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(thermal::solve_steady_state(
        model, power, thermal::SteadySolver::kConjugateGradient));
  }
  state.SetLabel(std::to_string(model.block_count()) + " blocks");
}
BENCHMARK(BM_SteadyCg)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_TransientSession(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const thermal::RCModel model = make_grid_model(side);
  const auto power = grid_power(model.block_count());
  const auto initial = thermal::ambient_state(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        thermal::simulate_transient(model, power, 1.0, initial));
  }
  state.SetLabel(std::to_string(model.block_count()) + " blocks, 1 s");
}
BENCHMARK(BM_TransientSession)->Arg(2)->Arg(4)->Arg(8);

void BM_StcEvaluation(benchmark::State& state) {
  const core::SocSpec soc = soc::alpha_soc();
  core::SessionModelOptions options;
  options.stc_scale = soc::alpha_stc_scale();
  const core::SessionThermalModel model(soc.flp, soc.package, options);
  const std::vector<double> power = soc.test_powers();
  const std::vector<double> weight(soc.core_count(), 1.0);
  std::vector<bool> active(soc.core_count(), false);
  for (std::size_t i = 0; i < soc.core_count(); i += 2) active[i] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.session_characteristic(active, power, weight));
  }
  state.SetLabel("alpha-15, 8 active");
}
BENCHMARK(BM_StcEvaluation);

void BM_FullSessionSimulation(benchmark::State& state) {
  const core::SocSpec soc = soc::alpha_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  const std::vector<double> power = soc.test_powers();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.simulate_session(power, 1.0));
  }
  state.SetLabel("alpha-15, 1 s session");
}
BENCHMARK(BM_FullSessionSimulation);

void BM_Algorithm1EndToEnd(benchmark::State& state) {
  const core::SocSpec soc = soc::alpha_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::ThermalSchedulerOptions options;
  options.temperature_limit = 155.0;
  options.stc_limit = static_cast<double>(state.range(0));
  options.model.stc_scale = soc::alpha_stc_scale();
  const core::ThermalAwareScheduler scheduler(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.generate(soc, analyzer));
  }
  state.SetLabel("TL=155, STCL=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Algorithm1EndToEnd)->Arg(20)->Arg(60)->Arg(100);

}  // namespace
#endif  // THERMO_HAVE_BENCHMARK

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_solver.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  if (quick) {
    try {
      return run_quick(json_path);
    } catch (const std::exception& e) {
      std::cerr << "bench_solver_perf: " << e.what() << "\n";
      return 1;
    }
  }

#ifdef THERMO_HAVE_BENCHMARK
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::cerr << "bench_solver_perf: built without Google Benchmark; the\n"
               "micro-suite is unavailable. Run with --quick [--json PATH]\n"
               "for the self-timed JSON measurement instead.\n";
  return 2;
#endif
}

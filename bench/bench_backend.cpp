// Dense-vs-sparse backend benchmark: the measurement behind
// SolverBackend::kAuto's node-count crossover (thermal/backend.hpp).
//
// For each synthetic grid floorplan size it times, on the SAME model:
//   * assembly           — sparse-first model build (Builder -> CSR);
//   * cold factor        — dense Cholesky of G vs sparse LDLᵗ of G;
//   * cached steady solve — one back-substitution per backend;
//   * cached BE step     — one backward-Euler step per backend;
//   * cold simulate      — on a freshly built model (untimed), a 50-step
//     transient session (factor + steps), per backend. This is the
//     acceptance metric: at the largest grid (>= 1000 nodes) the sparse
//     backend must win by >= 5x or the binary exits non-zero.
// and records the symbolic factor fill with and without the
// fill-reducing ordering (docs/SOLVERS.md "Ordering").
//
// A separate large-model section takes one 317x317 GridThermalModel —
// 100,489 cells + 10 package nodes, past the 100k-node mark where the
// dense backend is physically infeasible (~80 GB for the factor) — and
// measures sparse assembly, the cold fill-ordered factorization, a
// cached solve, and the process peak RSS.
//
// Exit-code gates (CI + smoke.bench_backend):
//   * dense/sparse agreement within 1e-9 at every benchmarked size;
//   * >= 5x sparse cold-simulate win at the largest (>= 1000 node) grid;
//   * ordered fill strictly below natural fill at the largest grid and
//     the 100k model (the ordering earns its complexity);
//   * the 100k cold factor + solve completes with peak RSS below
//     kMaxPeakRssMb — far under what the dense mirror alone would need.
//
// Self-timed (std::chrono), no Google Benchmark dependency, always
// built; emits the machine-readable BENCH_backend.json
// (schema thermo.bench_backend.v2) consumed by CI and registered as the
// smoke.bench_backend CTest.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "floorplan/generator.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ode.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "thermal/backend.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

using namespace thermo;

namespace {

std::vector<double> grid_power(std::size_t blocks) {
  std::vector<double> power(blocks, 0.0);
  for (std::size_t i = 0; i < blocks; i += 3) power[i] = 5.0;
  return power;
}

/// Seconds per call of `fn`, measured over enough repetitions to
/// accumulate `min_time` seconds of work (at most `max_reps`).
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_time = 0.02,
                        std::size_t max_reps = 200) {
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

/// Process peak resident set in MB (ru_maxrss is KiB on Linux).
double peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

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

struct BackendPoint {
  std::size_t side = 0, blocks = 0, nodes = 0, factor_nnz = 0;
  std::size_t fill_natural = 0, fill_ordered = 0;
  double assembly_s = 0.0;
  double dense_factor_s = 0.0, sparse_factor_s = 0.0;
  double dense_solve_s = 0.0, sparse_solve_s = 0.0;
  double dense_step_s = 0.0, sparse_step_s = 0.0;
  double dense_cold_simulate_s = 0.0, sparse_cold_simulate_s = 0.0;
  double steady_max_rel_diff = 0.0, transient_max_rel_diff = 0.0;

  double factor_speedup() const {
    return sparse_factor_s > 0.0 ? dense_factor_s / sparse_factor_s : 0.0;
  }
  double solve_speedup() const {
    return sparse_solve_s > 0.0 ? dense_solve_s / sparse_solve_s : 0.0;
  }
  double step_speedup() const {
    return sparse_step_s > 0.0 ? dense_step_s / sparse_step_s : 0.0;
  }
  double cold_simulate_speedup() const {
    return sparse_cold_simulate_s > 0.0
               ? dense_cold_simulate_s / sparse_cold_simulate_s
               : 0.0;
  }
};

/// The 100k-node sparse-only measurement (no dense counterpart exists
/// at this size — that is the point).
struct LargeModelPoint {
  std::size_t grid_side = 0, nodes = 0;
  std::size_t fill_natural = 0, fill_ordered = 0;
  double assembly_s = 0.0;     ///< GridThermalModel build (Builder -> CSR)
  double cold_factor_s = 0.0;  ///< ordering + symbolic + numeric LDLᵗ
  double solve_s = 0.0;        ///< one cached back-substitution
  double rss_mb = 0.0;         ///< process peak RSS after the factor
};

LargeModelPoint measure_large(std::size_t grid_side) {
  LargeModelPoint point;
  point.grid_side = grid_side;

  const floorplan::Floorplan die =
      floorplan::make_grid_floorplan(4, 4, 0.016, 0.016);
  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();
  const thermal::GridThermalModel model(
      die, thermal::PackageParams{},
      thermal::GridOptions{grid_side, grid_side});
  point.assembly_s = std::chrono::duration<double>(clock::now() - t0).count();
  point.nodes = model.node_count();

  const linalg::SparseMatrix& g = model.conductance();
  point.fill_natural = linalg::symbolic_factor_nonzeros(g);

  t0 = clock::now();
  const linalg::SparseCholeskyFactor factor(g);  // kAuto -> min-degree here
  point.cold_factor_s = std::chrono::duration<double>(clock::now() - t0).count();
  point.fill_ordered = factor.factor_nonzeros();

  const auto power = grid_power(die.size());
  const thermal::GridSteadyResult reference =
      model.solve(power, thermal::SolverBackend::kSparse);
  point.solve_s = seconds_per_call(
      [&] {
        volatile double sink =
            model.solve(power, thermal::SolverBackend::kSparse)
                .cell_temperature[0];
        (void)sink;
      },
      0.02, 5);
  volatile double sink = reference.cell_temperature[0];
  (void)sink;
  point.rss_mb = peak_rss_mb();
  return point;
}

BackendPoint measure(std::size_t side) {
  const floorplan::Floorplan fp =
      floorplan::make_grid_floorplan(side, side, 0.016, 0.016);
  const thermal::RCModel model(fp, thermal::PackageParams{});
  const auto block_power = grid_power(model.block_count());
  const std::vector<double> power = model.expand_power(block_power);
  const auto initial = thermal::ambient_state(model);
  constexpr double kDt = 1e-3;
  constexpr double kDuration = 0.05;  // 50 backward-Euler steps

  BackendPoint point;
  point.side = side;
  point.blocks = model.block_count();
  point.nodes = model.node_count();

  // Sparse-first assembly: floorplan -> stamped Builder -> CSR.
  point.assembly_s = seconds_per_call([&] {
    const thermal::RCModel assembled(fp, thermal::PackageParams{});
    volatile auto sink = assembled.conductance_sparse().nonzeros();
    (void)sink;
  });

  // Symbolic fill with and without the fill-reducing ordering.
  point.fill_natural =
      linalg::symbolic_factor_nonzeros(model.conductance_sparse());
  point.fill_ordered = linalg::symbolic_factor_nonzeros(
      model.conductance_sparse(),
      linalg::min_degree_ordering(model.conductance_sparse()));

  // Cold factor: what the first solve on a fresh model pays.
  point.dense_factor_s = seconds_per_call([&] {
    const linalg::CholeskyFactor factor(model.conductance());
    volatile double sink = factor.l()(0, 0);
    (void)sink;
  });
  point.sparse_factor_s = seconds_per_call([&] {
    const linalg::SparseCholeskyFactor factor(model.conductance_sparse());
    volatile auto sink = factor.factor_nonzeros();
    (void)sink;
  });

  // Cached steady solve: one back-substitution per backend.
  const linalg::CholeskyFactor dense_factor(model.conductance());
  const linalg::SparseCholeskyFactor sparse_factor(model.conductance_sparse());
  point.factor_nnz = sparse_factor.factor_nonzeros();
  point.dense_solve_s = seconds_per_call([&] {
    volatile double sink = dense_factor.solve(power)[0];
    (void)sink;
  });
  point.sparse_solve_s = seconds_per_call([&] {
    volatile double sink = sparse_factor.solve(power)[0];
    (void)sink;
  });
  point.steady_max_rel_diff =
      max_rel_diff(dense_factor.solve(power), sparse_factor.solve(power));

  // Cached backward-Euler step.
  const linalg::LinearImplicitStepper dense_stepper(model.conductance(),
                                                    model.capacitance(), kDt);
  const linalg::SparseImplicitStepper sparse_stepper(
      model.conductance_sparse(), model.capacitance(), kDt);
  std::vector<double> rise(model.node_count(), 0.0);
  point.dense_step_s = seconds_per_call([&] {
    volatile double sink = dense_stepper.step(rise, power)[0];
    (void)sink;
  });
  point.sparse_step_s = seconds_per_call([&] {
    volatile double sink = sparse_stepper.step(rise, power)[0];
    (void)sink;
  });

  // Cold factor + simulate through the public entry point: the cost a
  // scenario pays the first time it touches a model at this size. Each
  // call gets a fresh model. The dense mirror is built outside the timed
  // region: it is a copy of G, not part of factoring it.
  thermal::TransientOptions dense_topt;
  dense_topt.dt = kDt;
  dense_topt.backend = thermal::SolverBackend::kDense;
  thermal::TransientOptions sparse_topt;
  sparse_topt.dt = kDt;
  sparse_topt.backend = thermal::SolverBackend::kSparse;
  const auto fresh_model = [&fp] {
    return std::make_unique<const thermal::RCModel>(fp,
                                                    thermal::PackageParams{});
  };
  point.dense_cold_simulate_s = cold_seconds_per_call(
      [&] {
        auto fresh = fresh_model();
        fresh->conductance();
        return fresh;
      },
      [&](const auto& fresh) {
        thermal::simulate_transient(*fresh, block_power, kDuration, initial,
                                    dense_topt);
      },
      0.02, 20);
  point.sparse_cold_simulate_s = cold_seconds_per_call(
      fresh_model,
      [&](const auto& fresh) {
        thermal::simulate_transient(*fresh, block_power, kDuration, initial,
                                    sparse_topt);
      },
      0.02, 20);

  const thermal::TransientResult tr_dense = thermal::simulate_transient(
      model, block_power, kDuration, initial, dense_topt);
  const thermal::TransientResult tr_sparse = thermal::simulate_transient(
      model, block_power, kDuration, initial, sparse_topt);
  point.transient_max_rel_diff =
      std::max(max_rel_diff(tr_dense.final_temperature, tr_sparse.final_temperature),
               max_rel_diff(tr_dense.peak_temperature, tr_sparse.peak_temperature));
  return point;
}

void write_json(const std::string& path, const std::vector<BackendPoint>& points,
                const LargeModelPoint& large, std::size_t measured_crossover) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  out.precision(6);
  out << "{\n";
  out << "  \"schema\": \"thermo.bench_backend.v2\",\n";
  out << "  \"bench\": \"bench_backend\",\n";
  out << "  \"mode\": \"quick\",\n";
  out << "  \"auto_crossover_nodes\": " << thermal::kSparseBackendCrossover
      << ",\n";
  out << "  \"measured_crossover_nodes\": " << measured_crossover << ",\n";
  out << "  \"peak_rss_mb\": " << peak_rss_mb() << ",\n";
  out << "  \"large_model\": {\"grid_side\": " << large.grid_side
      << ", \"nodes\": " << large.nodes
      << ", \"fill_natural\": " << large.fill_natural
      << ", \"fill_ordered\": " << large.fill_ordered
      << ",\n    \"assembly_s\": " << large.assembly_s
      << ", \"cold_factor_s\": " << large.cold_factor_s
      << ", \"solve_s\": " << large.solve_s << ", \"rss_mb\": " << large.rss_mb
      << "},\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BackendPoint& p = points[i];
    out << "    {\"side\": " << p.side << ", \"blocks\": " << p.blocks
        << ", \"nodes\": " << p.nodes << ", \"factor_nnz\": " << p.factor_nnz
        << ",\n     \"fill_natural\": " << p.fill_natural
        << ", \"fill_ordered\": " << p.fill_ordered
        << ", \"assembly_s\": " << p.assembly_s
        << ",\n     \"dense_factor_s\": " << p.dense_factor_s
        << ", \"sparse_factor_s\": " << p.sparse_factor_s
        << ", \"factor_speedup\": " << p.factor_speedup()
        << ",\n     \"dense_solve_s\": " << p.dense_solve_s
        << ", \"sparse_solve_s\": " << p.sparse_solve_s
        << ", \"solve_speedup\": " << p.solve_speedup()
        << ",\n     \"dense_step_s\": " << p.dense_step_s
        << ", \"sparse_step_s\": " << p.sparse_step_s
        << ", \"step_speedup\": " << p.step_speedup()
        << ",\n     \"dense_cold_simulate_s\": " << p.dense_cold_simulate_s
        << ", \"sparse_cold_simulate_s\": " << p.sparse_cold_simulate_s
        << ", \"cold_simulate_speedup\": " << p.cold_simulate_speedup()
        << ",\n     \"steady_max_rel_diff\": " << p.steady_max_rel_diff
        << ", \"transient_max_rel_diff\": " << p.transient_max_rel_diff << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_backend.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::cerr << "bench_backend: unknown argument '" << arg
                << "' (usage: bench_backend [--json PATH])\n";
      return 2;
    }
  }

  try {
    std::cout << "bench_backend (dense vs sparse thermal backends)\n";
    std::vector<BackendPoint> points;
    for (std::size_t side : {8u, 16u, 24u, 32u}) {  // 74..1034 nodes
      points.push_back(measure(side));
      const BackendPoint& p = points.back();
      std::cout << "grid " << p.side << "x" << p.side << " (" << p.nodes
                << " nodes, fill " << p.fill_natural << " -> "
                << p.fill_ordered << "): factor " << p.factor_speedup()
                << "x, solve " << p.solve_speedup() << "x, step "
                << p.step_speedup() << "x, cold simulate "
                << p.cold_simulate_speedup() << "x, rel diff "
                << std::max(p.steady_max_rel_diff, p.transient_max_rel_diff)
                << "\n";
    }

    // The 100k-node section: 317x317 cells + 10 package nodes.
    const LargeModelPoint large = measure_large(317);
    std::cout << "large model " << large.grid_side << "x" << large.grid_side
              << " (" << large.nodes << " nodes): assembly "
              << large.assembly_s << " s, cold ordered factor "
              << large.cold_factor_s << " s, solve " << large.solve_s
              << " s, fill " << large.fill_natural << " -> "
              << large.fill_ordered << ", peak RSS " << large.rss_mb
              << " MB\n";

    // Smallest benchmarked size at which the sparse backend wins the
    // cold-factor-plus-simulate metric — what kAuto's constant encodes.
    std::size_t measured_crossover = 0;
    for (const BackendPoint& p : points) {
      if (p.cold_simulate_speedup() > 1.0) {
        measured_crossover = p.nodes;
        break;
      }
    }
    write_json(json_path, points, large, measured_crossover);
    std::cout << "wrote " << json_path << "\n";

    // Hard gates (CI + smoke.bench_backend): agreement within the
    // documented tolerance at every size, and >= 5x sparse win on cold
    // factor + simulate at the largest (>= 1000 node) grid.
    for (const BackendPoint& p : points) {
      if (p.steady_max_rel_diff > 1e-9 || p.transient_max_rel_diff > 1e-9) {
        std::cerr << "bench_backend: backends disagree at " << p.nodes
                  << " nodes (steady " << p.steady_max_rel_diff
                  << ", transient " << p.transient_max_rel_diff << ")\n";
        return 1;
      }
    }
    const BackendPoint& largest = points.back();
    if (largest.nodes < 1000) {
      std::cerr << "bench_backend: largest grid has only " << largest.nodes
                << " nodes (< 1000)\n";
      return 1;
    }
    if (largest.cold_simulate_speedup() < 5.0) {
      std::cerr << "bench_backend: sparse cold simulate only "
                << largest.cold_simulate_speedup() << "x at " << largest.nodes
                << " nodes (need >= 5x)\n";
      return 1;
    }
    // Ordering gates: the fill-reducing permutation must strictly beat
    // natural order where it is active (kOrderingAutoMinNodes and up).
    if (largest.fill_ordered >= largest.fill_natural) {
      std::cerr << "bench_backend: ordered fill " << largest.fill_ordered
                << " not below natural fill " << largest.fill_natural
                << " at " << largest.nodes << " nodes\n";
      return 1;
    }
    if (large.fill_ordered >= large.fill_natural) {
      std::cerr << "bench_backend: ordered fill " << large.fill_ordered
                << " not below natural fill " << large.fill_natural
                << " at the " << large.nodes << "-node model\n";
      return 1;
    }
    // Memory gate: the 100k factor must complete far below what the
    // dense backend would need (~80 GB for the factor alone).
    constexpr double kMaxPeakRssMb = 4096.0;
    if (large.rss_mb <= 0.0 || large.rss_mb > kMaxPeakRssMb) {
      std::cerr << "bench_backend: peak RSS " << large.rss_mb
                << " MB outside (0, " << kMaxPeakRssMb << "] at "
                << large.nodes << " nodes\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_backend: " << e.what() << "\n";
    return 1;
  }
}

// Grid-granularity thermal model (the HotSpot "grid model" counterpart
// to RCModel's "block model").
//
// The die is discretised into rows x cols uniform cells; block powers
// are spread over the cells they cover by area overlap. Cells couple
// laterally to their 4-neighbours and vertically into the same
// 10-node spreader/sink/convection package used by RCModel, so the two
// models share package physics and differ only in die granularity.
//
// Purpose: a higher-fidelity steady-state oracle to quantify the
// discretisation error of the block model (bench_ablation_grid) and to
// expose intra-block temperature gradients that block granularity hides.
// Steady state only. Solves route through SolverBackend +
// ThermalSolverCache exactly like RCModel: the resolved backend picks a
// dense Cholesky (small grids) or a fill-ordered sparse LDLᵗ factor
// (everything else), kept in the model's own factor store, so repeated
// solves on one grid pay a single factorization — 100k-node grids
// (317×317+) factor once and back-substitute per power map. Copies
// share the store; it is freed with the last copy.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "linalg/sparse.hpp"
#include "thermal/backend.hpp"
#include "thermal/package.hpp"

namespace thermo::thermal {

struct FactorStore;

struct GridOptions {
  std::size_t rows = 32;
  std::size_t cols = 32;
};

struct GridSteadyResult {
  /// Absolute cell temperatures [deg C], row-major (rows x cols).
  std::vector<double> cell_temperature;
  /// Per-block maximum covered-cell temperature [deg C].
  std::vector<double> block_max_temperature;
  /// Per-block area-weighted mean temperature [deg C].
  std::vector<double> block_mean_temperature;
  /// Iterative-solver iterations; 0 for the direct factor backends
  /// (kept so telemetry consumers need no schema change).
  std::size_t iterations = 0;
};

class GridThermalModel {
 public:
  GridThermalModel(const floorplan::Floorplan& fp,
                   const PackageParams& package, GridOptions options = {});

  std::size_t rows() const { return options_.rows; }
  std::size_t cols() const { return options_.cols; }
  std::size_t cell_count() const { return options_.rows * options_.cols; }
  /// Total node count: cells + 10 package nodes.
  std::size_t node_count() const { return cell_count() + 10; }

  const floorplan::Floorplan& floorplan() const { return floorplan_; }
  const PackageParams& package() const { return package_; }

  /// Fraction of cell (r, c) covered by block b (0..1).
  double coverage(std::size_t block, std::size_t row, std::size_t col) const;

  /// Steady-state solve for per-block power [W] through the resolved
  /// backend's factor, built on first use (ThermalSolverCache).
  GridSteadyResult solve(const std::vector<double>& block_power,
                         SolverBackend backend = SolverBackend::kAuto) const;

  /// The sparse conductance matrix (ambient eliminated onto diagonal).
  const linalg::SparseMatrix& conductance() const { return conductance_; }

 private:
  friend class ThermalSolverCache;

  std::size_t cell_index(std::size_t row, std::size_t col) const {
    return row * options_.cols + col;
  }

  floorplan::Floorplan floorplan_;
  PackageParams package_;
  GridOptions options_;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  linalg::SparseMatrix conductance_;
  /// coverage_[b] lists (cell, fraction-of-cell-area) pairs.
  std::vector<std::vector<std::pair<std::size_t, double>>> coverage_;
  std::shared_ptr<FactorStore> factors_;
};

}  // namespace thermo::thermal

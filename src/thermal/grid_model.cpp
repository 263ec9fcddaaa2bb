#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>

#include "thermal/solver_cache.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace {
double overlap_1d(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}
}  // namespace

GridThermalModel::GridThermalModel(const floorplan::Floorplan& fp,
                                   const PackageParams& package,
                                   GridOptions options)
    : floorplan_(fp),
      package_(package),
      options_(options),
      factors_(std::make_shared<FactorStore>()) {
  package_.validate();
  floorplan_.require_valid();
  THERMO_REQUIRE(options_.rows >= 2 && options_.cols >= 2,
                 "grid needs at least 2x2 cells");

  const double chip_w = floorplan_.chip_width();
  const double chip_h = floorplan_.chip_height();
  cell_w_ = chip_w / static_cast<double>(options_.cols);
  cell_h_ = chip_h / static_cast<double>(options_.rows);
  const double x0 = floorplan_.min_x();
  const double y0 = floorplan_.min_y();

  const std::size_t cells = cell_count();
  const std::size_t sp_c = cells, sp_n = cells + 1, sp_s = cells + 2,
                    sp_e = cells + 3, sp_w = cells + 4;
  const std::size_t sk_c = cells + 5, sk_n = cells + 6, sk_s = cells + 7,
                    sk_e = cells + 8, sk_w = cells + 9;

  linalg::SparseMatrix::Builder builder(node_count(), node_count());
  auto stamp = [&](std::size_t a, std::size_t b, double g) {
    builder.add(a, a, g);
    builder.add(b, b, g);
    builder.add(a, b, -g);
    builder.add(b, a, -g);
  };
  auto stamp_ambient = [&](std::size_t node, double g) {
    builder.add(node, node, g);
  };

  // Lateral cell-to-cell conduction through shared faces.
  const double g_horizontal =
      package_.k_die * package_.t_die * cell_h_ / cell_w_;
  const double g_vertical =
      package_.k_die * package_.t_die * cell_w_ / cell_h_;
  for (std::size_t r = 0; r < options_.rows; ++r) {
    for (std::size_t c = 0; c < options_.cols; ++c) {
      if (c + 1 < options_.cols) {
        stamp(cell_index(r, c), cell_index(r, c + 1), g_horizontal);
      }
      if (r + 1 < options_.rows) {
        stamp(cell_index(r, c), cell_index(r + 1, c), g_vertical);
      }
    }
  }

  // Vertical path per cell: half-die + TIM. The constriction into the
  // spreader is a chip-level effect; at grid granularity the lateral
  // spreading is explicit, so only a chip-area spreading term is applied
  // (folded into the spreader -> sink resistances below).
  const double a_cell = cell_w_ * cell_h_;
  const double r_cell_vertical =
      package_.t_die / (2.0 * package_.k_die * a_cell) +
      package_.t_tim / (package_.k_tim * a_cell);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    stamp(cell, sp_c, 1.0 / r_cell_vertical);
  }

  // Package: identical topology and formulas to RCModel.
  {
    const double side = package_.spreader_side;
    const double r_lat =
        (side / 2.0) / (package_.k_spreader * package_.t_spreader * side);
    for (std::size_t node : {sp_n, sp_s, sp_e, sp_w}) {
      stamp(sp_c, node, 1.0 / r_lat);
    }
    const double a_spr = side * side;
    const double r_center =
        package_.t_spreader / (2.0 * package_.k_spreader * a_spr) +
        package_.t_sink / (2.0 * package_.k_sink * a_spr);
    stamp(sp_c, sk_c, 1.0 / r_center);
    const double a_quadrant = a_spr / 4.0;
    const double r_side =
        package_.t_spreader / (2.0 * package_.k_spreader * a_quadrant) +
        package_.t_sink / (2.0 * package_.k_sink * a_quadrant);
    stamp(sp_n, sk_n, 1.0 / r_side);
    stamp(sp_s, sk_s, 1.0 / r_side);
    stamp(sp_e, sk_e, 1.0 / r_side);
    stamp(sp_w, sk_w, 1.0 / r_side);

    const double sink_side = package_.sink_side;
    const double r_sink_lat =
        (sink_side / 2.0) / (package_.k_sink * package_.t_sink * sink_side);
    for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
      stamp(sk_c, node, 1.0 / r_sink_lat);
    }
    const double a_sink = sink_side * sink_side;
    const double a_side_conv = (a_sink - a_spr) / 4.0;
    stamp_ambient(sk_c, a_spr / (package_.r_convec * a_sink));
    for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
      stamp_ambient(node,
                    std::max(a_side_conv, 1e-12) / (package_.r_convec * a_sink));
    }
  }

  conductance_ = builder.build();
  THERMO_ENSURE(conductance_.is_symmetric(1e-9),
                "grid conductance matrix must be symmetric");

  // Block -> cell coverage by rectangle overlap.
  coverage_.assign(floorplan_.size(), {});
  for (std::size_t b = 0; b < floorplan_.size(); ++b) {
    const floorplan::Block& block = floorplan_.block(b);
    const auto row_lo = static_cast<std::size_t>(std::max(
        0.0, std::floor((block.bottom() - y0) / cell_h_)));
    const auto row_hi = std::min(
        options_.rows,
        static_cast<std::size_t>(std::ceil((block.top() - y0) / cell_h_)));
    const auto col_lo = static_cast<std::size_t>(std::max(
        0.0, std::floor((block.left() - x0) / cell_w_)));
    const auto col_hi = std::min(
        options_.cols,
        static_cast<std::size_t>(std::ceil((block.right() - x0) / cell_w_)));
    for (std::size_t r = row_lo; r < row_hi; ++r) {
      for (std::size_t c = col_lo; c < col_hi; ++c) {
        const double cx0 = x0 + static_cast<double>(c) * cell_w_;
        const double cy0 = y0 + static_cast<double>(r) * cell_h_;
        const double area =
            overlap_1d(block.left(), block.right(), cx0, cx0 + cell_w_) *
            overlap_1d(block.bottom(), block.top(), cy0, cy0 + cell_h_);
        if (area > 0.0) {
          coverage_[b].emplace_back(cell_index(r, c), area / a_cell);
        }
      }
    }
    THERMO_ENSURE(!coverage_[b].empty(),
                  "block '" + block.name + "' covers no grid cell");
  }
}

double GridThermalModel::coverage(std::size_t block, std::size_t row,
                                  std::size_t col) const {
  THERMO_REQUIRE(block < floorplan_.size(), "block index out of range");
  THERMO_REQUIRE(row < options_.rows && col < options_.cols,
                 "cell index out of range");
  const std::size_t cell = cell_index(row, col);
  for (const auto& [covered_cell, fraction] : coverage_[block]) {
    if (covered_cell == cell) return fraction;
  }
  return 0.0;
}

GridSteadyResult GridThermalModel::solve(const std::vector<double>& block_power,
                                         SolverBackend backend) const {
  THERMO_REQUIRE(block_power.size() == floorplan_.size(),
                 "power vector size must equal the block count");
  const double a_cell = cell_w_ * cell_h_;

  std::vector<double> power(node_count(), 0.0);
  for (std::size_t b = 0; b < floorplan_.size(); ++b) {
    THERMO_REQUIRE(std::isfinite(block_power[b]) && block_power[b] >= 0.0,
                   "block power must be finite and non-negative");
    const double density = block_power[b] / floorplan_.block(b).area();
    for (const auto& [cell, fraction] : coverage_[b]) {
      power[cell] += density * fraction * a_cell;
    }
  }

  // Unified solve path: the resolved backend picks a factor from this
  // model's store through ThermalSolverCache, exactly like RCModel's
  // steady path — a repeated solve on the same grid is one
  // back-substitution.
  ThermalSolverCache& cache = ThermalSolverCache::instance();
  std::vector<double> rise;
  if (resolve_backend(backend, node_count()) == SolverBackend::kSparse) {
    rise = cache.sparse_cholesky(*this)->solve(power);
  } else {
    THERMO_REQUIRE(node_count() <= RCModel::kDenseMirrorMaxNodes,
                   "grid model: dense backend disabled above " +
                       std::to_string(RCModel::kDenseMirrorMaxNodes) +
                       " nodes; use the sparse backend");
    rise = cache.cholesky(*this)->solve(power);
  }

  GridSteadyResult result;
  result.iterations = 0;
  result.cell_temperature.resize(cell_count());
  for (std::size_t cell = 0; cell < cell_count(); ++cell) {
    result.cell_temperature[cell] = package_.ambient + rise[cell];
  }
  result.block_max_temperature.assign(floorplan_.size(), package_.ambient);
  result.block_mean_temperature.assign(floorplan_.size(), 0.0);
  for (std::size_t b = 0; b < floorplan_.size(); ++b) {
    double weighted = 0.0;
    double total_fraction = 0.0;
    for (const auto& [cell, fraction] : coverage_[b]) {
      result.block_max_temperature[b] = std::max(
          result.block_max_temperature[b], result.cell_temperature[cell]);
      weighted += result.cell_temperature[cell] * fraction;
      total_fraction += fraction;
    }
    result.block_mean_temperature[b] = weighted / total_fraction;
  }
  return result;
}

}  // namespace thermo::thermal

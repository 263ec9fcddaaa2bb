#include "core/session_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace thermo::core {

namespace fp = thermo::floorplan;

SessionThermalModel::SessionThermalModel(const fp::Floorplan& floorplan,
                                         const thermal::PackageParams& package,
                                         SessionModelOptions options)
    : options_(options) {
  package.validate();
  floorplan.require_valid();
  THERMO_REQUIRE(options_.stc_scale > 0.0, "stc_scale must be positive");

  const std::size_t n = floorplan.size();
  lateral_.assign(n, {});
  boundary_conductance_.assign(n, 0.0);
  vertical_conductance_.assign(n, 0.0);

  // Lateral die resistances: identical formula to the RC simulator so
  // the guide model and the oracle agree on the die-level physics.
  for (const fp::Adjacency& adj : floorplan.adjacencies()) {
    const fp::Block& a = floorplan.block(adj.a);
    const fp::Block& b = floorplan.block(adj.b);
    const double da = a.centroid_to_side(adj.side_of_a);
    const double db = b.centroid_to_side(adj.side_of_a);
    const double resistance =
        (da + db) / (package.k_die * package.t_die * adj.shared_length);
    const double conductance = 1.0 / resistance;
    lateral_[adj.a].push_back({adj.b, conductance});
    lateral_[adj.b].push_back({adj.a, conductance});
  }

  // Boundary paths: a silicon slab from the centroid to each exposed
  // chip edge, summed over the four sides. The chip boundary plays the
  // role of thermal ground in the session model (paper, Figure 3:
  // R_{2,N}, R_{4,W}, R_{4,S}, ...).
  for (std::size_t i = 0; i < n; ++i) {
    const fp::Block& block = floorplan.block(i);
    double conductance = 0.0;
    for (fp::Side side : fp::kAllSides) {
      const double exposure = floorplan.boundary_exposure(i, side);
      if (exposure <= 0.0) continue;
      const double distance = block.centroid_to_side(side);
      conductance += package.k_die * package.t_die * exposure / distance;
    }
    boundary_conductance_[i] = conductance;
  }

  // Vertical path (extension): half-die + TIM + spreading, as in the RC
  // simulator's block -> spreader-centre resistance.
  for (std::size_t i = 0; i < n; ++i) {
    const double area = floorplan.block(i).area();
    const double r_die = package.t_die / (2.0 * package.k_die * area);
    const double r_tim = package.t_tim / (package.k_tim * area);
    const double r_spread = 0.475 / (package.k_spreader * std::sqrt(area));
    vertical_conductance_[i] = 1.0 / (r_die + r_tim + r_spread);
  }
}

double SessionThermalModel::equivalent_resistance(
    const std::vector<bool>& active, std::size_t core) const {
  THERMO_REQUIRE(active.size() == core_count(),
                 "active mask size must equal the core count");
  THERMO_REQUIRE(core < core_count(), "core index out of range");
  return resistance(active, core);
}

double SessionThermalModel::resistance(const std::vector<bool>& active,
                                       std::size_t core) const {
  double conductance = boundary_conductance_[core];
  for (const LateralPath& path : lateral_[core]) {
    // Modification 2: paths to concurrently active cores are removed;
    // modification 3: passive neighbours are thermal ground.
    if (!active[path.other]) conductance += path.conductance;
  }
  if (options_.include_vertical_path) {
    conductance += vertical_conductance_[core];
  }
  if (conductance <= 0.0) return kInfiniteResistance;
  return 1.0 / conductance;
}

namespace {

void require_valid_power(double power) {
  THERMO_REQUIRE(std::isfinite(power) && power >= 0.0,
                 "power must be finite and non-negative");
}

/// TC = P * Rth, with an enclosed zero-power core contributing 0.
double characteristic(double power, double rth) {
  if (std::isinf(rth)) {
    return power > 0.0 ? SessionThermalModel::kInfiniteResistance : 0.0;
  }
  return power * rth;
}

}  // namespace

double SessionThermalModel::thermal_characteristic(
    const std::vector<bool>& active, std::size_t core, double power) const {
  require_valid_power(power);
  return characteristic(power, equivalent_resistance(active, core));
}

void SessionThermalModel::require_session_sizes(
    const std::vector<bool>& active, const std::vector<double>& power,
    const std::vector<double>& weight) const {
  THERMO_REQUIRE(active.size() == core_count(),
                 "active mask size must equal the core count");
  THERMO_REQUIRE(power.size() == core_count(),
                 "power vector size must equal the core count");
  THERMO_REQUIRE(weight.size() == core_count(),
                 "weight vector size must equal the core count");
}

double SessionThermalModel::weighted_characteristic(
    const std::vector<bool>& active, std::size_t core,
    const std::vector<double>& power, const std::vector<double>& weight) const {
  require_valid_power(power[core]);
  const double tc = characteristic(power[core], resistance(active, core));
  if (std::isinf(tc)) return kInfiniteResistance;
  return tc * power[core] * weight[core];
}

double SessionThermalModel::session_characteristic(
    const std::vector<bool>& active, const std::vector<double>& power,
    const std::vector<double>& weight) const {
  require_session_sizes(active, power, weight);

  double stc = 0.0;
  for (std::size_t i = 0; i < core_count(); ++i) {
    if (!active[i]) continue;
    const double value = weighted_characteristic(active, i, power, weight);
    if (std::isinf(value)) return kInfiniteResistance;
    stc = std::max(stc, value);
  }
  return stc * options_.stc_scale;
}

double SessionThermalModel::session_characteristic_with(
    const std::vector<bool>& active, std::size_t added, double stc,
    const std::vector<double>& power, const std::vector<double>& weight) const {
  require_session_sizes(active, power, weight);
  THERMO_REQUIRE(added < core_count() && active[added],
                 "the added core must be in the active mask");
  THERMO_REQUIRE(stc >= 0.0, "session STC must be non-negative");

  // session_characteristic's accumulation, over the cores whose value
  // can change. Each of them only grows (a conductance sum loses terms
  // and rounding is monotone), so max(stc, ...) is the full maximum;
  // scaling by stc_scale > 0 commutes with max under rounding.
  double grown = 0.0;
  const auto include = [&](std::size_t core) {
    const double value = weighted_characteristic(active, core, power, weight);
    grown = std::max(grown, value);
    return !std::isinf(value);
  };
  if (!include(added)) return kInfiniteResistance;
  for (const LateralPath& path : lateral_[added]) {
    if (active[path.other] && !include(path.other)) return kInfiniteResistance;
  }
  return std::max(stc, grown * options_.stc_scale);
}

double SessionThermalModel::lateral_resistance(std::size_t i,
                                               std::size_t j) const {
  THERMO_REQUIRE(i < core_count() && j < core_count(),
                 "core index out of range");
  for (const LateralPath& path : lateral_[i]) {
    if (path.other == j) return 1.0 / path.conductance;
  }
  return kInfiniteResistance;
}

double SessionThermalModel::boundary_resistance(std::size_t i) const {
  THERMO_REQUIRE(i < core_count(), "core index out of range");
  if (boundary_conductance_[i] <= 0.0) return kInfiniteResistance;
  return 1.0 / boundary_conductance_[i];
}

double SessionThermalModel::vertical_resistance(std::size_t i) const {
  THERMO_REQUIRE(i < core_count(), "core index out of range");
  return 1.0 / vertical_conductance_[i];
}

}  // namespace thermo::core

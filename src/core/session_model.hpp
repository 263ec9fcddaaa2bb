// The paper's test session thermal model (Section 2).
//
// Start from the RC-equivalent network of the die and apply the three
// modifications of the paper:
//   1. steady state only -> keep thermal resistances, drop capacitances;
//   2. drop resistances between two *active* (concurrently tested)
//      cores — their temperature difference is small, so little heat
//      flows between them;
//   3. *passive* cores are thermally grounded at ambient.
//
// Each active core i is then connected to thermal ground through the
// parallel combination of
//   * its lateral resistances to adjacent passive cores, and
//   * its lateral resistances to the chip boundary (the white arrows of
//     the paper's Figure 2; the boundary acts as ground in this model),
// giving the equivalent thermal resistance Rth(i | TS).
//
// Definitions (paper, Section 2):
//   TC_TS(i)  = P(i) * Rth(i | TS)                 (core thermal characteristic)
//   STC(TS)   = max_{Ci in TS} TC_TS(i) * P(i) * W(i)
//             = max_i P(i)^2 * Rth(i | TS) * W(i)  (session thermal characteristic)
//
// A core whose neighbours are all active and which touches no chip
// boundary has no path to ground: Rth = +infinity, so it can never be
// added to that session — exactly the hot-spot the model is built to
// avoid. `include_vertical_path` optionally adds the die->package
// vertical resistance in parallel (an extension; off by default to match
// the paper, exercised by the model-fidelity ablation).
//
// docs/SCHEDULING.md explains how the scheduler uses STC/STCL and how
// stc_scale places a SoC on the paper's STCL axis.
#pragma once

#include <limits>
#include <vector>

#include "core/soc_spec.hpp"
#include "floorplan/floorplan.hpp"
#include "thermal/package.hpp"

namespace thermo::core {

struct SessionModelOptions {
  /// Adds the vertical (die -> spreader -> ambient) resistance of each
  /// core in parallel with its lateral paths. Paper semantics: false.
  bool include_vertical_path = false;

  /// Multiplier applied to STC values. The paper sweeps STCL over
  /// 20..100 in unnamed units; the SoC definitions in src/soc pick a
  /// scale placing their STC range onto that axis.
  double stc_scale = 1.0;
};

class SessionThermalModel {
 public:
  SessionThermalModel(const floorplan::Floorplan& fp,
                      const thermal::PackageParams& package,
                      SessionModelOptions options = {});

  std::size_t core_count() const { return lateral_.size(); }
  const SessionModelOptions& options() const { return options_; }

  /// Equivalent thermal resistance of active core `core` given the
  /// session's active mask [K/W]. Returns +infinity when the core has no
  /// path to thermal ground. `active[core]` itself is ignored (the core
  /// is treated as active).
  double equivalent_resistance(const std::vector<bool>& active,
                               std::size_t core) const;

  /// TC_TS(core) = P * Rth(core | TS).
  double thermal_characteristic(const std::vector<bool>& active,
                                std::size_t core, double power) const;

  /// STC(TS) = max over active cores of TC * P * W, times stc_scale.
  /// Returns 0 for an empty session and +infinity when any member is
  /// fully enclosed by active cores.
  double session_characteristic(const std::vector<bool>& active,
                                const std::vector<double>& power,
                                const std::vector<double>& weight) const;

  /// session_characteristic(active, power, weight), given `stc` = the
  /// STC of the same mask without `added` (which must be active).
  /// Adding a core only removes the lateral paths between it and its
  /// active neighbours, so only their Rth change, and only upwards;
  /// every other member keeps its value. The result is therefore
  /// max(stc, the values of `added` and its active neighbours), each
  /// computed as session_characteristic computes it — bit-identical to
  /// the full re-evaluation, in O(degree) instead of O(|TS| · degree).
  double session_characteristic_with(const std::vector<bool>& active,
                                     std::size_t added, double stc,
                                     const std::vector<double>& power,
                                     const std::vector<double>& weight) const;

  /// Lateral resistance between adjacent cores i and j [K/W]
  /// (+infinity when not adjacent). Mirrors the RC simulator's formula.
  double lateral_resistance(std::size_t i, std::size_t j) const;

  /// Combined resistance from core i to the chip boundary [K/W]
  /// (+infinity for interior blocks).
  double boundary_resistance(std::size_t i) const;

  /// Vertical resistance of core i through the package [K/W].
  double vertical_resistance(std::size_t i) const;

  static constexpr double kInfiniteResistance =
      std::numeric_limits<double>::infinity();

 private:
  /// Throws unless the mask and both vectors have one entry per core.
  void require_session_sizes(const std::vector<bool>& active,
                             const std::vector<double>& power,
                             const std::vector<double>& weight) const;

  /// equivalent_resistance without argument checks.
  double resistance(const std::vector<bool>& active, std::size_t core) const;

  /// TC * P * W of `core`, unscaled (+infinity when TC is).
  double weighted_characteristic(const std::vector<bool>& active,
                                 std::size_t core,
                                 const std::vector<double>& power,
                                 const std::vector<double>& weight) const;

  struct LateralPath {
    std::size_t other;       ///< neighbouring core index
    double conductance;      ///< 1/R of the shared-edge silicon slab [W/K]
  };

  SessionModelOptions options_;
  /// Per-core lateral paths to neighbours.
  std::vector<std::vector<LateralPath>> lateral_;
  /// Per-core conductance to the chip boundary [W/K] (0 for interior).
  std::vector<double> boundary_conductance_;
  /// Per-core vertical conductance through the package [W/K].
  std::vector<double> vertical_conductance_;
};

}  // namespace thermo::core

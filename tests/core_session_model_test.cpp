// Tests of the paper's test session thermal model (Section 2): the
// equivalent resistance reduction, the TC/STC definitions, and the three
// modelling modifications.
#include "core/session_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "floorplan/generator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::core {
namespace {

using thermo::testing::idx;
using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

class SessionModelTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = nine_floorplan();
  thermal::PackageParams pkg_;
  SessionThermalModel model_{fp_, pkg_, {}};

  std::vector<bool> only(std::initializer_list<const char*> names) const {
    std::vector<bool> mask(fp_.size(), false);
    for (const char* n : names) mask[idx(fp_, n)] = true;
    return mask;
  }
};

TEST_F(SessionModelTest, LateralResistanceMatchesSlabFormula) {
  // Two adjacent 2 mm blocks: R = (1 mm + 1 mm)/(k * t * 2 mm).
  const double expected =
      (1e-3 + 1e-3) / (pkg_.k_die * pkg_.t_die * 2e-3);
  EXPECT_NEAR(model_.lateral_resistance(idx(fp_, "b0_0"), idx(fp_, "b0_1")),
              expected, 1e-9);
}

TEST_F(SessionModelTest, NonAdjacentCoresHaveInfiniteLateralResistance) {
  EXPECT_TRUE(std::isinf(
      model_.lateral_resistance(idx(fp_, "b0_0"), idx(fp_, "b2_2"))));
}

TEST_F(SessionModelTest, InteriorBlockHasInfiniteBoundaryResistance) {
  EXPECT_TRUE(std::isinf(model_.boundary_resistance(idx(fp_, "b1_1"))));
}

TEST_F(SessionModelTest, CornerBlockHasTwoBoundaryPaths) {
  // Corner: two exposed 2 mm sides, each R = 1 mm/(k*t*2 mm), in parallel.
  const double single = 1e-3 / (pkg_.k_die * pkg_.t_die * 2e-3);
  EXPECT_NEAR(model_.boundary_resistance(idx(fp_, "b0_0")), single / 2.0,
              1e-9);
}

TEST_F(SessionModelTest, SoloCoreSeesAllNeighboursAsGround) {
  // Centre block alone: 4 lateral paths, no boundary.
  const double lateral =
      model_.lateral_resistance(idx(fp_, "b1_1"), idx(fp_, "b0_1"));
  const double rth =
      model_.equivalent_resistance(only({"b1_1"}), idx(fp_, "b1_1"));
  EXPECT_NEAR(rth, lateral / 4.0, 1e-9);
}

TEST_F(SessionModelTest, ActiveNeighboursAreRemovedFromGroundPaths) {
  // Modification 2: making a neighbour active removes its path, raising
  // Rth of the centre core from L/4 to L/3.
  const double lateral =
      model_.lateral_resistance(idx(fp_, "b1_1"), idx(fp_, "b0_1"));
  const double rth = model_.equivalent_resistance(only({"b1_1", "b0_1"}),
                                                  idx(fp_, "b1_1"));
  EXPECT_NEAR(rth, lateral / 3.0, 1e-9);
}

TEST_F(SessionModelTest, FullyEnclosedCoreHasInfiniteRth) {
  // Centre core with all four neighbours active: no path to ground.
  const auto mask = only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"});
  EXPECT_TRUE(
      std::isinf(model_.equivalent_resistance(mask, idx(fp_, "b1_1"))));
}

TEST_F(SessionModelTest, RthMonotoneInActiveNeighbourCount) {
  const std::size_t centre = idx(fp_, "b1_1");
  double previous = model_.equivalent_resistance(only({"b1_1"}), centre);
  const char* neighbours[] = {"b0_1", "b1_0", "b1_2"};
  std::vector<const char*> active_names{"b1_1"};
  for (const char* n : neighbours) {
    active_names.push_back(n);
    std::vector<bool> mask(fp_.size(), false);
    for (const char* name : active_names) mask[idx(fp_, name)] = true;
    const double rth = model_.equivalent_resistance(mask, centre);
    EXPECT_GT(rth, previous);
    previous = rth;
  }
}

TEST_F(SessionModelTest, ThermalCharacteristicIsPowerTimesRth) {
  const std::size_t corner = idx(fp_, "b0_0");
  const auto mask = only({"b0_0"});
  const double rth = model_.equivalent_resistance(mask, corner);
  EXPECT_NEAR(model_.thermal_characteristic(mask, corner, 5.0), 5.0 * rth,
              1e-12);
  EXPECT_DOUBLE_EQ(model_.thermal_characteristic(mask, corner, 0.0), 0.0);
}

TEST_F(SessionModelTest, SessionCharacteristicIsMaxOverMembers) {
  const auto mask = only({"b0_0", "b2_2"});
  std::vector<double> power(fp_.size(), 0.0);
  power[idx(fp_, "b0_0")] = 2.0;
  power[idx(fp_, "b2_2")] = 6.0;
  const std::vector<double> weight(fp_.size(), 1.0);
  const double stc = model_.session_characteristic(mask, power, weight);
  const double tc_hot = model_.thermal_characteristic(mask, idx(fp_, "b2_2"), 6.0);
  EXPECT_NEAR(stc, tc_hot * 6.0, 1e-9);
}

TEST_F(SessionModelTest, EmptySessionHasZeroStc) {
  const std::vector<bool> none(fp_.size(), false);
  const std::vector<double> power(fp_.size(), 5.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  EXPECT_DOUBLE_EQ(model_.session_characteristic(none, power, weight), 0.0);
}

TEST_F(SessionModelTest, WeightsScaleStcLinearly) {
  const auto mask = only({"b0_0"});
  const std::vector<double> power(fp_.size(), 4.0);
  std::vector<double> weight(fp_.size(), 1.0);
  const double base = model_.session_characteristic(mask, power, weight);
  weight[idx(fp_, "b0_0")] = 1.1;
  EXPECT_NEAR(model_.session_characteristic(mask, power, weight), base * 1.1,
              1e-9);
}

TEST_F(SessionModelTest, StcScaleAppliesUniformly) {
  SessionModelOptions scaled;
  scaled.stc_scale = 0.01;
  const SessionThermalModel scaled_model(fp_, pkg_, scaled);
  const auto mask = only({"b0_0", "b0_2"});
  const std::vector<double> power(fp_.size(), 4.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  EXPECT_NEAR(scaled_model.session_characteristic(mask, power, weight),
              0.01 * model_.session_characteristic(mask, power, weight),
              1e-12);
}

TEST_F(SessionModelTest, EnclosedMemberMakesStcInfinite) {
  const auto mask = only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"});
  const std::vector<double> power(fp_.size(), 1.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  EXPECT_TRUE(
      std::isinf(model_.session_characteristic(mask, power, weight)));
}

TEST_F(SessionModelTest, VerticalPathExtensionLowersRth) {
  SessionModelOptions with_vertical;
  with_vertical.include_vertical_path = true;
  const SessionThermalModel extended(fp_, pkg_, with_vertical);
  const auto mask = only({"b1_1"});
  const std::size_t centre = idx(fp_, "b1_1");
  EXPECT_LT(extended.equivalent_resistance(mask, centre),
            model_.equivalent_resistance(mask, centre));
}

TEST_F(SessionModelTest, VerticalPathMakesEnclosedCoreFinite) {
  SessionModelOptions with_vertical;
  with_vertical.include_vertical_path = true;
  const SessionThermalModel extended(fp_, pkg_, with_vertical);
  const auto mask = only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"});
  const double rth = extended.equivalent_resistance(mask, idx(fp_, "b1_1"));
  EXPECT_TRUE(std::isfinite(rth));
  EXPECT_NEAR(rth, extended.vertical_resistance(idx(fp_, "b1_1")), 1e-9);
}

TEST_F(SessionModelTest, VerticalResistanceShrinksWithArea) {
  floorplan::Floorplan fp("two");
  fp.add_block({"small", 1e-3, 1e-3, 0.0, 0.0});
  fp.add_block({"large", 4e-3, 1e-3, 1e-3, 0.0});
  const SessionThermalModel m(fp, pkg_, {});
  EXPECT_GT(m.vertical_resistance(0), m.vertical_resistance(1));
}

TEST_F(SessionModelTest, PaperExampleStructure) {
  // Paper Figures 2-4: in session {2,4,5} on a 6-block layout, core 2
  // keeps paths to passive neighbours and the boundary only. Reproduce
  // the structural claim on the quad floorplan: for session {a, d},
  // both members keep boundary paths plus paths to the two passive
  // blocks; Rth equals the parallel combination explicitly.
  const floorplan::Floorplan quad = quad_floorplan();
  const SessionThermalModel m(quad, pkg_, {});
  std::vector<bool> mask(4, false);
  mask[idx(quad, "a")] = true;
  mask[idx(quad, "d")] = true;
  const double r_ab = m.lateral_resistance(idx(quad, "a"), idx(quad, "b"));
  const double r_ac = m.lateral_resistance(idx(quad, "a"), idx(quad, "c"));
  const double r_boundary = m.boundary_resistance(idx(quad, "a"));
  const double expected =
      1.0 / (1.0 / r_ab + 1.0 / r_ac + 1.0 / r_boundary);
  EXPECT_NEAR(m.equivalent_resistance(mask, idx(quad, "a")), expected, 1e-12);
}

TEST_F(SessionModelTest, ValidatesArguments) {
  const std::vector<bool> short_mask(3, false);
  EXPECT_THROW(model_.equivalent_resistance(short_mask, 0), InvalidArgument);
  const std::vector<bool> mask(fp_.size(), false);
  EXPECT_THROW(model_.equivalent_resistance(mask, 99), InvalidArgument);
  EXPECT_THROW(model_.thermal_characteristic(mask, 0, -1.0), InvalidArgument);
  SessionModelOptions bad;
  bad.stc_scale = 0.0;
  EXPECT_THROW(SessionThermalModel(fp_, pkg_, bad), InvalidArgument);
}

// --- incremental STC (session_characteristic_with) ---

TEST(IncrementalStc, BitEqualToTheFullReevaluation) {
  // Random starting sessions grown in random orders, under random powers
  // (some zero) and weights, on layouts with interior cores that become
  // enclosed (+infinity), with and without the vertical path and under
  // several stc_scale values: every step must equal
  // session_characteristic of the grown mask bit for bit.
  Rng layout_rng(41);
  floorplan::SlicingOptions slicing;
  slicing.block_count = 40;
  const std::vector<floorplan::Floorplan> layouts{
      nine_floorplan(), floorplan::make_grid_floorplan(6, 7, 0.012, 0.014),
      floorplan::make_slicing_floorplan(layout_rng, slicing)};
  const thermal::PackageParams package;
  Rng rng(7);
  std::size_t steps = 0;
  std::size_t infinite = 0;
  for (const floorplan::Floorplan& fp : layouts) {
    const std::size_t n = fp.size();
    for (const bool vertical : {false, true}) {
      for (const double scale : {1.0, 0.37, 3.1}) {
        SessionModelOptions options;
        options.include_vertical_path = vertical;
        options.stc_scale = scale;
        const SessionThermalModel model(fp, package, options);
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<double> power(n, 0.0);
          std::vector<double> weight(n, 1.0);
          for (std::size_t i = 0; i < n; ++i) {
            if (!rng.chance(0.15)) power[i] = rng.uniform(0.1, 30.0);
            if (rng.chance(0.4)) weight[i] = rng.uniform(1.0, 8.0);
          }
          std::vector<bool> active(n, false);
          for (std::size_t i = 0; i < n; ++i) active[i] = rng.chance(0.2);
          double stc = model.session_characteristic(active, power, weight);
          std::vector<std::size_t> order(n);
          std::iota(order.begin(), order.end(), std::size_t{0});
          rng.shuffle(order);
          for (const std::size_t candidate : order) {
            if (active[candidate]) continue;
            active[candidate] = true;
            const double with = model.session_characteristic_with(
                active, candidate, stc, power, weight);
            const double full = model.session_characteristic(active, power, weight);
            EXPECT_EQ(with, full) << fp.name() << " vertical " << vertical
                                  << " scale " << scale << " trial " << trial
                                  << " adding " << candidate;
            ++steps;
            if (std::isinf(full)) ++infinite;
            // Keep most candidates (growing enclosures), drop the rest.
            if (rng.chance(0.7)) {
              stc = full;
            } else {
              active[candidate] = false;
            }
          }
        }
      }
    }
  }
  // The sweep reached both regimes.
  EXPECT_GT(infinite, 0u);
  EXPECT_GT(steps - infinite, steps / 4);
}

TEST_F(SessionModelTest, IncrementalStcSeesANeighbourBecomeEnclosed) {
  // b1_1 is active; adding its last passive neighbour leaves it no path
  // to ground, so the grown session is infinite although the added
  // edge core alone is cool.
  const std::vector<double> power(fp_.size(), 1.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  const double stc = model_.session_characteristic(
      only({"b1_1", "b0_1", "b1_0", "b1_2"}), power, weight);
  ASSERT_TRUE(std::isfinite(stc));
  EXPECT_TRUE(std::isinf(model_.session_characteristic_with(
      only({"b1_1", "b0_1", "b1_0", "b1_2", "b2_1"}), idx(fp_, "b2_1"), stc,
      power, weight)));
}

TEST_F(SessionModelTest, IncrementalStcValidatesArguments) {
  const auto mask = only({"b0_0"});
  const std::vector<double> power(fp_.size(), 1.0);
  const std::vector<double> weight(fp_.size(), 1.0);
  const std::vector<double> short_vector(3, 1.0);
  EXPECT_NO_THROW(model_.session_characteristic_with(mask, 0, 0.0, power, weight));
  EXPECT_THROW(model_.session_characteristic_with(std::vector<bool>(3, true),
                                                  0, 0.0, power, weight),
               InvalidArgument);
  EXPECT_THROW(
      model_.session_characteristic_with(mask, 0, 0.0, short_vector, weight),
      InvalidArgument);
  EXPECT_THROW(
      model_.session_characteristic_with(mask, 0, 0.0, power, short_vector),
      InvalidArgument);
  EXPECT_THROW(model_.session_characteristic_with(mask, 99, 0.0, power, weight),
               InvalidArgument);
  // The added core must be in the mask.
  EXPECT_THROW(model_.session_characteristic_with(mask, idx(fp_, "b0_1"), 0.0,
                                                  power, weight),
               InvalidArgument);
  EXPECT_THROW(model_.session_characteristic_with(mask, 0, -1.0, power, weight),
               InvalidArgument);
  std::vector<double> negative = power;
  negative[0] = -1.0;
  EXPECT_THROW(
      model_.session_characteristic_with(mask, 0, 0.0, negative, weight),
      InvalidArgument);
}

}  // namespace
}  // namespace thermo::core

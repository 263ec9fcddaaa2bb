#include "floorplan/floorplan.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::floorplan {
namespace {

using thermo::testing::idx;
using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

TEST(Block, GeometryAccessors) {
  const Block b{"x", 2e-3, 1e-3, 1e-3, 4e-3};
  EXPECT_DOUBLE_EQ(b.area(), 2e-6);
  EXPECT_DOUBLE_EQ(b.right(), 3e-3);
  EXPECT_DOUBLE_EQ(b.top(), 5e-3);
  EXPECT_DOUBLE_EQ(b.center_x(), 2e-3);
  EXPECT_DOUBLE_EQ(b.center_y(), 4.5e-3);
}

TEST(Block, CentroidToSideUsesCorrectAxis) {
  const Block b{"x", 2e-3, 4e-3, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kNorth), 2e-3);
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kEast), 1e-3);
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kWest), 1e-3);
}

TEST(Block, SideLength) {
  const Block b{"x", 2e-3, 4e-3, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(b.side_length(Side::kNorth), 2e-3);
  EXPECT_DOUBLE_EQ(b.side_length(Side::kEast), 4e-3);
}

TEST(Block, OverlapDetection) {
  const Block a{"a", 2e-3, 2e-3, 0.0, 0.0};
  const Block inside{"b", 1e-3, 1e-3, 0.5e-3, 0.5e-3};
  const Block touching{"c", 1e-3, 1e-3, 2e-3, 0.0};
  const Block apart{"d", 1e-3, 1e-3, 5e-3, 5e-3};
  EXPECT_TRUE(a.overlaps(inside));
  EXPECT_FALSE(a.overlaps(touching));  // shared edge is not overlap
  EXPECT_FALSE(a.overlaps(apart));
}

TEST(Floorplan, AddBlockValidation) {
  Floorplan fp("t");
  EXPECT_THROW(fp.add_block({"", 1e-3, 1e-3, 0, 0}), InvalidArgument);
  EXPECT_THROW(fp.add_block({"z", 0.0, 1e-3, 0, 0}), InvalidArgument);
  EXPECT_THROW(fp.add_block({"z", 1e-3, -1e-3, 0, 0}), InvalidArgument);
  fp.add_block({"a", 1e-3, 1e-3, 0, 0});
  EXPECT_THROW(fp.add_block({"a", 1e-3, 1e-3, 5e-3, 0}), InvalidArgument);
}

TEST(Floorplan, IndexOfFindsBlocks) {
  const Floorplan fp = quad_floorplan();
  EXPECT_EQ(*fp.index_of("a"), 0u);
  EXPECT_EQ(*fp.index_of("d"), 3u);
  EXPECT_FALSE(fp.index_of("nope").has_value());
}

TEST(Floorplan, ChipBoundingBox) {
  const Floorplan fp = quad_floorplan();
  EXPECT_DOUBLE_EQ(fp.chip_width(), 2e-3);
  EXPECT_DOUBLE_EQ(fp.chip_height(), 2e-3);
  EXPECT_DOUBLE_EQ(fp.chip_area(), 4e-6);
}

TEST(Floorplan, QuadAdjacencyStructure) {
  const Floorplan fp = quad_floorplan();
  // a-b, a-c, b-d, c-d adjacent; a-d and b-c only touch at a corner.
  EXPECT_TRUE(fp.are_adjacent(idx(fp, "a"), idx(fp, "b")));
  EXPECT_TRUE(fp.are_adjacent(idx(fp, "a"), idx(fp, "c")));
  EXPECT_TRUE(fp.are_adjacent(idx(fp, "b"), idx(fp, "d")));
  EXPECT_TRUE(fp.are_adjacent(idx(fp, "c"), idx(fp, "d")));
  EXPECT_FALSE(fp.are_adjacent(idx(fp, "a"), idx(fp, "d")));
  EXPECT_FALSE(fp.are_adjacent(idx(fp, "b"), idx(fp, "c")));
  EXPECT_EQ(fp.adjacencies().size(), 4u);
}

TEST(Floorplan, SharedEdgeLengthFullSide) {
  const Floorplan fp = quad_floorplan();
  EXPECT_DOUBLE_EQ(fp.shared_edge(idx(fp, "a"), idx(fp, "b")), 1e-3);
  EXPECT_DOUBLE_EQ(fp.shared_edge(idx(fp, "b"), idx(fp, "a")), 1e-3);
  EXPECT_DOUBLE_EQ(fp.shared_edge(idx(fp, "a"), idx(fp, "d")), 0.0);
}

TEST(Floorplan, PartialSharedEdge) {
  Floorplan fp("partial");
  fp.add_block({"left", 1e-3, 2e-3, 0.0, 0.0});
  fp.add_block({"right", 1e-3, 1e-3, 1e-3, 0.5e-3});
  EXPECT_DOUBLE_EQ(fp.shared_edge(0, 1), 1e-3);  // overlap of [0,2] and [0.5,1.5]
}

TEST(Floorplan, NeighboursList) {
  const Floorplan fp = nine_floorplan();
  const auto centre = fp.neighbours(idx(fp, "b1_1"));
  EXPECT_EQ(centre.size(), 4u);
  const auto corner = fp.neighbours(idx(fp, "b0_0"));
  EXPECT_EQ(corner.size(), 2u);
}

TEST(Floorplan, BoundaryExposureCorner) {
  const Floorplan fp = nine_floorplan();
  const std::size_t corner = idx(fp, "b0_0");
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner, Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner, Side::kWest), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner, Side::kNorth), 0.0);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner), 4e-3);
}

TEST(Floorplan, InteriorBlockHasNoBoundaryExposure) {
  const Floorplan fp = nine_floorplan();
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(idx(fp, "b1_1")), 0.0);
}

TEST(Floorplan, EdgeBlockHasOneExposedSide) {
  const Floorplan fp = nine_floorplan();
  const std::size_t edge = idx(fp, "b0_1");  // bottom middle
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(edge, Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(edge), 2e-3);
}

TEST(Floorplan, ValidateAcceptsCleanFloorplan) {
  const ValidationReport report = nine_floorplan().validate();
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_NEAR(report.coverage, 1.0, 1e-12);
}

TEST(Floorplan, ValidateDetectsOverlap) {
  Floorplan fp("bad");
  fp.add_block({"a", 2e-3, 2e-3, 0.0, 0.0});
  fp.add_block({"b", 2e-3, 2e-3, 1e-3, 1e-3});
  const ValidationReport report = fp.validate();
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("overlap"), std::string::npos);
  EXPECT_THROW(fp.require_valid(), InvalidArgument);
}

TEST(Floorplan, ValidateWarnsAboutPoorCoverage) {
  Floorplan fp("sparse");
  fp.add_block({"a", 1e-3, 1e-3, 0.0, 0.0});
  fp.add_block({"b", 1e-3, 1e-3, 9e-3, 9e-3});
  const ValidationReport report = fp.validate();
  EXPECT_TRUE(report.ok);  // coverage is a warning, not an error
  EXPECT_FALSE(report.warnings.empty());
  EXPECT_LT(report.coverage, 0.05);
}

TEST(Floorplan, ValidateRejectsEmpty) {
  const Floorplan fp("empty");
  EXPECT_FALSE(fp.validate().ok);
  EXPECT_THROW(fp.require_valid(), InvalidArgument);
}

TEST(Floorplan, CacheInvalidatedByAddBlock) {
  Floorplan fp("grow");
  fp.add_block({"a", 1e-3, 1e-3, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(fp.chip_width(), 1e-3);
  fp.add_block({"b", 1e-3, 1e-3, 1e-3, 0.0});
  EXPECT_DOUBLE_EQ(fp.chip_width(), 2e-3);
  EXPECT_TRUE(fp.are_adjacent(0, 1));
}

TEST(Floorplan, ValidationReportFollowsAddBlock) {
  // The report is cached with the geometry: a block added after a clean
  // validation must show up in the next report, detached-block warnings
  // included, and a copy carries the report of its original.
  Floorplan fp("grow");
  fp.add_block({"a", 2e-3, 2e-3, 0.0, 0.0});
  fp.add_block({"b", 2e-3, 2e-3, 2e-3, 0.0});
  EXPECT_TRUE(fp.validate().ok);
  EXPECT_TRUE(fp.validate().warnings.empty());
  fp.add_block({"c", 2e-3, 2e-3, 1e-3, 1e-3});
  const ValidationReport overlapping = fp.validate();
  EXPECT_FALSE(overlapping.ok);
  ASSERT_EQ(overlapping.errors.size(), 2u);  // c overlaps a and b
  EXPECT_THROW(fp.require_valid(), InvalidArgument);
  const Floorplan copy = fp;
  EXPECT_EQ(copy.validate().errors, overlapping.errors);

  Floorplan ring("ring");
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (r == 1 && c == 1) continue;
      ring.add_block({"r" + std::to_string(r) + std::to_string(c), 1e-3, 1e-3,
                      c * 1e-3, r * 1e-3});
    }
  }
  EXPECT_EQ(ring.validate().warnings.size(), 1u);  // 8/9 coverage
  // A small block floating in the hole touches nothing.
  ring.add_block({"hole", 0.5e-3, 0.5e-3, 1.25e-3, 1.25e-3});
  const ValidationReport holed = ring.validate();
  EXPECT_TRUE(holed.ok);
  ASSERT_EQ(holed.warnings.size(), 2u);  // coverage, then the detached block
  EXPECT_NE(holed.warnings[1].find("'hole' is thermally detached"),
            std::string::npos);
}

TEST(Floorplan, OutOfRangeIndicesThrow) {
  const Floorplan fp = quad_floorplan();
  EXPECT_THROW(fp.block(4), InvalidArgument);
  EXPECT_THROW(fp.shared_edge(0, 4), InvalidArgument);
  EXPECT_THROW(fp.neighbours(4), InvalidArgument);
  EXPECT_THROW(fp.boundary_exposure(4), InvalidArgument);
}

}  // namespace
}  // namespace thermo::floorplan

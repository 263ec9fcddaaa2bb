#include "floorplan/generator.hpp"

#include <string>
#include <vector>

#include "util/error.hpp"

namespace thermo::floorplan {

Floorplan make_grid_floorplan(std::size_t rows, std::size_t cols,
                              double chip_width, double chip_height) {
  THERMO_REQUIRE(rows > 0 && cols > 0, "grid floorplan needs rows, cols > 0");
  THERMO_REQUIRE(chip_width > 0.0 && chip_height > 0.0,
                 "grid floorplan needs positive chip dimensions");
  Floorplan fp("grid" + std::to_string(rows) + "x" + std::to_string(cols));
  const double bw = chip_width / static_cast<double>(cols);
  const double bh = chip_height / static_cast<double>(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      Block block;
      // Appended piecewise: "b" + std::to_string(r) trips GCC 12's
      // -Wrestrict false positive in libstdc++'s operator+.
      block.name = "b";
      block.name += std::to_string(r);
      block.name += '_';
      block.name += std::to_string(c);
      block.width = bw;
      block.height = bh;
      block.x = static_cast<double>(c) * bw;
      block.y = static_cast<double>(r) * bh;
      fp.add_block(std::move(block));
    }
  }
  return fp;
}

namespace {

struct Region {
  double x, y, w, h;
};

}  // namespace

Floorplan make_slicing_floorplan(Rng& rng, const SlicingOptions& options) {
  THERMO_REQUIRE(options.block_count >= 1, "need at least one block");
  THERMO_REQUIRE(options.chip_width > 0.0 && options.chip_height > 0.0,
                 "chip dimensions must be positive");
  THERMO_REQUIRE(options.min_cut_fraction > 0.0 && options.min_cut_fraction < 0.5,
                 "min_cut_fraction must lie in (0, 0.5)");

  std::vector<Region> regions{{0.0, 0.0, options.chip_width, options.chip_height}};
  // Repeatedly split the largest region until we have enough leaves.
  while (regions.size() < options.block_count) {
    std::size_t largest = 0;
    for (std::size_t i = 1; i < regions.size(); ++i) {
      if (regions[i].w * regions[i].h > regions[largest].w * regions[largest].h) {
        largest = i;
      }
    }
    Region region = regions[largest];
    const bool can_cut_vertical = region.w >= 2.0 * options.min_block_dim;
    const bool can_cut_horizontal = region.h >= 2.0 * options.min_block_dim;
    if (!can_cut_vertical && !can_cut_horizontal) {
      // Degenerate chip (too many blocks for min_block_dim); give up on
      // this region and cut the next largest instead by shrinking its
      // priority. In practice chips are far larger than min_block_dim.
      throw InvalidArgument(
          "slicing floorplan: cannot reach block_count without violating "
          "min_block_dim");
    }
    bool cut_vertical;
    if (can_cut_vertical && can_cut_horizontal) {
      // Prefer cutting the longer span to keep aspect ratios sane.
      cut_vertical = region.w > region.h ? true
                    : region.h > region.w ? false
                                          : rng.chance(0.5);
    } else {
      cut_vertical = can_cut_vertical;
    }
    const double fraction =
        rng.uniform(options.min_cut_fraction, 1.0 - options.min_cut_fraction);
    Region first = region;
    Region second = region;
    if (cut_vertical) {
      first.w = region.w * fraction;
      second.x = region.x + first.w;
      second.w = region.w - first.w;
    } else {
      first.h = region.h * fraction;
      second.y = region.y + first.h;
      second.h = region.h - first.h;
    }
    regions[largest] = first;
    regions.push_back(second);
  }

  Floorplan fp("slicing" + std::to_string(options.block_count));
  for (std::size_t i = 0; i < regions.size(); ++i) {
    Block block;
    block.name = "c";
    block.name += std::to_string(i);
    block.x = regions[i].x;
    block.y = regions[i].y;
    block.width = regions[i].w;
    block.height = regions[i].h;
    fp.add_block(std::move(block));
  }
  return fp;
}

}  // namespace thermo::floorplan

#include "floorplan/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace thermo::floorplan {

namespace {

/// Overlap length of [a0, a1] and [b0, b1]; <= 0 when disjoint.
double interval_overlap(double a0, double a1, double b0, double b1) {
  return std::min(a1, b1) - std::max(a0, b0);
}

}  // namespace

std::size_t Floorplan::add_block(Block block) {
  THERMO_REQUIRE(!block.name.empty(), "block name must be non-empty");
  THERMO_REQUIRE(block.width > 0.0 && block.height > 0.0,
                 "block '" + block.name + "' must have positive dimensions");
  THERMO_REQUIRE(std::isfinite(block.x) && std::isfinite(block.y) &&
                     std::isfinite(block.width) && std::isfinite(block.height),
                 "block '" + block.name + "' has non-finite geometry");
  THERMO_REQUIRE(!index_of(block.name).has_value(),
                 "duplicate block name '" + block.name + "'");
  blocks_.push_back(std::move(block));
  invalidate_cache();
  return blocks_.size() - 1;
}

const Block& Floorplan::block(std::size_t i) const {
  THERMO_REQUIRE(i < blocks_.size(), "block index out of range");
  return blocks_[i];
}

std::optional<std::size_t> Floorplan::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].name == name) return i;
  }
  return std::nullopt;
}

void Floorplan::invalidate_cache() { cache_valid_ = false; }

void Floorplan::compute_cache() const {
  if (cache_valid_) return;
  const std::size_t n = blocks_.size();
  adjacencies_.clear();
  adj_.assign(n, {});
  boundary_.assign(n, {0.0, 0.0, 0.0, 0.0});
  report_ = ValidationReport{};

  if (n == 0) {
    min_x_ = min_y_ = max_x_ = max_y_ = 0.0;
    report_.ok = false;
    report_.errors.push_back("floorplan has no blocks");
    cache_valid_ = true;
    return;
  }

  min_x_ = blocks_[0].left();
  max_x_ = blocks_[0].right();
  min_y_ = blocks_[0].bottom();
  max_y_ = blocks_[0].top();
  for (const Block& b : blocks_) {
    min_x_ = std::min(min_x_, b.left());
    max_x_ = std::max(max_x_, b.right());
    min_y_ = std::min(min_y_, b.bottom());
    max_y_ = std::max(max_y_, b.top());
  }

  // One pass over the pairs finds both the adjacencies and the overlaps
  // validate() reports.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Block& a = blocks_[i];
      const Block& b = blocks_[j];
      if (a.overlaps(b, kGeomTol)) {
        std::ostringstream os;
        os << "blocks '" << a.name << "' and '" << b.name << "' overlap";
        report_.errors.push_back(os.str());
      }
      double length = 0.0;
      Side side = Side::kNorth;
      // Vertical abutment: a's top touches b's bottom or vice versa.
      if (std::fabs(a.top() - b.bottom()) < kGeomTol) {
        length = interval_overlap(a.left(), a.right(), b.left(), b.right());
        side = Side::kNorth;
      } else if (std::fabs(b.top() - a.bottom()) < kGeomTol) {
        length = interval_overlap(a.left(), a.right(), b.left(), b.right());
        side = Side::kSouth;
      } else if (std::fabs(a.right() - b.left()) < kGeomTol) {
        length = interval_overlap(a.bottom(), a.top(), b.bottom(), b.top());
        side = Side::kEast;
      } else if (std::fabs(b.right() - a.left()) < kGeomTol) {
        length = interval_overlap(a.bottom(), a.top(), b.bottom(), b.top());
        side = Side::kWest;
      }
      if (length > kGeomTol) {
        adjacencies_.push_back(Adjacency{i, j, length, side});
        // The (i, j) loop order visits each list's entries in strictly
        // increasing neighbour index, so the lists come out sorted.
        adj_[i].emplace_back(j, length);
        adj_[j].emplace_back(i, length);
      }
    }
  }

  // Boundary exposure: portion of each block side lying on the bbox edge.
  for (std::size_t i = 0; i < n; ++i) {
    const Block& b = blocks_[i];
    auto& exposure = boundary_[i];
    if (std::fabs(b.top() - max_y_) < kGeomTol) exposure[0] = b.width;
    if (std::fabs(b.bottom() - min_y_) < kGeomTol) exposure[1] = b.width;
    if (std::fabs(b.right() - max_x_) < kGeomTol) exposure[2] = b.height;
    if (std::fabs(b.left() - min_x_) < kGeomTol) exposure[3] = b.height;
  }

  double block_area = 0.0;
  for (const Block& b : blocks_) block_area += b.area();
  const double bbox_area = (max_x_ - min_x_) * (max_y_ - min_y_);
  report_.coverage = bbox_area > 0.0 ? block_area / bbox_area : 0.0;
  if (report_.coverage < 0.95) {
    std::ostringstream os;
    os << "blocks cover only " << report_.coverage * 100.0
       << "% of the chip bounding box";
    report_.warnings.push_back(os.str());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& exposure = boundary_[i];
    const double exposed =
        exposure[0] + exposure[1] + exposure[2] + exposure[3];
    if (adj_[i].empty() && exposed <= kGeomTol) {
      report_.warnings.push_back("block '" + blocks_[i].name +
                                 "' is thermally detached (no neighbours, "
                                 "no boundary exposure)");
    }
  }
  report_.ok = report_.errors.empty();

  cache_valid_ = true;
}

double Floorplan::chip_width() const {
  compute_cache();
  return max_x_ - min_x_;
}

double Floorplan::chip_height() const {
  compute_cache();
  return max_y_ - min_y_;
}

double Floorplan::min_x() const {
  compute_cache();
  return min_x_;
}

double Floorplan::min_y() const {
  compute_cache();
  return min_y_;
}

const std::vector<Adjacency>& Floorplan::adjacencies() const {
  compute_cache();
  return adjacencies_;
}

double Floorplan::shared_edge(std::size_t i, std::size_t j) const {
  THERMO_REQUIRE(i < blocks_.size() && j < blocks_.size(),
                 "shared_edge: index out of range");
  compute_cache();
  const auto& edges = adj_[i];
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), j,
      [](const std::pair<std::size_t, double>& e, std::size_t key) {
        return e.first < key;
      });
  return it != edges.end() && it->first == j ? it->second : 0.0;
}

bool Floorplan::are_adjacent(std::size_t i, std::size_t j) const {
  return shared_edge(i, j) > kGeomTol;
}

std::vector<std::size_t> Floorplan::neighbours(std::size_t i) const {
  THERMO_REQUIRE(i < blocks_.size(), "neighbours: index out of range");
  compute_cache();
  std::vector<std::size_t> out;
  out.reserve(adj_[i].size());
  for (const auto& [j, length] : adj_[i]) out.push_back(j);
  return out;
}

const std::vector<std::pair<std::size_t, double>>& Floorplan::neighbour_edges(
    std::size_t i) const {
  THERMO_REQUIRE(i < blocks_.size(), "neighbour_edges: index out of range");
  compute_cache();
  return adj_[i];
}

double Floorplan::boundary_exposure(std::size_t i, Side side) const {
  THERMO_REQUIRE(i < blocks_.size(), "boundary_exposure: index out of range");
  compute_cache();
  switch (side) {
    case Side::kNorth: return boundary_[i][0];
    case Side::kSouth: return boundary_[i][1];
    case Side::kEast: return boundary_[i][2];
    case Side::kWest: return boundary_[i][3];
  }
  return 0.0;
}

double Floorplan::boundary_exposure(std::size_t i) const {
  double total = 0.0;
  for (Side side : kAllSides) total += boundary_exposure(i, side);
  return total;
}

ValidationReport Floorplan::validate() const {
  compute_cache();
  return report_;
}

void Floorplan::require_valid() const {
  compute_cache();
  if (!report_.ok) {
    std::string message = "invalid floorplan '" + name_ + "':";
    for (const auto& e : report_.errors) message += "\n  - " + e;
    throw InvalidArgument(message);
  }
}

}  // namespace thermo::floorplan

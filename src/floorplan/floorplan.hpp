// Floorplan: a named collection of blocks with derived adjacency
// information (shared-edge lengths and chip-boundary exposure), the
// geometric substrate for both the RC thermal model and the paper's test
// session thermal model.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "floorplan/block.hpp"

namespace thermo::floorplan {

/// Lateral adjacency between two blocks: they abut along an axis and
/// share `shared_length` metres of edge.
struct Adjacency {
  std::size_t a = 0;
  std::size_t b = 0;
  double shared_length = 0.0;  ///< metres
  /// Side of block `a` on which `b` touches it.
  Side side_of_a = Side::kNorth;
};

/// Result of Floorplan::validate().
struct ValidationReport {
  bool ok = true;
  std::vector<std::string> errors;    ///< overlaps, non-positive dims...
  std::vector<std::string> warnings;  ///< coverage gaps, detached blocks
  double coverage = 0.0;              ///< sum(block areas) / bbox area
};

class Floorplan {
 public:
  Floorplan() = default;
  explicit Floorplan(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a block (positive width/height, unique non-empty name required)
  /// and returns its index. Invalidates cached adjacency.
  std::size_t add_block(Block block);

  std::size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  const Block& block(std::size_t i) const;
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Index of the block with this name, std::nullopt when absent.
  std::optional<std::size_t> index_of(std::string_view name) const;

  // --- derived geometry (computed lazily, cached) ---

  /// Chip bounding box.
  double chip_width() const;
  double chip_height() const;
  double min_x() const;
  double min_y() const;
  double chip_area() const { return chip_width() * chip_height(); }

  /// All lateral adjacencies (each unordered pair listed once, a < b).
  const std::vector<Adjacency>& adjacencies() const;

  /// Shared edge length between blocks i and j (0 when not adjacent).
  double shared_edge(std::size_t i, std::size_t j) const;

  /// True when the blocks abut with positive shared edge length.
  bool are_adjacent(std::size_t i, std::size_t j) const;

  /// Indices of blocks adjacent to `i`, in increasing index order.
  std::vector<std::size_t> neighbours(std::size_t i) const;

  /// (neighbour index, shared edge length) pairs for block `i`, sorted
  /// by neighbour index — the O(degree) view model assembly iterates
  /// instead of scanning a dense row.
  const std::vector<std::pair<std::size_t, double>>& neighbour_edges(
      std::size_t i) const;

  /// Length of block i's perimeter lying on the chip bounding box,
  /// per side. (A block in the interior returns 0 everywhere.)
  double boundary_exposure(std::size_t i, Side side) const;

  /// Total boundary exposure over all four sides.
  double boundary_exposure(std::size_t i) const;

  /// Checks geometric consistency: positive dimensions, no pairwise
  /// overlap; warns about poor area coverage (< 95 % of bbox) and blocks
  /// with no neighbours and no boundary exposure. The report is part of
  /// the derived-geometry cache: computed in the same pass as the
  /// adjacencies, so repeated calls on an unchanged floorplan (and its
  /// copies) cost a copy of the report.
  ValidationReport validate() const;

  /// Throws InvalidArgument when validate() reports errors.
  void require_valid() const;

 private:
  void invalidate_cache();
  void compute_cache() const;

  std::string name_;
  std::vector<Block> blocks_;

  // lazily computed
  mutable bool cache_valid_ = false;
  mutable std::vector<Adjacency> adjacencies_;
  /// Per-block (neighbour, shared length) lists, sorted by neighbour.
  /// O(nnz) storage where the old dense n×n shared-edge matrix was
  /// O(n²) — the memory wall that capped synthetic floorplan sizes.
  mutable std::vector<std::vector<std::pair<std::size_t, double>>> adj_;
  mutable double min_x_ = 0.0, min_y_ = 0.0, max_x_ = 0.0, max_y_ = 0.0;
  mutable std::vector<std::array<double, 4>> boundary_;  // N,S,E,W per block
  mutable ValidationReport report_;
};

/// Geometric tolerance (metres) used for abutment tests: edges closer
/// than this are considered touching. Floorplan dimensions are ~1e-3 m,
/// so 1e-9 m is far below any feature size but far above FP noise.
inline constexpr double kGeomTol = 1e-9;

}  // namespace thermo::floorplan

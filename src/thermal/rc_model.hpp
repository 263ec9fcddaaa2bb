// RC-equivalent thermal network of a packaged die (the "accurate"
// simulator in the paper's flow; our substitute for the HotSpot tool).
//
// Node layout (index order):
//   [0, n)                    one node per floorplan block (die layer)
//   n + 0                     heat-spreader centre
//   n + 1 .. n + 4            spreader periphery (N, S, E, W)
//   n + 5                     heat-sink centre
//   n + 6 .. n + 9            sink periphery (N, S, E, W)
// Ambient is the ground node (not represented explicitly); conductances
// to ambient appear only on the diagonal of G. Temperatures are solved
// as rises over ambient.
//
// Conductance stamping:
//  * die block <-> die block: lateral silicon slab through the shared
//    edge, R = (d_i + d_j) / (k_die * t_die * w_shared) with d_* the
//    centroid-to-edge distances;
//  * die block -> spreader centre: half-die vertical conduction + TIM
//    + constriction/spreading resistance into the spreader,
//    R = t_die/(2 k_die A) + t_tim/(k_tim A) + 0.475/(k_sp sqrt(A));
//  * spreader centre <-> periphery: half-side copper slab;
//  * spreader -> sink, sink centre <-> periphery: same slab forms;
//  * sink -> ambient: total r_convec split across the five sink nodes
//    proportionally to their footprint area.
//
// Chip side walls are adiabatic (HotSpot convention): no lateral path
// from a die block to ambient. The *session model* (src/core) makes the
// opposite modelling choice on purpose — see the paper, Section 2.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/sparse.hpp"
#include "thermal/package.hpp"

namespace thermo::thermal {

struct FactorStore;
class UnitResponses;

class RCModel {
 public:
  /// Builds the network. The floorplan must be valid (no overlaps) and is
  /// copied into the model. Throws InvalidArgument otherwise.
  /// Assembly is sparse-first: conductances stamp straight into a CSR
  /// builder, so construction is O(nnz) time and memory — the dense n×n
  /// mirror is only materialised if conductance() is called. Copies
  /// share the factor store (solver_cache.hpp) and unit responses.
  RCModel(const floorplan::Floorplan& fp, const PackageParams& package);

  std::size_t block_count() const { return block_count_; }
  std::size_t node_count() const { return block_count_ + kPackageNodes; }

  /// Number of package (non-die) nodes appended after the block nodes.
  static constexpr std::size_t kPackageNodes = 10;

  std::size_t spreader_center_index() const { return block_count_; }
  std::size_t sink_center_index() const { return block_count_ + 5; }

  const floorplan::Floorplan& floorplan() const { return floorplan_; }
  const PackageParams& package() const { return package_; }

  /// Largest node count for which the dense mirror may be materialised
  /// (3.2 GB at the cap); above it conductance() throws and callers
  /// must stay on the sparse path.
  static constexpr std::size_t kDenseMirrorMaxNodes = 20000;

  /// Symmetric positive-definite conductance matrix G [W/K] over all
  /// nodes, ambient eliminated (to-ambient conductance on the diagonal).
  /// DENSE MIRROR, built lazily on first call (thread-safe) and kept in
  /// the model's factor store, so copies share it — only the dense
  /// backend, the kLu cross-check path, and tests want it. Throws
  /// InvalidArgument above kDenseMirrorMaxNodes.
  const linalg::DenseMatrix& conductance() const;

  /// The CSR matrix G — the primary representation; assembly stamps
  /// directly into it and the sparse backend factors it as-is.
  const linalg::SparseMatrix& conductance_sparse() const { return sparse_; }

  /// Per-node heat capacity [J/K] (all positive).
  const std::vector<double>& capacitance() const { return capacitance_; }

  /// Node name ("block:<name>", "spreader_c", "sink_n", ...).
  const std::string& node_name(std::size_t node) const;

  /// Expands per-block power [W] into a full node power vector (package
  /// nodes dissipate nothing).
  std::vector<double> expand_power(const std::vector<double>& block_power) const;

  /// Throws InvalidArgument unless `block_power` has one finite,
  /// non-negative entry per block (what expand_power checks).
  void require_valid_power(const std::vector<double>& block_power) const;

  /// The unit-power step responses ThermalAnalyzer superposes
  /// (unit_response.hpp): built lazily and thread-safely, shared by
  /// copies, freed with the last copy.
  UnitResponses& unit_responses() const { return *unit_responses_; }

  /// Direct conductance between two nodes [W/K] (0 when not connected).
  double conductance_between(std::size_t a, std::size_t b) const;

  /// Sum over row `node` of conductance to ambient [W/K].
  double conductance_to_ambient(std::size_t node) const;

 private:
  friend class ThermalSolverCache;

  void build();
  void stamp(linalg::SparseMatrix::Builder& builder, std::size_t a,
             std::size_t b, double conductance);
  void stamp_to_ambient(linalg::SparseMatrix::Builder& builder,
                        std::size_t node, double conductance);

  floorplan::Floorplan floorplan_;
  PackageParams package_;
  std::size_t block_count_ = 0;
  linalg::SparseMatrix sparse_;
  std::vector<double> capacitance_;
  std::vector<double> ambient_conductance_;
  std::vector<std::string> node_names_;
  // Both lazily filled and shared by copies (an RCModel is immutable,
  // so copies hold identical matrices); freed with the last copy.
  std::shared_ptr<FactorStore> factors_;
  std::shared_ptr<UnitResponses> unit_responses_;
};

}  // namespace thermo::thermal

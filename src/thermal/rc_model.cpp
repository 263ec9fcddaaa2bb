#include "thermal/rc_model.hpp"

#include <cmath>
#include <mutex>

#include "thermal/solver_cache.hpp"
#include "thermal/unit_response.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace fp = thermo::floorplan;

RCModel::RCModel(const fp::Floorplan& floorplan, const PackageParams& package)
    : floorplan_(floorplan),
      package_(package),
      factors_(std::make_shared<FactorStore>()),
      unit_responses_(std::make_shared<UnitResponses>()) {
  package_.validate();
  floorplan_.require_valid();
  block_count_ = floorplan_.size();
  build();
}

void RCModel::stamp(linalg::SparseMatrix::Builder& builder, std::size_t a,
                    std::size_t b, double g) {
  THERMO_ENSURE(std::isfinite(g) && g > 0.0, "stamped conductance must be positive");
  builder.add(a, a, g);
  builder.add(b, b, g);
  builder.add(a, b, -g);
  builder.add(b, a, -g);
}

void RCModel::stamp_to_ambient(linalg::SparseMatrix::Builder& builder,
                               std::size_t node, double g) {
  THERMO_ENSURE(std::isfinite(g) && g > 0.0, "ambient conductance must be positive");
  builder.add(node, node, g);
  ambient_conductance_[node] += g;
}

void RCModel::build() {
  const std::size_t n = block_count_;
  const std::size_t total = node_count();
  // Sparse-first assembly: every stamp goes straight into the COO
  // builder (duplicates merge in insertion order, so the CSR values
  // are bit-identical to accumulating into a dense matrix). ~4 stamps
  // of 4 entries per node bounds the triplet count.
  linalg::SparseMatrix::Builder builder(total, total);
  builder.reserve(16 * total);
  capacitance_.assign(total, 0.0);
  ambient_conductance_.assign(total, 0.0);
  node_names_.clear();
  node_names_.reserve(total);
  for (std::size_t i = 0; i < n; ++i) {
    node_names_.push_back("block:" + floorplan_.block(i).name);
  }
  for (const char* name : {"spreader_c", "spreader_n", "spreader_s",
                           "spreader_e", "spreader_w", "sink_c", "sink_n",
                           "sink_s", "sink_e", "sink_w"}) {
    node_names_.emplace_back(name);
  }

  const std::size_t sp_c = spreader_center_index();
  const std::size_t sp_n = sp_c + 1, sp_s = sp_c + 2, sp_e = sp_c + 3,
                    sp_w = sp_c + 4;
  const std::size_t sk_c = sink_center_index();
  const std::size_t sk_n = sk_c + 1, sk_s = sk_c + 2, sk_e = sk_c + 3,
                    sk_w = sk_c + 4;

  // --- die lateral conductances ---
  for (const fp::Adjacency& adj : floorplan_.adjacencies()) {
    const fp::Block& a = floorplan_.block(adj.a);
    const fp::Block& b = floorplan_.block(adj.b);
    const double da = a.centroid_to_side(adj.side_of_a);
    // The side of b facing a is the opposite one; centroid distance is
    // symmetric per axis, so reuse the same axis extent.
    const double db = b.centroid_to_side(adj.side_of_a);
    const double resistance =
        (da + db) / (package_.k_die * package_.t_die * adj.shared_length);
    stamp(builder, adj.a, adj.b, 1.0 / resistance);
  }

  // --- die vertical path: block -> spreader centre ---
  for (std::size_t i = 0; i < n; ++i) {
    const double area = floorplan_.block(i).area();
    const double r_die = package_.t_die / (2.0 * package_.k_die * area);
    const double r_tim = package_.t_tim / (package_.k_tim * area);
    // Constriction (spreading) resistance of a square heat source of
    // side sqrt(area) into the copper spreader; 0.475/(k*L) is the
    // classic square-source half-space approximation.
    const double r_spread = 0.475 / (package_.k_spreader * std::sqrt(area));
    stamp(builder, i, sp_c, 1.0 / (r_die + r_tim + r_spread));
  }

  // --- spreader lateral: centre <-> periphery (half-side copper slab) ---
  {
    const double side = package_.spreader_side;
    const double r_lat = (side / 2.0) /
                         (package_.k_spreader * package_.t_spreader * side);
    for (std::size_t node : {sp_n, sp_s, sp_e, sp_w}) {
      stamp(builder, sp_c, node, 1.0 / r_lat);
    }
  }

  // --- spreader -> sink vertical ---
  {
    const double a_spr = package_.spreader_side * package_.spreader_side;
    // Centre column: spreader half-thickness + sink half-thickness over
    // the spreader footprint.
    const double r_center =
        package_.t_spreader / (2.0 * package_.k_spreader * a_spr) +
        package_.t_sink / (2.0 * package_.k_sink * a_spr);
    stamp(builder, sp_c, sk_c, 1.0 / r_center);
    // Periphery quadrants drain into the matching sink periphery node.
    const double a_quadrant = a_spr / 4.0;
    const double r_side =
        package_.t_spreader / (2.0 * package_.k_spreader * a_quadrant) +
        package_.t_sink / (2.0 * package_.k_sink * a_quadrant);
    stamp(builder, sp_n, sk_n, 1.0 / r_side);
    stamp(builder, sp_s, sk_s, 1.0 / r_side);
    stamp(builder, sp_e, sk_e, 1.0 / r_side);
    stamp(builder, sp_w, sk_w, 1.0 / r_side);
  }

  // --- sink lateral: centre <-> periphery ---
  {
    const double side = package_.sink_side;
    const double r_lat =
        (side / 2.0) / (package_.k_sink * package_.t_sink * side);
    for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
      stamp(builder, sk_c, node, 1.0 / r_lat);
    }
  }

  // --- convection to ambient, split by footprint area ---
  {
    const double a_sink = package_.sink_side * package_.sink_side;
    const double a_spr = package_.spreader_side * package_.spreader_side;
    const double a_center = a_spr;  // centre node sits under the spreader
    const double a_side = (a_sink - a_spr) / 4.0;
    // R_node = r_convec * (A_sink / A_node): nodes in parallel recombine
    // to exactly r_convec.
    stamp_to_ambient(builder, sk_c, a_center / (package_.r_convec * a_sink));
    if (a_side > 0.0) {
      for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
        stamp_to_ambient(builder, node, a_side / (package_.r_convec * a_sink));
      }
    } else {
      // Degenerate package (sink == spreader): keep periphery grounded
      // through a tiny leak so G stays non-singular.
      for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
        stamp_to_ambient(builder, node, 1e-9);
      }
    }
  }

  // --- capacitances ---
  for (std::size_t i = 0; i < n; ++i) {
    const double volume = floorplan_.block(i).area() * package_.t_die;
    capacitance_[i] = package_.capacity_factor * package_.c_die * volume;
  }
  {
    const double a_spr = package_.spreader_side * package_.spreader_side;
    const double v_center = a_spr * package_.t_spreader;
    capacitance_[sp_c] = package_.capacity_factor * package_.c_spreader * v_center;
    // Periphery nodes share the remaining spreader volume; for the simple
    // five-node split the centre already covers the full footprint, so
    // give the periphery a quarter of the centre volume each (keeps the
    // transient well-posed without double counting much mass).
    for (std::size_t node : {sp_n, sp_s, sp_e, sp_w}) {
      capacitance_[node] =
          package_.capacity_factor * package_.c_spreader * v_center / 4.0;
    }
    const double a_sink = package_.sink_side * package_.sink_side;
    const double v_sink_center = a_spr * package_.t_sink;
    const double v_sink_side = (a_sink - a_spr) / 4.0 * package_.t_sink;
    capacitance_[sk_c] =
        package_.capacity_factor * package_.c_sink * v_sink_center +
        package_.c_convec * a_spr / a_sink;
    for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
      capacitance_[node] =
          package_.capacity_factor * package_.c_sink *
              std::max(v_sink_side, 1e-12) +
          package_.c_convec * std::max(a_sink - a_spr, 1e-12) / (4.0 * a_sink);
    }
  }

  sparse_ = builder.build();
  // Symmetry validation runs on the CSR matrix directly — no dense
  // mirror is materialised for it (O(nnz·log) instead of O(n²)).
  THERMO_ENSURE(sparse_.is_symmetric(1e-9),
                "conductance matrix must be symmetric");
}

const linalg::DenseMatrix& RCModel::conductance() const {
  std::scoped_lock lock(factors_->mutex);
  if (!factors_->dense_conductance) {
    THERMO_REQUIRE(node_count() <= kDenseMirrorMaxNodes,
                   "dense conductance mirror disabled above " +
                       std::to_string(kDenseMirrorMaxNodes) +
                       " nodes; use conductance_sparse()");
    factors_->dense_conductance =
        std::make_unique<const linalg::DenseMatrix>(sparse_.to_dense());
  }
  return *factors_->dense_conductance;
}

const std::string& RCModel::node_name(std::size_t node) const {
  THERMO_REQUIRE(node < node_names_.size(), "node index out of range");
  return node_names_[node];
}

void RCModel::require_valid_power(const std::vector<double>& block_power) const {
  THERMO_REQUIRE(block_power.size() == block_count_,
                 "power vector size must equal the block count");
  for (double p : block_power) {
    THERMO_REQUIRE(std::isfinite(p) && p >= 0.0,
                   "block power must be finite and non-negative");
  }
}

std::vector<double> RCModel::expand_power(
    const std::vector<double>& block_power) const {
  require_valid_power(block_power);
  std::vector<double> power(node_count(), 0.0);
  for (std::size_t i = 0; i < block_count_; ++i) power[i] = block_power[i];
  return power;
}

double RCModel::conductance_between(std::size_t a, std::size_t b) const {
  THERMO_REQUIRE(a < node_count() && b < node_count(),
                 "node index out of range");
  THERMO_REQUIRE(a != b, "conductance_between requires two distinct nodes");
  return -sparse_.at(a, b);
}

double RCModel::conductance_to_ambient(std::size_t node) const {
  THERMO_REQUIRE(node < node_count(), "node index out of range");
  return ambient_conductance_[node];
}

}  // namespace thermo::thermal

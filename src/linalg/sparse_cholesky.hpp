// Sparse Cholesky factorization (LDLᵗ variant) for symmetric positive-
// definite systems in CSR form — the sparse-backend counterpart of
// cholesky.hpp.
//
// Thermal conductance matrices have ~5 off-diagonals per die row plus a
// handful of package rows that touch every die block. By default the
// factor applies a fill-reducing minimum-degree permutation
// (linalg/ordering.hpp) before the symbolic pass: the factorization
// runs on P·A·Pᵗ internally while solve() accepts and returns vectors
// in the ORIGINAL node order, so callers never see the permutation.
// factor_nonzeros() reports post-ordering fill. On a 64×64 grid model
// the ordering cuts nnz(L) from ~260k (natural, bandwidth-bound) to
// ~80k; on banded thermal numberings it never loses by much, and
// Ordering::kNatural remains available for baselines and tests.
//
// Preconditions and cost (docs/SOLVERS.md "Choosing a backend"):
//  * the input must be symmetric positive definite. Symmetry is NOT
//    verified (only the lower triangle, col <= row, is read); a
//    non-positive pivot is detected during factorization and reported
//    as NumericalError.
//  * factorization is O(Σ |col j of L|²) flops — for thermal networks
//    effectively linear in n — versus n³/3 dense; each solve() is
//    2·nnz(L) flops versus 2 n² dense.
//  * the algorithm is the classic up-looking LDLᵗ over the elimination
//    tree (symbolic pass computes the tree + column counts, numeric
//    pass fills L column by column). A = L·D·Lᵗ with unit-lower L and
//    diagonal D, so no square roots are taken; solve() is forward
//    substitution, a diagonal scale, and back substitution.
//  * solve() is const, deterministic, and thread-safe — the factor is
//    shareable across sweep workers exactly like the dense factors
//    (a thermal model keeps both kinds side by side in its factor
//    store, thermal/solver_cache.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"
#include "linalg/vector_ops.hpp"

namespace thermo::linalg {

/// Fill-reducing ordering applied before the symbolic pass.
enum class Ordering {
  kNatural,    // factor A as given (baseline / debugging)
  kMinDegree,  // deterministic minimum-degree (linalg/ordering.hpp)
  kAuto,       // kMinDegree at/above kOrderingAutoMinNodes, else natural
};

/// Matrix size at and above which Ordering::kAuto applies min-degree.
/// Below it the fill win is negligible and natural order keeps small
/// models' historical bit-exact results (argmax tie-breaks included).
inline constexpr std::size_t kOrderingAutoMinNodes = 64;

class SparseCholeskyFactor {
 public:
  /// Factors A = L D Lᵗ, by default after a fill-reducing
  /// minimum-degree permutation (applied internally; solve() works in
  /// the original index order). Throws InvalidArgument when A is not
  /// square, NumericalError when A is not (numerically) positive
  /// definite. Only the lower triangle of the (permuted) matrix is
  /// read numerically, but with kMinDegree the PATTERN of both
  /// triangles must be symmetric — true by construction for stamped
  /// conductance matrices.
  explicit SparseCholeskyFactor(const SparseMatrix& a,
                                Ordering ordering = Ordering::kAuto);

  std::size_t size() const { return n_; }

  /// Strictly-lower-triangular non-zeros of L (the unit diagonal is
  /// implicit) — POST-ordering fill. Exposed so benches/tests can
  /// report fill.
  std::size_t factor_nonzeros() const { return values_.size(); }

  /// The ordering actually applied — kAuto is resolved at construction
  /// and never stored.
  Ordering ordering() const { return ordering_; }

  /// The fill-reducing permutation actually applied: perm()[k] is the
  /// original index eliminated k-th. Empty when factoring in natural
  /// order.
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Solves A x = b (forward + diagonal + backward substitution;
  /// reusable, thread-safe). b and x are in the original index order.
  Vector solve(const Vector& b) const;

  /// Allocation-free solve for callers that gather the right-hand side
  /// themselves: on entry x[k] = b[permutation()[k]] (x = b when the
  /// permutation is empty), on exit x = A⁻¹ b in the original order.
  /// solve(b) is exactly this after the gather.
  void substitute_in_place(Vector& x) const;

 private:
  void factorize(const SparseMatrix& a);

  std::size_t n_ = 0;
  Ordering ordering_ = Ordering::kNatural;
  std::vector<std::size_t> perm_;      // position -> original index
  std::vector<std::size_t> inv_perm_;  // original index -> position
  // Smallest index of every non-trivial cycle of perm_: lets
  // substitute_in_place scatter x[perm_[k]] = x[k] without a buffer.
  std::vector<std::size_t> cycle_leaders_;
  // L in compressed-sparse-column form, strictly lower triangle, row
  // indices increasing within each column (the natural order in which
  // the up-looking algorithm emits them).
  std::vector<std::size_t> col_offsets_;  // size n_ + 1
  std::vector<std::size_t> row_indices_;
  std::vector<double> values_;
  std::vector<double> diag_;  // D
};

/// Backward-Euler stepper for the linear constant-coefficient system
///     C dy/dt = b - G y
/// with diagonal capacitance C and SPARSE SPD G: factors (C/dt + G)
/// once with SparseCholeskyFactor and back-substitutes per step. The
/// sparse-backend counterpart of LinearImplicitStepper (linalg/ode.hpp)
/// with the same step() semantics; step() is const and thread-safe.
class SparseImplicitStepper {
 public:
  /// Factors (C/dt + G); dt must be > 0, capacitance entries > 0, and
  /// G square, SPD, with capacitance.size() == G rows.
  SparseImplicitStepper(const SparseMatrix& g, const Vector& capacitance,
                        double dt);

  double dt() const { return dt_; }
  std::size_t size() const { return capacitance_.size(); }
  const SparseCholeskyFactor& factor() const { return factor_; }

  /// Advances one step: returns y(t + dt) given y(t) and constant rhs b.
  Vector step(const Vector& y, const Vector& b) const;

  /// step() without allocating: writes y(t + dt) into `out` (resized to
  /// size() on first use; must not alias y or b). Same arithmetic in
  /// the same order as step(), so the two agree bit for bit.
  void step_into(const Vector& y, const Vector& b, Vector& out) const;

 private:
  Vector capacitance_;
  double dt_;
  SparseCholeskyFactor factor_;
};

}  // namespace thermo::linalg

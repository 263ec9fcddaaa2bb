// LU decomposition with partial pivoting.
//
// The general-purpose dense factorization: used to factor the transient
// backward-Euler system matrix (C/dt + G) once per step size and
// back-substitute per step, and as a cross-check for the Cholesky path
// (docs/SOLVERS.md compares the three solvers).
//
// Preconditions and behaviour:
//  * any square, non-singular matrix is accepted — no symmetry or
//    definiteness requirement. Numerical singularity (pivot magnitude
//    below 1e-300 after row exchange) throws NumericalError.
//  * pivoting is partial (row exchanges only): each column's pivot is
//    the largest-magnitude entry on or below the diagonal. This bounds
//    the multipliers by 1 and is stable for the diagonally dominant
//    matrices the thermal stack produces; no column pivoting is done,
//    so pathological growth is theoretically possible on arbitrary
//    input.
//  * factorization is 2 n^3/3 flops (twice Cholesky); each solve() is
//    2 n^2. Reuse the factor across right-hand sides — that is what
//    LinearImplicitStepper and thermal::ThermalSolverCache do.
#pragma once

#include "linalg/dense_matrix.hpp"

namespace thermo::linalg {

class LuDecomposition {
 public:
  /// Factors a square matrix; throws NumericalError when (numerically)
  /// singular.
  explicit LuDecomposition(const DenseMatrix& a);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b (reusable, thread-safe).
  Vector solve(const Vector& b) const;

  /// Row permutation of the factorization: row i of L·U is row
  /// permutation()[i] of A.
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Allocation-free solve for callers that gather the right-hand side
  /// themselves: on entry x[i] = b[permutation()[i]], on exit x = A⁻¹ b.
  /// solve(b) is exactly this after the gather.
  void substitute_in_place(Vector& x) const;

  /// Solves A X = B column-by-column.
  DenseMatrix solve(const DenseMatrix& b) const;

  /// Determinant of the original matrix.
  double determinant() const;

  /// Inverse (prefer solve() when possible).
  DenseMatrix inverse() const;

 private:
  DenseMatrix lu_;              // combined L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int permutation_sign_ = 1;
};

/// "Factor once, solve many" is the intended usage; the alias names it.
using LuFactor = LuDecomposition;

/// One-shot convenience: solve A x = b (factors every call — prefer an
/// LuFactor when the matrix is fixed across calls).
Vector lu_solve(const DenseMatrix& a, const Vector& b);

}  // namespace thermo::linalg

#include "linalg/lu.hpp"

#include <cmath>

#include "util/error.hpp"

namespace thermo::linalg {

LuDecomposition::LuDecomposition(const DenseMatrix& a) : lu_(a) {
  THERMO_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest magnitude entry in this column.
    std::size_t pivot_row = col;
    double pivot_mag = std::fabs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, col));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) {
      throw NumericalError("LU: matrix is singular at column " +
                           std::to_string(col));
    }
    if (pivot_row != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(pivot_row, c), lu_(col, c));
      }
      std::swap(perm_[pivot_row], perm_[col]);
      permutation_sign_ = -permutation_sign_;
    }
    const double pivot = lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) / pivot;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = size();
  THERMO_REQUIRE(b.size() == n, "LU solve: rhs size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  substitute_in_place(y);
  return y;
}

void LuDecomposition::substitute_in_place(Vector& y) const {
  const std::size_t n = size();
  THERMO_REQUIRE(y.size() == n, "LU solve: rhs size mismatch");
  // Forward substitution with unit-lower L.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = y[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lu_(i, j) * y[j];
    y[i] = sum;
  }
  // Backward substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu_(ii, j) * y[j];
    y[ii] = sum / lu_(ii, ii);
  }
}

DenseMatrix LuDecomposition::solve(const DenseMatrix& b) const {
  THERMO_REQUIRE(b.rows() == size(), "LU solve: rhs row mismatch");
  DenseMatrix x(b.rows(), b.cols());
  Vector column(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, c);
    Vector solved = solve(column);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = solved[r];
  }
  return x;
}

double LuDecomposition::determinant() const {
  double det = permutation_sign_;
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

DenseMatrix LuDecomposition::inverse() const {
  return solve(DenseMatrix::identity(size()));
}

Vector lu_solve(const DenseMatrix& a, const Vector& b) {
  return LuDecomposition(a).solve(b);
}

}  // namespace thermo::linalg

#include "linalg/sparse_cholesky.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "linalg/ordering.hpp"
#include "util/error.hpp"

namespace thermo::linalg {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}  // namespace

SparseCholeskyFactor::SparseCholeskyFactor(const SparseMatrix& a,
                                           Ordering ordering)
    : ordering_(ordering) {
  THERMO_REQUIRE(a.rows() == a.cols(), "sparse cholesky: matrix must be square");
  n_ = a.rows();
  if (ordering_ == Ordering::kAuto) {
    ordering_ = n_ >= kOrderingAutoMinNodes ? Ordering::kMinDegree
                                            : Ordering::kNatural;
  }
  if (ordering_ == Ordering::kMinDegree && n_ > 1) {
    perm_ = min_degree_ordering(a);
    inv_perm_.assign(n_, 0);
    for (std::size_t k = 0; k < n_; ++k) inv_perm_[perm_[k]] = k;
    std::vector<bool> seen(n_, false);
    for (std::size_t k = 0; k < n_; ++k) {
      if (seen[k] || perm_[k] == k) continue;
      cycle_leaders_.push_back(k);
      for (std::size_t j = k; !seen[j]; j = perm_[j]) seen[j] = true;
    }
    // Assemble P·A·Pᵗ through the builder (A carries both triangles,
    // so the permuted matrix does too; no duplicates arise).
    SparseMatrix::Builder builder(n_, n_);
    builder.reserve(a.nonzeros());
    const std::vector<std::size_t>& ap = a.row_offsets();
    const std::vector<std::size_t>& ai = a.col_indices();
    const std::vector<double>& ax = a.values();
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t q = ap[r]; q < ap[r + 1]; ++q) {
        builder.add(inv_perm_[r], inv_perm_[ai[q]], ax[q]);
      }
    }
    factorize(builder.build());
  } else {
    factorize(a);
  }
}

void SparseCholeskyFactor::factorize(const SparseMatrix& a) {
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();
  const std::vector<double>& ax = a.values();

  // Symbolic pass: elimination tree and per-column non-zero counts of L.
  // Row k of A's strictly-lower triangle reaches column k of L through
  // tree paths; walking each entry's column up to the root marked with
  // `flag == k` visits every L column that gains an entry in row k.
  std::vector<std::size_t> parent(n_, kNone);
  std::vector<std::size_t> flag(n_, kNone);
  std::vector<std::size_t> count(n_, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    flag[k] = k;
    for (std::size_t p = ap[k]; p < ap[k + 1]; ++p) {
      std::size_t i = ai[p];
      if (i >= k) continue;
      for (; flag[i] != k; i = parent[i]) {
        if (parent[i] == kNone) parent[i] = k;
        ++count[i];
        flag[i] = k;
      }
    }
  }

  col_offsets_.assign(n_ + 1, 0);
  for (std::size_t j = 0; j < n_; ++j) {
    col_offsets_[j + 1] = col_offsets_[j] + count[j];
  }
  row_indices_.assign(col_offsets_[n_], 0);
  values_.assign(col_offsets_[n_], 0.0);
  diag_.assign(n_, 0.0);

  // Numeric pass (up-looking): for each row k, scatter the strictly-
  // lower entries of A's row k into the dense work vector y, recover
  // the non-zero pattern of L's row k in topological order via the
  // elimination tree, then eliminate column by column.
  std::vector<double> y(n_, 0.0);
  std::vector<std::size_t> pattern(n_, 0);
  std::vector<std::size_t> filled(n_, 0);  // entries of column j emitted so far
  std::fill(flag.begin(), flag.end(), kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    std::size_t top = n_;
    double dk = 0.0;
    flag[k] = k;
    for (std::size_t p = ap[k]; p < ap[k + 1]; ++p) {
      const std::size_t col = ai[p];
      if (col > k) continue;  // only the lower triangle is read
      if (col == k) {
        dk += ax[p];
        continue;
      }
      y[col] += ax[p];
      std::size_t len = 0;
      for (std::size_t i = col; flag[i] != k; i = parent[i]) {
        pattern[len++] = i;
        flag[i] = k;
      }
      while (len > 0) pattern[--top] = pattern[--len];
    }
    for (std::size_t p = top; p < n_; ++p) {
      const std::size_t i = pattern[p];
      const double yi = y[i];
      y[i] = 0.0;
      const double lki = yi / diag_[i];
      for (std::size_t q = col_offsets_[i]; q < col_offsets_[i] + filled[i];
           ++q) {
        y[row_indices_[q]] -= values_[q] * yi;
      }
      dk -= lki * yi;
      row_indices_[col_offsets_[i] + filled[i]] = k;
      values_[col_offsets_[i] + filled[i]] = lki;
      ++filled[i];
    }
    if (!(dk > 0.0) || !std::isfinite(dk)) {
      throw NumericalError(
          "sparse cholesky: matrix is not positive definite (pivot " +
          std::to_string(dk) + " at row " + std::to_string(k) + ")");
    }
    diag_[k] = dk;
  }
}

Vector SparseCholeskyFactor::solve(const Vector& b) const {
  THERMO_REQUIRE(b.size() == n_, "sparse cholesky solve: size mismatch");
  Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    x[k] = perm_.empty() ? b[k] : b[perm_[k]];
  }
  substitute_in_place(x);
  return x;
}

void SparseCholeskyFactor::substitute_in_place(Vector& x) const {
  THERMO_REQUIRE(x.size() == n_, "sparse cholesky solve: size mismatch");
  // L z = b (unit diagonal implicit).
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = x[j];
    for (std::size_t q = col_offsets_[j]; q < col_offsets_[j + 1]; ++q) {
      x[row_indices_[q]] -= values_[q] * xj;
    }
  }
  // D w = z.
  for (std::size_t j = 0; j < n_; ++j) x[j] /= diag_[j];
  // Lᵗ x = w.
  for (std::size_t j = n_; j-- > 0;) {
    double sum = x[j];
    for (std::size_t q = col_offsets_[j]; q < col_offsets_[j + 1]; ++q) {
      sum -= values_[q] * x[row_indices_[q]];
    }
    x[j] = sum;
  }
  // Scatter back to the original order, x[perm_[k]] = x[k], one cycle
  // of the permutation at a time.
  for (const std::size_t leader : cycle_leaders_) {
    double carry = x[leader];
    for (std::size_t dest = perm_[leader]; dest != leader; dest = perm_[dest]) {
      std::swap(carry, x[dest]);
    }
    x[leader] = carry;
  }
}

SparseImplicitStepper::SparseImplicitStepper(const SparseMatrix& g,
                                             const Vector& capacitance,
                                             double dt)
    : capacitance_(capacitance),
      dt_(dt),
      factor_([&] {
        THERMO_REQUIRE(g.rows() == g.cols(), "stepper: G must be square");
        THERMO_REQUIRE(capacitance.size() == g.rows(),
                       "stepper: capacitance size mismatch");
        THERMO_REQUIRE(dt > 0.0, "stepper: dt must be positive");
        // (C/dt + G) stays sparse: copy G's triplets and stamp C/dt on
        // the diagonal (the builder sums duplicates).
        SparseMatrix::Builder builder(g.rows(), g.cols());
        const std::vector<std::size_t>& offsets = g.row_offsets();
        const std::vector<std::size_t>& cols = g.col_indices();
        const std::vector<double>& values = g.values();
        for (std::size_t r = 0; r < g.rows(); ++r) {
          for (std::size_t q = offsets[r]; q < offsets[r + 1]; ++q) {
            builder.add(r, cols[q], values[q]);
          }
        }
        for (std::size_t i = 0; i < capacitance.size(); ++i) {
          THERMO_REQUIRE(capacitance[i] > 0.0,
                         "stepper: capacitances must be positive");
          builder.add(i, i, capacitance[i] / dt);
        }
        return SparseCholeskyFactor(builder.build());
      }()) {}

Vector SparseImplicitStepper::step(const Vector& y, const Vector& b) const {
  Vector out;
  step_into(y, b, out);
  return out;
}

void SparseImplicitStepper::step_into(const Vector& y, const Vector& b,
                                      Vector& out) const {
  THERMO_REQUIRE(y.size() == size(), "stepper: state size mismatch");
  THERMO_REQUIRE(b.size() == size(), "stepper: rhs size mismatch");
  THERMO_REQUIRE(&out != &y && &out != &b, "stepper: out must not alias");
  // (C/dt + G) y_next = C/dt y + b, with the right-hand side gathered
  // straight into the factor's elimination order.
  out.resize(size());
  const std::vector<std::size_t>& perm = factor_.permutation();
  for (std::size_t k = 0; k < size(); ++k) {
    const std::size_t i = perm.empty() ? k : perm[k];
    out[k] = capacitance_[i] / dt_ * y[i] + b[i];
  }
  factor_.substitute_in_place(out);
}

}  // namespace thermo::linalg

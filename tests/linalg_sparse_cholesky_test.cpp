// SparseCholeskyFactor: the sparse LDLᵗ must agree with the dense
// factorizations on the same matrix, reject non-SPD input, produce the
// expected fill for structures we can reason about, and its backward-
// Euler stepper must track the dense LinearImplicitStepper.
#include "linalg/sparse_cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/ode.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

/// Random sparse symmetric diagonally dominant (hence SPD) matrix:
/// a ring of negative off-diagonals plus `extra` random symmetric
/// couplings, diagonal = |row sum| + margin. Mimics the structure of a
/// grounded thermal conductance matrix.
SparseMatrix random_spd(Rng& rng, std::size_t n, std::size_t extra) {
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  auto couple = [&](std::size_t i, std::size_t j, double g) {
    dense[i][j] -= g;
    dense[j][i] -= g;
    dense[i][i] += g;
    dense[j][j] += g;
  };
  for (std::size_t i = 0; i < n; ++i) {
    couple(i, (i + 1) % n, rng.uniform(0.5, 2.0));
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(n) - 1));
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(n) - 1));
    if (i == j) continue;
    couple(i, j, rng.uniform(0.1, 1.0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    dense[i][i] += rng.uniform(0.05, 0.5);  // grounding: strict dominance
  }
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dense[i][j] != 0.0) builder.add(i, j, dense[i][j]);
    }
  }
  return builder.build();
}

Vector random_rhs(Rng& rng, std::size_t n) {
  Vector b(n);
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  return b;
}

double max_rel_diff(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(1e-30, std::max(std::fabs(a[i]), std::fabs(b[i])));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(SparseCholeskyTest, MatchesDenseCholeskyOnRandomSpdSystems) {
  Rng rng(42);
  for (std::size_t n : {3u, 10u, 40u, 97u}) {
    const SparseMatrix a = random_spd(rng, n, 2 * n);
    const SparseCholeskyFactor sparse(a);
    const CholeskyFactor dense(a.to_dense());
    for (int trial = 0; trial < 3; ++trial) {
      const Vector b = random_rhs(rng, n);
      // Two direct factorizations of a well-conditioned SPD system:
      // the documented cross-backend tolerance is 1e-9 relative
      // (docs/SOLVERS.md "Choosing a backend"); these small systems
      // agree far tighter.
      EXPECT_LT(max_rel_diff(sparse.solve(b), dense.solve(b)), 1e-11)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(SparseCholeskyTest, SolveIsDeterministicAcrossCalls) {
  Rng rng(7);
  const SparseMatrix a = random_spd(rng, 50, 100);
  const Vector b = random_rhs(rng, 50);
  const SparseCholeskyFactor f1(a);
  const SparseCholeskyFactor f2(a);
  const Vector x1 = f1.solve(b);
  const Vector x2 = f2.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_DOUBLE_EQ(x1[i], x2[i]);  // same algorithm, same bits
  }
}

TEST(SparseCholeskyTest, TridiagonalHasNoFill) {
  // A tridiagonal SPD matrix factors with exactly one sub-diagonal
  // entry per column: nnz(L) == n - 1 proves the symbolic analysis is
  // not over-allocating.
  const std::size_t n = 12;
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.5);
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
      builder.add(i + 1, i, -1.0);
    }
  }
  const SparseCholeskyFactor factor(builder.build());
  EXPECT_EQ(factor.factor_nonzeros(), n - 1);
}

TEST(SparseCholeskyTest, RejectsNonSpdAndBadShapes) {
  SparseMatrix::Builder indefinite(2, 2);
  indefinite.add(0, 0, 1.0);
  indefinite.add(0, 1, 3.0);
  indefinite.add(1, 0, 3.0);
  indefinite.add(1, 1, 1.0);  // eigenvalues 4 and -2
  EXPECT_THROW(SparseCholeskyFactor{indefinite.build()}, NumericalError);

  SparseMatrix::Builder negative(1, 1);
  negative.add(0, 0, -1.0);
  EXPECT_THROW(SparseCholeskyFactor{negative.build()}, NumericalError);

  SparseMatrix::Builder rect(2, 3);
  rect.add(0, 0, 1.0);
  EXPECT_THROW(SparseCholeskyFactor{rect.build()}, InvalidArgument);

  Rng rng(1);
  const SparseCholeskyFactor factor(random_spd(rng, 4, 0));
  EXPECT_THROW(factor.solve(Vector(5, 0.0)), InvalidArgument);
}

TEST(SparseImplicitStepperTest, TracksDenseStepper) {
  Rng rng(11);
  const SparseMatrix g = random_spd(rng, 30, 60);
  Vector capacitance(30);
  for (double& c : capacitance) c = rng.uniform(0.5, 3.0);
  const double dt = 1e-2;

  const SparseImplicitStepper sparse(g, capacitance, dt);
  const LinearImplicitStepper dense(g.to_dense(), capacitance, dt);
  EXPECT_DOUBLE_EQ(sparse.dt(), dt);
  EXPECT_EQ(sparse.size(), 30u);

  Vector y_sparse(30, 0.0);
  Vector y_dense(30, 0.0);
  const Vector b = random_rhs(rng, 30);
  for (int step = 0; step < 25; ++step) {
    y_sparse = sparse.step(y_sparse, b);
    y_dense = dense.step(y_dense, b);
  }
  EXPECT_LT(max_rel_diff(y_sparse, y_dense), 1e-10);
}

TEST(SparseImplicitStepperTest, StepIntoMatchesTheTextbookStepBitForBit) {
  // step_into gathers the right-hand side straight into the factor's
  // order and substitutes in place; at 97 nodes the sparse factor is
  // min-degree ordered and the dense LU pivots, so both gathers and the
  // sparse scatter run. Each step must equal, bit for bit, forming
  // rhs = C/dt·y + b and solving (C/dt + G)·x = rhs with a plain solve().
  Rng rng(19);
  const std::size_t n = 97;
  const double dt = 1e-2;
  const SparseMatrix g = random_spd(rng, n, 2 * n);
  Vector capacitance(n);
  for (double& c : capacitance) c = rng.uniform(0.5, 3.0);
  const SparseImplicitStepper sparse(g, capacitance, dt);
  const LinearImplicitStepper dense(g.to_dense(), capacitance, dt);
  ASSERT_EQ(sparse.factor().ordering(), Ordering::kMinDegree);
  DenseMatrix system = g.to_dense();
  for (std::size_t i = 0; i < n; ++i) system(i, i) += capacitance[i] / dt;
  const LuDecomposition lu(system);
  const auto textbook_rhs = [&](const Vector& y, const Vector& b) {
    Vector rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = capacitance[i] / dt * y[i] + b[i];
    }
    return rhs;
  };

  const Vector b = random_rhs(rng, n);
  Vector y_sparse(n, 0.0), y_dense(n, 0.0), next;
  for (int step = 0; step < 5; ++step) {
    sparse.step_into(y_sparse, b, next);
    EXPECT_EQ(next, sparse.factor().solve(textbook_rhs(y_sparse, b)));
    y_sparse.swap(next);
    dense.step_into(y_dense, b, next);
    EXPECT_EQ(next, lu.solve(textbook_rhs(y_dense, b)));
    y_dense.swap(next);
  }
  EXPECT_THROW(sparse.step_into(y_sparse, b, y_sparse), InvalidArgument);
  EXPECT_THROW(dense.step_into(y_dense, b, y_dense), InvalidArgument);
}

TEST(SparseImplicitStepperTest, RejectsBadInputs) {
  Rng rng(3);
  const SparseMatrix g = random_spd(rng, 5, 0);
  const Vector c(5, 1.0);
  EXPECT_THROW(SparseImplicitStepper(g, c, 0.0), InvalidArgument);
  EXPECT_THROW(SparseImplicitStepper(g, Vector(4, 1.0), 1e-3), InvalidArgument);
  EXPECT_THROW(SparseImplicitStepper(g, Vector(5, -1.0), 1e-3), InvalidArgument);
  const SparseImplicitStepper stepper(g, c, 1e-3);
  EXPECT_THROW(stepper.step(Vector(4, 0.0), Vector(5, 0.0)), InvalidArgument);
}

TEST(SparseMatrixTest, MultiplyIntoMatchesMultiply) {
  Rng rng(5);
  const SparseMatrix a = random_spd(rng, 20, 40);
  const Vector x = random_rhs(rng, 20);
  const Vector expected = a.multiply(x);
  Vector y(3, 99.0);  // wrong size on purpose: must be resized
  a.multiply_into(x, y);
  ASSERT_EQ(y.size(), expected.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], expected[i]);
  }
}

}  // namespace
}  // namespace thermo::linalg

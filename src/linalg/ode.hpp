// ODE integrators.
//
// Two families:
//  * generic explicit integrators (RK4, adaptive RK45) over an arbitrary
//    right-hand side f(t, y) — used for cross-checks in tests;
//  * a dedicated implicit (backward Euler) stepper for the *linear*
//    thermal system  C dT/dt = p - G (T - T_amb), which is stiff: die
//    nodes have millisecond time constants while the heat sink has
//    second-scale ones. The BE system matrix (C/dt + G) is factored once
//    per step size and reused; step() is const and thread-safe, so one
//    stepper can serve many concurrent transient simulations (that is
//    how thermal::ThermalSolverCache shares it — see docs/SOLVERS.md).
#pragma once

#include <functional>

#include "linalg/dense_matrix.hpp"
#include "linalg/lu.hpp"
#include "linalg/vector_ops.hpp"

namespace thermo::linalg {

using OdeRhs = std::function<Vector(double t, const Vector& y)>;

/// Classic fixed-step 4th-order Runge-Kutta step.
Vector rk4_step(const OdeRhs& f, double t, const Vector& y, double dt);

/// Integrates from t0 to t1 with fixed steps (the last step is shortened
/// to land exactly on t1). `observer`, when given, is called after every
/// step with (t, y).
Vector rk4_integrate(const OdeRhs& f, double t0, double t1, Vector y0,
                     double dt,
                     const std::function<void(double, const Vector&)>& observer = {});

struct AdaptiveOptions {
  double abs_tol = 1e-8;
  double rel_tol = 1e-6;
  double dt_initial = 1e-3;
  double dt_min = 1e-12;
  double dt_max = 1.0;
  std::size_t max_steps = 2000000;
};

/// Adaptive Runge-Kutta-Fehlberg 4(5). Throws NumericalError when the
/// step size collapses below dt_min or the step budget is exhausted.
Vector rkf45_integrate(const OdeRhs& f, double t0, double t1, Vector y0,
                       const AdaptiveOptions& options = {},
                       const std::function<void(double, const Vector&)>& observer = {});

/// Backward-Euler stepper for the linear constant-coefficient system
///     C dy/dt = b - G y
/// with diagonal capacitance C (as a vector) and dense G.
class LinearImplicitStepper {
 public:
  /// Factors (C/dt + G); dt must be > 0, capacitance entries > 0.
  LinearImplicitStepper(const DenseMatrix& g, const Vector& capacitance,
                        double dt);

  double dt() const { return dt_; }
  std::size_t size() const { return capacitance_.size(); }

  /// Advances one step: returns y(t + dt) given y(t) and constant rhs b.
  Vector step(const Vector& y, const Vector& b) const;

  /// step() without allocating: writes y(t + dt) into `out` (resized to
  /// size() on first use; must not alias y or b). Same arithmetic in
  /// the same order as step(), so the two agree bit for bit.
  void step_into(const Vector& y, const Vector& b, Vector& out) const;

 private:
  Vector capacitance_;
  double dt_;
  LuDecomposition factor_;
};

}  // namespace thermo::linalg

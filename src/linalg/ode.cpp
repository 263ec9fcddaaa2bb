#include "linalg/ode.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace thermo::linalg {

Vector rk4_step(const OdeRhs& f, double t, const Vector& y, double dt) {
  const Vector k1 = f(t, y);
  Vector tmp = y;
  axpy(0.5 * dt, k1, tmp);
  const Vector k2 = f(t + 0.5 * dt, tmp);
  tmp = y;
  axpy(0.5 * dt, k2, tmp);
  const Vector k3 = f(t + 0.5 * dt, tmp);
  tmp = y;
  axpy(dt, k3, tmp);
  const Vector k4 = f(t + dt, tmp);

  Vector out = y;
  const double w = dt / 6.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    out[i] += w * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
  return out;
}

Vector rk4_integrate(const OdeRhs& f, double t0, double t1, Vector y0, double dt,
                     const std::function<void(double, const Vector&)>& observer) {
  THERMO_REQUIRE(dt > 0.0, "rk4_integrate: dt must be positive");
  THERMO_REQUIRE(t1 >= t0, "rk4_integrate: t1 must be >= t0");
  double t = t0;
  while (t < t1) {
    const double step = std::min(dt, t1 - t);
    y0 = rk4_step(f, t, y0, step);
    t += step;
    if (observer) observer(t, y0);
  }
  return y0;
}

Vector rkf45_integrate(const OdeRhs& f, double t0, double t1, Vector y0,
                       const AdaptiveOptions& options,
                       const std::function<void(double, const Vector&)>& observer) {
  THERMO_REQUIRE(t1 >= t0, "rkf45_integrate: t1 must be >= t0");
  // Fehlberg coefficients.
  static constexpr double a2 = 1.0 / 4, a3 = 3.0 / 8, a4 = 12.0 / 13, a5 = 1.0,
                          a6 = 1.0 / 2;
  static constexpr double b21 = 1.0 / 4;
  static constexpr double b31 = 3.0 / 32, b32 = 9.0 / 32;
  static constexpr double b41 = 1932.0 / 2197, b42 = -7200.0 / 2197,
                          b43 = 7296.0 / 2197;
  static constexpr double b51 = 439.0 / 216, b52 = -8.0, b53 = 3680.0 / 513,
                          b54 = -845.0 / 4104;
  static constexpr double b61 = -8.0 / 27, b62 = 2.0, b63 = -3544.0 / 2565,
                          b64 = 1859.0 / 4104, b65 = -11.0 / 40;
  // 4th order solution weights.
  static constexpr double c1 = 25.0 / 216, c3 = 1408.0 / 2565,
                          c4 = 2197.0 / 4104, c5 = -1.0 / 5;
  // 5th order solution weights (for the error estimate).
  static constexpr double d1 = 16.0 / 135, d3 = 6656.0 / 12825,
                          d4 = 28561.0 / 56430, d5 = -9.0 / 50, d6 = 2.0 / 55;

  const std::size_t n = y0.size();
  double t = t0;
  double dt = std::clamp(options.dt_initial, options.dt_min, options.dt_max);

  for (std::size_t steps = 0; t < t1; ++steps) {
    if (steps >= options.max_steps) {
      throw NumericalError("rkf45: step budget exhausted");
    }
    dt = std::min(dt, t1 - t);

    auto stage = [&](const std::vector<std::pair<double, const Vector*>>& terms,
                     double frac) {
      Vector arg = y0;
      for (const auto& [coeff, k] : terms) axpy(dt * coeff, *k, arg);
      return f(t + frac * dt, arg);
    };

    const Vector k1 = f(t, y0);
    const Vector k2 = stage({{b21, &k1}}, a2);
    const Vector k3 = stage({{b31, &k1}, {b32, &k2}}, a3);
    const Vector k4 = stage({{b41, &k1}, {b42, &k2}, {b43, &k3}}, a4);
    const Vector k5 = stage({{b51, &k1}, {b52, &k2}, {b53, &k3}, {b54, &k4}}, a5);
    const Vector k6 =
        stage({{b61, &k1}, {b62, &k2}, {b63, &k3}, {b64, &k4}, {b65, &k5}}, a6);

    double error = 0.0;
    Vector y4(n), y5(n);
    for (std::size_t i = 0; i < n; ++i) {
      y4[i] = y0[i] + dt * (c1 * k1[i] + c3 * k3[i] + c4 * k4[i] + c5 * k5[i]);
      y5[i] = y0[i] + dt * (d1 * k1[i] + d3 * k3[i] + d4 * k4[i] + d5 * k5[i] +
                            d6 * k6[i]);
      const double scale =
          options.abs_tol + options.rel_tol * std::max(std::fabs(y0[i]), std::fabs(y4[i]));
      error = std::max(error, std::fabs(y5[i] - y4[i]) / scale);
    }

    if (error <= 1.0) {
      t += dt;
      y0 = std::move(y5);  // local extrapolation: accept the 5th-order value
      if (observer) observer(t, y0);
    }
    const double factor =
        error > 0.0 ? 0.9 * std::pow(error, -0.2) : 4.0;
    dt *= std::clamp(factor, 0.2, 4.0);
    dt = std::clamp(dt, options.dt_min, options.dt_max);
    if (dt <= options.dt_min && error > 1.0) {
      throw NumericalError("rkf45: step size collapsed below dt_min");
    }
  }
  return y0;
}

LinearImplicitStepper::LinearImplicitStepper(const DenseMatrix& g,
                                             const Vector& capacitance,
                                             double dt)
    : capacitance_(capacitance),
      dt_(dt),
      factor_([&] {
        THERMO_REQUIRE(g.rows() == g.cols(), "stepper: G must be square");
        THERMO_REQUIRE(capacitance.size() == g.rows(),
                       "stepper: capacitance size mismatch");
        THERMO_REQUIRE(dt > 0.0, "stepper: dt must be positive");
        DenseMatrix system = g;
        for (std::size_t i = 0; i < capacitance.size(); ++i) {
          THERMO_REQUIRE(capacitance[i] > 0.0,
                         "stepper: capacitances must be positive");
          system(i, i) += capacitance[i] / dt;
        }
        return LuDecomposition(system);
      }()) {}

Vector LinearImplicitStepper::step(const Vector& y, const Vector& b) const {
  Vector out;
  step_into(y, b, out);
  return out;
}

void LinearImplicitStepper::step_into(const Vector& y, const Vector& b,
                                      Vector& out) const {
  THERMO_REQUIRE(y.size() == size(), "stepper: state size mismatch");
  THERMO_REQUIRE(b.size() == size(), "stepper: rhs size mismatch");
  THERMO_REQUIRE(&out != &y && &out != &b, "stepper: out must not alias");
  // (C/dt + G) y_next = C/dt y + b, with the right-hand side gathered
  // straight into the factor's row order.
  out.resize(size());
  const std::vector<std::size_t>& perm = factor_.permutation();
  for (std::size_t k = 0; k < size(); ++k) {
    const std::size_t i = perm[k];
    out[k] = capacitance_[i] / dt_ * y[i] + b[i];
  }
  factor_.substitute_in_place(out);
}

}  // namespace thermo::linalg

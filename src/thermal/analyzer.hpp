// ThermalAnalyzer: the façade the scheduler talks to. Wraps an RCModel
// and exposes "simulate this test session, give me per-core maximum
// temperatures" — the simulate() oracle of Algorithm 1 — together with
// the cumulative simulated-time accounting the paper calls
// "simulation effort".
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

namespace thermo::thermal {

/// Outcome of simulating one test session.
struct SessionSimulation {
  /// Per-block maximum temperature reached during the session [deg C].
  std::vector<double> peak_temperature;
  /// Maximum over all blocks [deg C].
  double max_temperature = 0.0;
  /// Index of the hottest block.
  std::size_t hottest_block = 0;
  /// Duration that was simulated [s].
  double simulated_time = 0.0;
};

class ThermalAnalyzer {
 public:
  struct Options {
    double dt = 1e-3;  ///< transient step [s]
    /// When true (default), sessions are simulated transiently for their
    /// actual duration; when false, steady-state temperatures are used
    /// as a (faster, more pessimistic) oracle.
    bool transient = true;
    /// Factor representation for every solve this analyzer performs
    /// (backend.hpp): dense, sparse, or — the default — picked by the
    /// model's node count.
    SolverBackend backend = SolverBackend::kAuto;
  };

  ThermalAnalyzer(const floorplan::Floorplan& fp, const PackageParams& package);
  ThermalAnalyzer(const floorplan::Floorplan& fp, const PackageParams& package,
                  Options options);

  /// Shares an existing model instead of building a private one. Because
  /// factorizations and unit responses live in the model, analyzers
  /// sharing one model also share its factors and responses — this is how
  /// core::sweep_stcl and the serve workers give every thread its own
  /// effort accounting (analyzers are not thread-safe) while the
  /// expensive factorizations are computed once. Throws InvalidArgument
  /// on null.
  explicit ThermalAnalyzer(std::shared_ptr<const RCModel> model);
  ThermalAnalyzer(std::shared_ptr<const RCModel> model, Options options);

  const RCModel& model() const { return *model_; }
  const std::shared_ptr<const RCModel>& shared_model() const { return model_; }
  const Options& options() const { return options_; }

  /// Simulates a session: `block_power[i]` watts in every block for
  /// `duration` seconds starting from ambient. Adds `duration` to the
  /// cumulative simulation effort. In transient mode the answer is
  /// superposed from the model's cached unit responses
  /// (unit_response.hpp): it equals simulate_transient from ambient up
  /// to summation order, and its end state is the per-block peak.
  /// Throws InvalidArgument unless duration is positive and finite and
  /// every block power finite and non-negative.
  SessionSimulation simulate_session(const std::vector<double>& block_power,
                                     double duration);

  /// simulate_session's peak_temperature[block] for the session in which
  /// `block` alone dissipates `power` watts for `duration` seconds —
  /// Algorithm 1's solo pre-pass — read as T_amb + power · Z_{block,block}
  /// from the model's cached self-responses (unit_response.hpp) instead
  /// of simulating. Transient mode: bit-identical to simulate_session.
  /// Steady mode: equal to the direct solve to rounding. A zero-power
  /// block reads ambient and builds nothing. Charges effort and count
  /// like simulate_session, with the same input checks.
  double solo_peak(std::size_t block, double power, double duration);

  /// Steady-state block temperatures for a power map (no effort charge;
  /// used for reporting and the motivational example).
  std::vector<double> steady_block_temperatures(
      const std::vector<double>& block_power) const;

  /// A session simulation that starts from an arbitrary node state and
  /// also returns the final state, enabling *chained* schedules where
  /// one session's residual heat carries into the next (relaxing the
  /// paper's independent-session assumption). Charges effort like
  /// simulate_session. Requires transient mode.
  struct Chained {
    SessionSimulation session;
    std::vector<double> final_state;  ///< absolute node temperatures
  };
  Chained simulate_session_from(const std::vector<double>& block_power,
                                double duration,
                                const std::vector<double>& initial_state);

  /// All-nodes-at-ambient initial state (node-sized).
  std::vector<double> ambient_node_state() const;

  /// Zero-power cool-down for `gap` seconds from a given state (no
  /// effort charge - the tester is idle, nothing is being simulated for
  /// schedule admission). Returns the state after the gap.
  std::vector<double> cool_down(const std::vector<double>& state,
                                double gap) const;

  /// Cumulative simulated test-session time [s] — the paper's
  /// "simulation effort".
  double simulation_effort() const { return simulation_effort_; }

  /// Number of simulate_session calls so far.
  std::size_t simulation_count() const { return simulation_count_; }

  /// Resets the effort accounting (a scheduler run starts from zero).
  void reset_effort();

 private:
  std::shared_ptr<const RCModel> model_;
  Options options_;
  double simulation_effort_ = 0.0;
  std::size_t simulation_count_ = 0;
};

}  // namespace thermo::thermal

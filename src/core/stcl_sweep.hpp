// Parallel STCL exploration: run Algorithm 1 once per STCL value,
// fanned across threads by sweep::for_each_in_order in index order.
//
// The paper exposes STCL as the user knob trading schedule efficiency
// against simulation effort (Section 5); picking it means scanning a
// range. Every point in the scan schedules the SAME SoC, so all points
// share one RCModel — its factorizations are computed once through the
// solver cache and back-substituted by every worker. Each point gets a
// private ThermalAnalyzer (the effort accounting is not thread-safe).
//
// Shared by `thermosched sweep` and examples/explore_stcl.cpp; results
// are index-ordered and identical for any thread count.
#pragma once

#include <memory>
#include <vector>

#include "core/thermal_scheduler.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::core {

struct StclSweepConfig {
  /// Scheduler knobs for every point; `scheduler.stc_limit` is
  /// overwritten by each swept value.
  ThermalSchedulerOptions scheduler;
  /// Oracle options for the per-point analyzers (dt, transient vs
  /// steady-state).
  thermal::ThermalAnalyzer::Options analyzer;
  /// Worker threads; 0 picks hardware concurrency, 1 runs inline —
  /// what scenario::ScenarioRunner uses from inside a serve worker.
  std::size_t threads = 0;
};

struct StclSweepPoint {
  double stcl = 0.0;
  double schedule_length = 0.0;
  double simulation_effort = 0.0;
  std::size_t sessions = 0;
  double max_temperature = 0.0;
  std::size_t discarded_sessions = 0;
  /// TL the run actually enforced — differs from the configured
  /// temperature_limit only under SoloViolationPolicy::kRaiseLimit.
  double effective_temperature_limit = 0.0;
};

/// Runs Algorithm 1 on `soc` once per value in `stcl_values` (result i
/// corresponds to stcl_values[i]). `model` must match the SoC's
/// floorplan; pass one instance so the whole sweep shares its cached
/// factors. Throws what the scheduler throws (first failure wins).
std::vector<StclSweepPoint> sweep_stcl(
    const SocSpec& soc, std::shared_ptr<const thermal::RCModel> model,
    const std::vector<double>& stcl_values, const StclSweepConfig& config);

/// The values min, min+step, … up to and including max (absolute 1e-9
/// endpoint tolerance; computed by index so the spacing never drifts).
/// Throws InvalidArgument unless step > 0, max >= min, and the range
/// holds fewer than a million points.
std::vector<double> stcl_range(double min, double max, double step);

}  // namespace thermo::core

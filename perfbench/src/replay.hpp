// The traced replay: every request of a batch re-executed on one thread
// through the public function at each layer boundary, with a span
// around each call. It rebuilds every record serve writes, byte for
// byte, which is what proves that the spans timed the same program.
//
// Span names are the layer boundaries:
//   request            one per input line (the root; its self time is
//                      replay glue and counts as unattributed)
//   scenario.parse     scenario::parse_request_line
//   scenario.render    to_json(ScenarioResult).dump()
//   soc.build          ScenarioRunner::build_soc
//   thermal.model_build  ScenarioRunner::model_for
//   core.alg1          core::sweep_stcl (stcl_sweep requests, one span
//                      per request) or ThermalAwareScheduler::generate
//                      (chained requests)
//   core.safety_check  SafetyChecker::check (chained requests)
//   thermal.replay     power-trace parse + simulate_session_from loop
// grid_steady requests are not replayed: no workload has them.
// Factorizations run inside those calls, behind ThermalSolverCache; the
// time the thermal.factor_ns histogram records inside a span is charged
// to the layer "thermal.factor" instead of to the span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "thermal/solver_cache.hpp"

namespace perfbench {

struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< steady clock, relative to replay start
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into the span list; -1 = root
  std::size_t request = 0;     ///< input line index
  std::uint64_t factor_ns = 0; ///< factorization time inside the span
};

struct ReplayResult {
  std::vector<std::string> records;  ///< one per input line
  double wall_s = 0.0;
  std::vector<Span> spans;           ///< empty for an untraced replay

  std::size_t parse_calls = 0;
  std::size_t soc_builds = 0;
  std::size_t executed = 0;          ///< distinct requests run
  std::size_t memo_hits = 0;         ///< byte-identical repeats answered
  thermo::scenario::ScenarioRunner::Stats models;
  thermo::thermal::ThermalSolverCache::Stats factors;
  std::uint64_t factor_evictions = 0;

  std::size_t alg1_calls = 0;        ///< Algorithm-1 runs (sweep points
                                     ///< and chained schedules)
  std::size_t prepass_sims = 0;      ///< Σ cores over those runs
  std::size_t validations = 0;       ///< Σ committed + discarded sessions
  std::size_t discards = 0;
  std::size_t committed = 0;         ///< Σ sessions of the schedules

  /// Traced replays only — sparse factors the replay used: fill-reducing
  /// ordering time on their conductance pattern, and Σ nnz(L). Measured
  /// after the replay, outside its wall time.
  double ordering_s = 0.0;
  std::size_t factor_nnz = 0;
};

/// Empties the solver cache and zeroes its counters and the metrics
/// registry: the process-wide state a new process starts without.
void reset_process_state();

/// Replays `lines` from fresh program state (new runner, empty solver
/// cache, zeroed metrics). A repeat of an earlier line's memo key is
/// answered with that line's record, as serve's memo does.
ReplayResult replay(const std::vector<std::string>& lines, bool traced);

/// Self time per layer (seconds), keyed by span name plus
/// "thermal.factor"; root "request" spans are left out.
std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans);

/// The spans as JSON, one object per span.
std::string spans_json(const std::vector<Span>& spans);

}  // namespace perfbench

#include "core/thermal_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace thermo::core {

ThermalAwareScheduler::ThermalAwareScheduler(ThermalSchedulerOptions options)
    : options_(options) {
  THERMO_REQUIRE(std::isfinite(options_.temperature_limit),
                 "temperature limit must be finite");
  THERMO_REQUIRE(options_.stc_limit > 0.0, "STC limit must be positive");
  THERMO_REQUIRE(options_.weight_factor >= 1.0,
                 "weight factor must be >= 1 (weights only grow)");
  THERMO_REQUIRE(options_.max_attempts > 0, "attempt cap must be positive");
}

namespace {

/// Candidate scan order for session construction.
std::vector<std::size_t> make_order(const SocSpec& soc,
                                    const SessionThermalModel& model,
                                    CoreOrder order) {
  const std::size_t n = soc.core_count();
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  if (order == CoreOrder::kInputOrder) return indices;

  // Solo TC: thermal characteristic with an otherwise-empty session.
  std::vector<double> key(n, 0.0);
  const std::vector<bool> none(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    switch (order) {
      case CoreOrder::kDescendingPower:
        key[i] = soc.tests[i].power;
        break;
      case CoreOrder::kDescendingSoloTc:
      case CoreOrder::kAscendingSoloTc:
        key[i] = model.thermal_characteristic(none, i, soc.tests[i].power);
        break;
      case CoreOrder::kInputOrder:
        break;
    }
  }
  const bool ascending = order == CoreOrder::kAscendingSoloTc;
  std::stable_sort(indices.begin(), indices.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending ? key[a] < key[b] : key[a] > key[b];
                   });
  return indices;
}

}  // namespace

ScheduleResult ThermalAwareScheduler::generate(
    const SocSpec& soc, thermal::ThermalAnalyzer& analyzer) const {
  soc.validate();
  THERMO_REQUIRE(analyzer.model().block_count() == soc.core_count(),
                 "analyzer was built for a different floorplan");

  const std::size_t n = soc.core_count();
  const SessionThermalModel model(soc.flp, soc.package, options_.model);
  const std::vector<double> power = soc.test_powers();

  ScheduleResult result;
  analyzer.reset_effort();
  effective_tl_ = options_.temperature_limit;

  // ---- Pre-pass: per-core solo simulation (paper lines 1-7) ----
  // Only core i's own peak is read, which the analyzer answers from the
  // model's cached self-response of core i (one entry of G⁻¹ or of a
  // unit step response) instead of simulating the whole die.
  result.bcmt.assign(n, 0.0);
  std::vector<bool> excluded(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    result.bcmt[i] =
        analyzer.solo_peak(i, soc.tests[i].power, soc.tests[i].length);
  }
  result.precheck_effort = analyzer.simulation_effort();
  analyzer.reset_effort();

  for (std::size_t i = 0; i < n; ++i) {
    if (result.bcmt[i] < effective_tl_) continue;
    std::ostringstream note;
    note << "core '" << soc.flp.block(i).name << "' violates TL alone ("
         << result.bcmt[i] << " >= " << effective_tl_ << " C)";
    switch (options_.solo_policy) {
      case SoloViolationPolicy::kThrow:
        throw InvalidArgument(
            note.str() +
            "; fix the core's test infrastructure, raise TL, or use "
            "SoloViolationPolicy::kExclude/kRaiseLimit");
      case SoloViolationPolicy::kRaiseLimit: {
        effective_tl_ = result.bcmt[i] + options_.raise_limit_margin;
        note << "; raised TL to " << effective_tl_ << " C";
        result.notes.push_back(note.str());
        break;
      }
      case SoloViolationPolicy::kExclude:
        excluded[i] = true;
        note << "; excluded from the schedule";
        result.notes.push_back(note.str());
        break;
    }
  }

  // ---- Main loop (paper lines 8-28) ----
  std::vector<double> weight(n, 1.0);
  std::vector<bool> scheduled = excluded;  // excluded cores are never visited
  const std::vector<std::size_t> order =
      make_order(soc, model, options_.core_order);
  auto remaining = [&] {
    return std::count(scheduled.begin(), scheduled.end(), false);
  };

  std::size_t attempts = 0;
  while (remaining() > 0) {
    // Session construction (lines 9-15). STC is updated incrementally:
    // a candidate changes only its own value and its active neighbours'.
    TestSession session;
    std::vector<bool> active(n, false);
    double stc = 0.0;
    for (std::size_t candidate : order) {
      if (scheduled[candidate]) continue;
      active[candidate] = true;
      const double with = model.session_characteristic_with(
          active, candidate, stc, power, weight);
      if (with <= options_.stc_limit) {
        session.cores.push_back(candidate);
        stc = with;
      } else {
        active[candidate] = false;
      }
    }
    if (session.empty()) {
      // No core fits under STCL even alone (weights may have grown, or
      // STCL is tighter than any single core). Degrade gracefully to a
      // sequential session: it passed the pre-pass, so it is safe.
      for (std::size_t candidate : order) {
        if (scheduled[candidate]) continue;
        session.cores.push_back(candidate);
        active[candidate] = true;
        THERMO_DEBUG() << "STCL " << options_.stc_limit
                       << " admits no core; forcing '"
                       << soc.flp.block(candidate).name << "' alone";
        break;
      }
    }
    THERMO_ENSURE(!session.empty(), "session construction made no progress");

    // Validation (lines 16-23).
    if (++attempts > options_.max_attempts) {
      throw LogicError("thermal scheduler: attempt cap exhausted (" +
                       std::to_string(options_.max_attempts) + ")");
    }
    const double length = session.length(soc);
    const thermal::SessionSimulation sim =
        analyzer.simulate_session(session.power_map(soc), length);

    bool valid = true;
    for (std::size_t core : session.cores) {
      if (sim.peak_temperature[core] >= effective_tl_) {
        weight[core] *= options_.weight_factor;
        valid = false;
      }
    }

    if (!valid) {
      ++result.discarded_sessions;
      if (session.size() == 1) {
        // A solo session cannot run cooler than the pre-pass; if it still
        // violates, the configuration is unschedulable (can only happen
        // with kRaiseLimit margins smaller than the simulation noise).
        throw LogicError("single-core session violates TL after pre-pass: '" +
                         soc.flp.block(session.cores[0]).name + "'");
      }
      continue;  // regenerate with the increased weights (line 9)
    }

    // Commit (lines 24-27).
    SessionOutcome outcome;
    outcome.session = session;
    outcome.length = length;
    outcome.max_temperature = sim.max_temperature;
    outcome.hottest_core = sim.hottest_block;
    result.outcomes.push_back(outcome);
    result.schedule.sessions.push_back(std::move(session));
    for (std::size_t core : result.schedule.sessions.back().cores) {
      scheduled[core] = true;
    }
  }

  result.schedule.require_well_formed(soc);
  result.schedule_length = result.schedule.total_length(soc);
  result.simulation_effort = analyzer.simulation_effort();
  result.simulation_count = analyzer.simulation_count();
  result.max_temperature = 0.0;
  for (const SessionOutcome& outcome : result.outcomes) {
    result.max_temperature =
        std::max(result.max_temperature, outcome.max_temperature);
  }
  return result;
}

}  // namespace thermo::core

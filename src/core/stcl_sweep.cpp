#include "core/stcl_sweep.hpp"

#include <numeric>

#include "sweep/parallel_for.hpp"
#include "thermal/analyzer.hpp"
#include "util/error.hpp"

namespace thermo::core {

std::vector<StclSweepPoint> sweep_stcl(
    const SocSpec& soc, std::shared_ptr<const thermal::RCModel> model,
    const std::vector<double>& stcl_values, const StclSweepConfig& config) {
  THERMO_REQUIRE(model != nullptr, "stcl sweep requires a model");

  std::vector<std::size_t> order(stcl_values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<StclSweepPoint> points(stcl_values.size());
  sweep::for_each_in_order(order, config.threads, [&](std::size_t i) {
    thermal::ThermalAnalyzer analyzer(model, config.analyzer);
    ThermalSchedulerOptions options = config.scheduler;
    options.stc_limit = stcl_values[i];
    const ThermalAwareScheduler scheduler(options);
    const ScheduleResult result = scheduler.generate(soc, analyzer);
    points[i] = StclSweepPoint{stcl_values[i],
                               result.schedule_length,
                               result.simulation_effort,
                               result.schedule.session_count(),
                               result.max_temperature,
                               result.discarded_sessions,
                               scheduler.effective_temperature_limit()};
  });
  return points;
}

std::vector<double> stcl_range(double min, double max, double step) {
  THERMO_REQUIRE(step > 0.0 && max >= min,
                 "STCL range requires step > 0 and max >= min");
  // Computed by index, not by accumulation: `v += step` can round to a
  // no-op when step is below min's ULP (an infinite loop), and repeated
  // addition drifts. The count is bounded up front.
  const double span = (max - min) / step;
  THERMO_REQUIRE(span < 1e6, "STCL range would exceed a million points");
  const auto count = static_cast<std::size_t>(span + 1e-9) + 1;
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(min + static_cast<double>(i) * step);
  }
  return values;
}

}  // namespace thermo::core

#include "scenario/runner.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/safety_checker.hpp"
#include "core/thermal_scheduler.hpp"
#include "floorplan/flp_io.hpp"
#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/ptrace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::scenario {

namespace {

/// Per-SoC default STC normalisation, the same rule the CLI applies:
/// the Alpha SoC ships a calibrated scale; everything else uses the
/// generic 2.8e-3 that places typical block-level SoCs on the paper's
/// 20..100 STCL axis.
double auto_stc_scale(SocKind kind) {
  return kind == SocKind::kAlpha ? soc::alpha_stc_scale() : 2.8e-3;
}

/// Per-kind run observability: execution count + wall histogram + the
/// span name (a static literal, as the trace ring requires).
struct KindMetrics {
  obs::Counter& runs;
  obs::Histogram& run_ns;
  const char* span_name;
};

KindMetrics& kind_metrics(RequestKind kind) {
  auto& registry = obs::MetricsRegistry::instance();
  static KindMetrics sweep{registry.counter("scenario.run.stcl_sweep"),
                           registry.histogram("scenario.run.stcl_sweep_ns"),
                           "scenario.run.stcl_sweep"};
  static KindMetrics ptrace{registry.counter("scenario.run.ptrace"),
                            registry.histogram("scenario.run.ptrace_ns"),
                            "scenario.run.ptrace"};
  static KindMetrics chained{registry.counter("scenario.run.chained"),
                             registry.histogram("scenario.run.chained_ns"),
                             "scenario.run.chained"};
  static KindMetrics grid{registry.counter("scenario.run.grid_steady"),
                          registry.histogram("scenario.run.grid_steady_ns"),
                          "scenario.run.grid_steady"};
  switch (kind) {
    case RequestKind::kPtrace: return ptrace;
    case RequestKind::kChained: return chained;
    case RequestKind::kGridSteady: return grid;
    case RequestKind::kStclSweep: break;
  }
  return sweep;
}

obs::Histogram& model_build_ns() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::instance().histogram("scenario.model_build_ns");
  return histogram;
}

}  // namespace

JsonValue to_json(const ScenarioResult& result) {
  JsonValue out = JsonValue::object();
  out.set("id", JsonValue::string(result.id));
  out.set("ok", JsonValue::boolean(result.ok));
  if (!result.ok) {
    out.set("error", JsonValue::string(result.error));
    return out;
  }
  out.set("kind", JsonValue::string(request_kind_name(result.kind)));
  out.set("soc", JsonValue::string(result.soc_name));
  out.set("cores", JsonValue::number(static_cast<double>(result.cores)));
  if (result.kind == RequestKind::kPtrace) {
    JsonValue trace = JsonValue::object();
    trace.set("steps",
              JsonValue::number(static_cast<double>(result.ptrace.steps)));
    trace.set("duration", JsonValue::number(result.ptrace.duration));
    trace.set("max_temperature",
              JsonValue::number(result.ptrace.max_temperature));
    trace.set("hottest", JsonValue::string(result.ptrace.hottest));
    out.set("trace", std::move(trace));
    out.set("simulation_effort", JsonValue::number(result.simulation_effort));
    return out;
  }
  if (result.kind == RequestKind::kChained) {
    JsonValue schedule = JsonValue::object();
    schedule.set("stcl", JsonValue::number(result.chained.stcl));
    schedule.set("length", JsonValue::number(result.chained.schedule_length));
    schedule.set("sessions",
                 JsonValue::number(static_cast<double>(result.chained.sessions)));
    schedule.set("effective_tl", JsonValue::number(result.chained.effective_tl));
    out.set("schedule", std::move(schedule));
    JsonValue chained = JsonValue::object();
    chained.set("cooling_gap", JsonValue::number(result.chained.cooling_gap));
    chained.set("independent_max_temperature",
                JsonValue::number(result.chained.independent_max));
    chained.set("chained_max_temperature",
                JsonValue::number(result.chained.chained_max));
    chained.set("violations", JsonValue::number(static_cast<double>(
                                  result.chained.violations)));
    chained.set("safe", JsonValue::boolean(result.chained.safe));
    out.set("chained", std::move(chained));
    out.set("simulation_effort", JsonValue::number(result.simulation_effort));
    return out;
  }
  if (result.kind == RequestKind::kGridSteady) {
    JsonValue grid = JsonValue::object();
    grid.set("rows", JsonValue::number(static_cast<double>(result.grid.rows)));
    grid.set("cols", JsonValue::number(static_cast<double>(result.grid.cols)));
    grid.set("nodes",
             JsonValue::number(static_cast<double>(result.grid.nodes)));
    grid.set("max_cell_temperature",
             JsonValue::number(result.grid.max_cell_temperature));
    grid.set("mean_cell_temperature",
             JsonValue::number(result.grid.mean_cell_temperature));
    grid.set("max_block_temperature",
             JsonValue::number(result.grid.max_block_temperature));
    grid.set("hottest", JsonValue::string(result.grid.hottest));
    out.set("grid", std::move(grid));
    out.set("simulation_effort", JsonValue::number(result.simulation_effort));
    return out;
  }
  JsonValue points = JsonValue::array();
  for (const core::StclSweepPoint& point : result.points) {
    JsonValue p = JsonValue::object();
    p.set("stcl", JsonValue::number(point.stcl));
    p.set("schedule_length", JsonValue::number(point.schedule_length));
    p.set("simulation_effort", JsonValue::number(point.simulation_effort));
    p.set("sessions", JsonValue::number(static_cast<double>(point.sessions)));
    p.set("max_temperature", JsonValue::number(point.max_temperature));
    p.set("discarded_sessions",
          JsonValue::number(static_cast<double>(point.discarded_sessions)));
    p.set("effective_tl",
          JsonValue::number(point.effective_temperature_limit));
    points.append(std::move(p));
  }
  out.set("points", std::move(points));
  out.set("simulation_effort", JsonValue::number(result.simulation_effort));
  return out;
}

core::SocSpec ScenarioRunner::build_soc(const SocSelector& selector) {
  core::SocSpec soc;
  switch (selector.kind) {
    case SocKind::kAlpha:
      soc = soc::alpha_soc();
      break;
    case SocKind::kFig1:
      soc = soc::fig1_soc();
      break;
    case SocKind::kSynthetic: {
      Rng rng(selector.synthetic.seed);
      soc::SyntheticOptions options;
      options.core_count = selector.synthetic.cores;
      options.chip_width = selector.synthetic.chip_width;
      options.chip_height = selector.synthetic.chip_height;
      options.power_density_min = selector.synthetic.power_density_min;
      options.power_density_max = selector.synthetic.power_density_max;
      options.test_length_min = selector.synthetic.test_length_min;
      options.test_length_max = selector.synthetic.test_length_max;
      soc = soc::make_synthetic_soc(rng, options);
      break;
    }
    case SocKind::kFlp: {
      soc.flp = floorplan::load_flp(selector.flp_path);
      soc.name = soc.flp.name();
      soc.package = thermal::PackageParams{};
      for (std::size_t i = 0; i < soc.flp.size(); ++i) {
        soc.tests.push_back(core::CoreTest{
            selector.flp_density * soc.flp.block(i).area(), 1.0});
      }
      break;
    }
  }
  if (selector.power_scale != 1.0) {
    for (core::CoreTest& test : soc.tests) test.power *= selector.power_scale;
  }
  soc.validate();
  return soc;
}

template <typename Model, typename Build>
std::shared_ptr<const Model> ScenarioRunner::cached_model(
    ModelCache<Model>& cache, const std::string& key, Build&& build) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache.find(key);
  if (it != cache.end()) {
    ++stats_.model_hits;
    it->second.last_used = ++use_counter_;
    return it->second.model;
  }
  if (cache.size() >= kMaxCachedModels) {
    auto victim = cache.begin();
    for (auto cand = cache.begin(); cand != cache.end(); ++cand) {
      if (cand->second.last_used < victim->second.last_used) victim = cand;
    }
    cache.erase(victim);
  }
  // Built under the lock: dense assembly is O(n^2) matrix stamping and
  // grid assembly one sparse Builder pass, cheap next to the
  // factorizations, which happen later, into the model's own store,
  // *outside* any lock here.
  obs::TraceSpan build_span("scenario.model_build");
  obs::ScopedTimer build_timer(model_build_ns());
  std::shared_ptr<const Model> model = build();
  cache.emplace(key, Cached<Model>{model, ++use_counter_});
  ++stats_.model_misses;
  return model;
}

std::shared_ptr<const thermal::RCModel> ScenarioRunner::model_for(
    const SocSelector& selector, const core::SocSpec& soc) {
  return cached_model(models_, selector.geometry_key(), [&] {
    return std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  });
}

std::shared_ptr<const thermal::GridThermalModel> ScenarioRunner::grid_model_for(
    const SocSelector& selector, const core::SocSpec& soc,
    const GridSpec& grid) {
  const std::string key = selector.geometry_key() + ":grid:" +
                          std::to_string(grid.rows) + "x" +
                          std::to_string(grid.cols);
  return cached_model(grids_, key, [&] {
    return std::make_shared<const thermal::GridThermalModel>(
        soc.flp, soc.package, thermal::GridOptions{grid.rows, grid.cols});
  });
}

ScenarioRunner::Stats ScenarioRunner::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

void run_stcl_sweep(const ScenarioRequest& request, const core::SocSpec& soc,
                    const std::shared_ptr<const thermal::RCModel>& model,
                    ScenarioResult& result) {
  core::StclSweepConfig config;
  config.scheduler.temperature_limit = request.tl;
  config.scheduler.weight_factor = request.weight_factor;
  config.scheduler.solo_policy = request.solo_policy;
  config.scheduler.core_order = request.core_order;
  config.scheduler.model.stc_scale = request.stc_scale > 0.0
                                         ? request.stc_scale
                                         : auto_stc_scale(request.soc.kind);
  config.analyzer.dt = request.solver.dt;
  config.analyzer.transient = request.solver.transient;
  config.analyzer.backend = request.solver.backend;
  // threads = 1: runs inline on this thread — serve already fans
  // *requests* across a pool, so per-request point loops stay serial.
  config.threads = 1;

  result.points = core::sweep_stcl(soc, model, request.stcl.values(), config);
  for (const core::StclSweepPoint& point : result.points) {
    result.simulation_effort += point.simulation_effort;
  }
}

void run_ptrace(const ScenarioRequest& request, const core::SocSpec& soc,
                const std::shared_ptr<const thermal::RCModel>& model,
                ScenarioResult& result) {
  const thermal::PowerTrace trace =
      (request.ptrace.text.empty()
           ? thermal::load_ptrace(request.ptrace.path)
           : thermal::parse_ptrace_string(request.ptrace.text))
          .aligned_to(soc.flp);
  if (trace.step_count() == 0) {
    throw InvalidArgument("ptrace contains no time steps");
  }

  thermal::ThermalAnalyzer::Options options;
  options.dt = request.solver.dt;
  options.transient = true;  // enforced at parse: replay carries state
  options.backend = request.solver.backend;
  thermal::ThermalAnalyzer analyzer(model, options);

  std::vector<double> state = analyzer.ambient_node_state();
  std::size_t hottest = 0;
  result.ptrace.steps = trace.step_count();
  result.ptrace.duration =
      static_cast<double>(trace.step_count()) * request.ptrace.step_duration;
  for (const std::vector<double>& row : trace.steps) {
    thermal::ThermalAnalyzer::Chained step = analyzer.simulate_session_from(
        row, request.ptrace.step_duration, state);
    state = std::move(step.final_state);
    if (step.session.max_temperature > result.ptrace.max_temperature) {
      result.ptrace.max_temperature = step.session.max_temperature;
      hottest = step.session.hottest_block;
    }
  }
  result.ptrace.hottest = soc.flp.block(hottest).name;
  result.simulation_effort = analyzer.simulation_effort();
}

void run_chained(const ScenarioRequest& request, const core::SocSpec& soc,
                 const std::shared_ptr<const thermal::RCModel>& model,
                 ScenarioResult& result) {
  core::ThermalSchedulerOptions options;
  options.temperature_limit = request.tl;
  options.stc_limit = request.stcl.min;  // single value, enforced at parse
  options.weight_factor = request.weight_factor;
  options.solo_policy = request.solo_policy;
  options.core_order = request.core_order;
  options.model.stc_scale = request.stc_scale > 0.0
                                ? request.stc_scale
                                : auto_stc_scale(request.soc.kind);

  thermal::ThermalAnalyzer::Options sched_options;
  sched_options.dt = request.solver.dt;
  sched_options.transient = request.solver.transient;
  sched_options.backend = request.solver.backend;
  thermal::ThermalAnalyzer sched_analyzer(model, sched_options);

  const core::ThermalAwareScheduler scheduler(options);
  const core::ScheduleResult sched = scheduler.generate(soc, sched_analyzer);

  // The chained replay always needs transient state carry-over, whatever
  // oracle the schedule was *generated* with.
  thermal::ThermalAnalyzer::Options check_options = sched_options;
  check_options.transient = true;
  thermal::ThermalAnalyzer check_analyzer(model, check_options);
  core::SafetyChecker::Options chain;
  chain.chained = true;
  chain.cooling_gap = request.chained.cooling_gap;
  const core::SafetyChecker checker(scheduler.effective_temperature_limit(),
                                    chain);
  const core::SafetyReport report =
      checker.check(soc, sched.schedule, check_analyzer);

  result.chained.stcl = request.stcl.min;
  result.chained.schedule_length = sched.schedule_length;
  result.chained.sessions = sched.schedule.session_count();
  result.chained.effective_tl = scheduler.effective_temperature_limit();
  result.chained.cooling_gap = request.chained.cooling_gap;
  result.chained.independent_max = sched.max_temperature;
  result.chained.chained_max = report.max_temperature;
  result.chained.violations = report.violations.size();
  result.chained.safe = report.safe;
  result.simulation_effort =
      sched_analyzer.simulation_effort() + check_analyzer.simulation_effort();
}

void run_grid_steady(const ScenarioRequest& request, const core::SocSpec& soc,
                     const std::shared_ptr<const thermal::GridThermalModel>& model,
                     ScenarioResult& result) {
  // Every block dissipates its test power simultaneously — the
  // all-cores-under-test worst case the grid oracle is asked to resolve
  // at cell granularity (power_scale is already applied by build_soc).
  std::vector<double> power(soc.tests.size(), 0.0);
  for (std::size_t i = 0; i < soc.tests.size(); ++i) {
    power[i] = soc.tests[i].power;
  }
  const thermal::GridSteadyResult steady =
      model->solve(power, request.solver.backend);

  result.grid.rows = model->rows();
  result.grid.cols = model->cols();
  result.grid.nodes = model->node_count();
  double max_cell = steady.cell_temperature.empty()
                        ? 0.0
                        : steady.cell_temperature.front();
  double sum = 0.0;
  for (const double t : steady.cell_temperature) {
    if (t > max_cell) max_cell = t;
    sum += t;
  }
  result.grid.max_cell_temperature = max_cell;
  result.grid.mean_cell_temperature =
      steady.cell_temperature.empty()
          ? 0.0
          : sum / static_cast<double>(steady.cell_temperature.size());
  std::size_t hottest = 0;
  for (std::size_t b = 1; b < steady.block_max_temperature.size(); ++b) {
    if (steady.block_max_temperature[b] >
        steady.block_max_temperature[hottest]) {
      hottest = b;
    }
  }
  if (!steady.block_max_temperature.empty()) {
    result.grid.max_block_temperature = steady.block_max_temperature[hottest];
    result.grid.hottest = soc.flp.block(hottest).name;
  }
  // Steady state simulates no transient seconds; the record's effort
  // metric stays 0 by design (wall time is serve's stderr concern).
  result.simulation_effort = 0.0;
}

}  // namespace

ScenarioResult ScenarioRunner::run(const ScenarioRequest& request) {
  KindMetrics& metrics = kind_metrics(request.kind);
  obs::TraceSpan run_span(metrics.span_name);
  obs::ScopedTimer run_timer(metrics.run_ns);
  metrics.runs.add();
  ScenarioResult result;
  result.id = request.id;
  result.kind = request.kind;
  try {
    const core::SocSpec soc = build_soc(request.soc);
    result.soc_name = soc.name;
    result.cores = soc.core_count();

    if (request.kind == RequestKind::kGridSteady) {
      // The block-level RCModel is never consulted for a grid solve, so
      // skip model_for entirely — at 100k nodes the savings matter.
      run_grid_steady(request, soc,
                      grid_model_for(request.soc, soc, request.grid), result);
    } else {
      const auto model = model_for(request.soc, soc);
      switch (request.kind) {
        case RequestKind::kStclSweep:
          run_stcl_sweep(request, soc, model, result);
          break;
        case RequestKind::kPtrace:
          run_ptrace(request, soc, model, result);
          break;
        case RequestKind::kChained:
          run_chained(request, soc, model, result);
          break;
        case RequestKind::kGridSteady:
          break;  // handled above
      }
    }
    result.ok = true;
  } catch (const Error& e) {
    result.ok = false;
    result.error = e.what();
    result.points.clear();
    result.ptrace = PtraceOutcome{};
    result.chained = ChainedOutcome{};
    result.grid = GridOutcome{};
    result.simulation_effort = 0.0;
  }
  return result;
}

}  // namespace thermo::scenario

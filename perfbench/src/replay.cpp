#include "replay.hpp"

#include <chrono>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/safety_checker.hpp"
#include "core/stcl_sweep.hpp"
#include "core/thermal_scheduler.hpp"
#include "linalg/ordering.hpp"
#include "obs/metrics.hpp"
#include "scenario/request.hpp"
#include "soc/alpha.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/backend.hpp"
#include "thermal/ptrace_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

using namespace thermo;
using scenario::RequestKind;
using scenario::ScenarioRequest;
using scenario::ScenarioResult;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Records spans when enabled; otherwise every call is a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled),
        factor_ns_(obs::MetricsRegistry::instance().histogram(
            "thermal.factor_ns")),
        origin_ns_(steady_ns()) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) tracer_.open(name);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  void set_request(std::size_t request) { request_ = request; }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  void open(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back().index;
    span.request = request_;
    // The histogram sum is read before the clock on entry and after it
    // on exit, so the factor time always lies inside the span.
    const std::uint64_t factor_before = factor_ns_.sum();
    span.start_ns = steady_ns() - origin_ns_;
    open_.push_back(Open{static_cast<std::int64_t>(spans_.size()),
                         factor_before});
    spans_.push_back(span);
  }

  void close() {
    const Open open = open_.back();
    open_.pop_back();
    Span& span = spans_[static_cast<std::size_t>(open.index)];
    span.end_ns = steady_ns() - origin_ns_;
    span.factor_ns = factor_ns_.sum() - open.factor_before;
  }

  struct Open {
    std::int64_t index = 0;
    std::uint64_t factor_before = 0;
  };

  bool enabled_;
  obs::Histogram& factor_ns_;
  std::uint64_t origin_ns_;
  std::size_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> open_;
};

// The per-SoC STC normalisation ScenarioRunner applies to requests that
// leave stc_scale at 0 (the CLI's rule).
double stc_scale_for(const ScenarioRequest& request) {
  if (request.stc_scale > 0.0) return request.stc_scale;
  return request.soc.kind == scenario::SocKind::kAlpha
             ? soc::alpha_stc_scale()
             : 2.8e-3;
}

core::ThermalSchedulerOptions scheduler_options(const ScenarioRequest& r) {
  core::ThermalSchedulerOptions options;
  options.temperature_limit = r.tl;
  options.stc_limit = r.stcl.min;
  options.weight_factor = r.weight_factor;
  options.solo_policy = r.solo_policy;
  options.core_order = r.core_order;
  options.model.stc_scale = stc_scale_for(r);
  return options;
}

thermal::ThermalAnalyzer::Options analyzer_options(const ScenarioRequest& r) {
  thermal::ThermalAnalyzer::Options options;
  options.dt = r.solver.dt;
  options.transient = r.solver.transient;
  options.backend = r.solver.backend;
  return options;
}

/// A sparse factor the replay used, for the linalg probe.
struct SparseUse {
  std::shared_ptr<const thermal::RCModel> model;
  bool transient = false;
  double dt = 0.0;
};

class Replayer {
 public:
  Replayer(Tracer& tracer, ReplayResult& out) : tracer_(tracer), out_(out) {}

  /// Mirrors ScenarioRunner::run: the same calls, in the same order.
  std::string execute(const ScenarioRequest& request) {
    if (request.kind == RequestKind::kGridSteady) {
      throw LogicError("the replay covers no grid_steady requests");
    }
    ScenarioResult result;
    result.id = request.id;
    result.kind = request.kind;
    try {
      core::SocSpec soc;
      {
        const Tracer::Scope s(tracer_, "soc.build");
        soc = scenario::ScenarioRunner::build_soc(request.soc);
      }
      ++out_.soc_builds;
      result.soc_name = soc.name;
      result.cores = soc.core_count();
      std::shared_ptr<const thermal::RCModel> model;
      {
        const Tracer::Scope s(tracer_, "thermal.model_build");
        model = runner_.model_for(request.soc, soc);
      }
      switch (request.kind) {
        case RequestKind::kStclSweep:
          run_sweep(request, soc, model, result);
          break;
        case RequestKind::kPtrace:
          run_ptrace(request, soc, model, result);
          break;
        case RequestKind::kChained:
          run_chained(request, soc, model, result);
          break;
        case RequestKind::kGridSteady:
          break;
      }
      result.ok = true;
    } catch (const Error& e) {
      result.ok = false;
      result.error = e.what();
    }
    const Tracer::Scope s(tracer_, "scenario.render");
    return to_json(result).dump();
  }

  const scenario::ScenarioRunner& runner() const { return runner_; }
  const std::vector<SparseUse>& sparse_uses() const { return sparse_; }

 private:
  /// One Algorithm-1 run: the pre-pass simulates every core alone, then
  /// each committed or discarded session is one validation.
  void count_schedule(const core::SocSpec& soc, std::size_t sessions,
                      std::size_t discarded) {
    ++out_.alg1_calls;
    out_.prepass_sims += soc.core_count();
    out_.validations += sessions + discarded;
    out_.discards += discarded;
    out_.committed += sessions;
  }

  void run_sweep(const ScenarioRequest& request, const core::SocSpec& soc,
                 const std::shared_ptr<const thermal::RCModel>& model,
                 ScenarioResult& result) {
    note_sparse(request, model, request.solver.transient);
    core::StclSweepConfig config;
    config.scheduler = scheduler_options(request);
    config.analyzer = analyzer_options(request);
    config.threads = 1;  // inline, as ScenarioRunner runs it
    {
      const Tracer::Scope s(tracer_, "core.alg1");
      result.points =
          core::sweep_stcl(soc, model, request.stcl.values(), config);
    }
    for (const core::StclSweepPoint& point : result.points) {
      count_schedule(soc, point.sessions, point.discarded_sessions);
      result.simulation_effort += point.simulation_effort;
    }
  }

  void run_ptrace(const ScenarioRequest& request, const core::SocSpec& soc,
                  const std::shared_ptr<const thermal::RCModel>& model,
                  ScenarioResult& result) {
    const Tracer::Scope s(tracer_, "thermal.replay");
    const thermal::PowerTrace trace =
        (request.ptrace.text.empty()
             ? thermal::load_ptrace(request.ptrace.path)
             : thermal::parse_ptrace_string(request.ptrace.text))
            .aligned_to(soc.flp);
    if (trace.step_count() == 0) {
      throw InvalidArgument("ptrace contains no time steps");
    }
    thermal::ThermalAnalyzer::Options options = analyzer_options(request);
    options.transient = true;
    thermal::ThermalAnalyzer analyzer(model, options);
    note_sparse(request, model, true);
    std::vector<double> state = analyzer.ambient_node_state();
    std::size_t hottest = 0;
    result.ptrace.steps = trace.step_count();
    result.ptrace.duration = static_cast<double>(trace.step_count()) *
                             request.ptrace.step_duration;
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
    const thermal::ThermalAnalyzer::Options sched_options =
        analyzer_options(request);
    thermal::ThermalAnalyzer sched_analyzer(model, sched_options);
    const core::ThermalAwareScheduler scheduler(scheduler_options(request));
    core::ScheduleResult sched;
    {
      const Tracer::Scope s(tracer_, "core.alg1");
      sched = scheduler.generate(soc, sched_analyzer);
    }
    count_schedule(soc, sched.schedule.session_count(),
                   sched.discarded_sessions);

    thermal::ThermalAnalyzer::Options check_options = sched_options;
    check_options.transient = true;
    thermal::ThermalAnalyzer check_analyzer(model, check_options);
    core::SafetyChecker::Options chain;
    chain.chained = true;
    chain.cooling_gap = request.chained.cooling_gap;
    const core::SafetyChecker checker(scheduler.effective_temperature_limit(),
                                      chain);
    core::SafetyReport report;
    {
      const Tracer::Scope s(tracer_, "core.safety_check");
      report = checker.check(soc, sched.schedule, check_analyzer);
    }
    note_sparse(request, model, sched_options.transient);
    note_sparse(request, model, true);

    result.chained.stcl = request.stcl.min;
    result.chained.schedule_length = sched.schedule_length;
    result.chained.sessions = sched.schedule.session_count();
    result.chained.effective_tl = scheduler.effective_temperature_limit();
    result.chained.cooling_gap = request.chained.cooling_gap;
    result.chained.independent_max = sched.max_temperature;
    result.chained.chained_max = report.max_temperature;
    result.chained.violations = report.violations.size();
    result.chained.safe = report.safe;
    result.simulation_effort = sched_analyzer.simulation_effort() +
                               check_analyzer.simulation_effort();
  }

  void note_sparse(const ScenarioRequest& request,
                   const std::shared_ptr<const thermal::RCModel>& model,
                   bool transient) {
    if (thermal::resolve_backend(request.solver.backend,
                                 model->node_count()) !=
        thermal::SolverBackend::kSparse) {
      return;
    }
    for (const SparseUse& use : sparse_) {
      if (use.model == model && use.transient == transient &&
          (!transient || use.dt == request.solver.dt)) {
        return;
      }
    }
    sparse_.push_back(SparseUse{model, transient, request.solver.dt});
  }

  Tracer& tracer_;
  ReplayResult& out_;
  scenario::ScenarioRunner runner_;
  std::vector<SparseUse> sparse_;
};

// Ordering time and nnz(L) of every sparse factor the replay used. The
// factors come from the solver cache, which refactors any it evicted.
void probe_sparse(const std::vector<SparseUse>& uses, ReplayResult& out) {
  thermal::ThermalSolverCache& cache = thermal::ThermalSolverCache::instance();
  for (const SparseUse& use : uses) {
    const linalg::SparseMatrix& pattern = use.model->conductance_sparse();
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::size_t> perm = linalg::min_degree_ordering(pattern);
    out.ordering_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (perm.size() != pattern.rows()) {
      throw LogicError("min_degree_ordering returned a short permutation");
    }
    if (use.transient) {
      out.factor_nnz +=
          cache.sparse_stepper(*use.model, use.dt)->factor().factor_nonzeros();
    } else {
      out.factor_nnz += cache.sparse_cholesky(*use.model)->factor_nonzeros();
    }
  }
}

}  // namespace

void reset_process_state() {
  thermal::ThermalSolverCache& cache = thermal::ThermalSolverCache::instance();
  cache.clear();
  cache.reset_stats();
  obs::MetricsRegistry::instance().reset();
}

ReplayResult replay(const std::vector<std::string>& lines, bool traced) {
  reset_process_state();
  thermal::ThermalSolverCache& cache = thermal::ThermalSolverCache::instance();
  obs::Counter& evictions =
      obs::MetricsRegistry::instance().counter("thermal.solver_cache.evictions");

  ReplayResult out;
  Tracer tracer(traced);
  Replayer replayer(tracer, out);
  // serve's memo key: the canonical request without its SLO envelope.
  std::unordered_map<std::string, std::size_t> first_by_key;
  out.records.reserve(lines.size());

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    tracer.set_request(i);
    const Tracer::Scope root(tracer, "request");
    ScenarioRequest request;
    try {
      const Tracer::Scope s(tracer, "scenario.parse");
      ++out.parse_calls;
      request = scenario::parse_request_line(lines[i]);
    } catch (const Error& e) {
      ScenarioResult failed;
      failed.id = "line-" + std::to_string(i + 1);
      failed.error = e.what();
      out.records.push_back(to_json(failed).dump());
      continue;
    }
    if (request.id.empty()) request.id = "line-" + std::to_string(i + 1);
    ScenarioRequest keyed = request;
    keyed.deadline_s = 0.0;
    keyed.priority = 1.0;
    const auto [it, fresh] =
        first_by_key.try_emplace(scenario::to_json_line(keyed), i);
    if (!fresh) {
      ++out.memo_hits;
      out.records.push_back(out.records[it->second]);
      continue;
    }
    ++out.executed;
    out.records.push_back(replayer.execute(request));
  }
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();

  out.spans = tracer.take();
  out.models = replayer.runner().stats();
  out.factors = cache.stats();
  out.factor_evictions = evictions.value();
  if (traced) probe_sparse(replayer.sparse_uses(), out);
  return out;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  // Children's durations and factor time, summed per parent.
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  std::vector<std::uint64_t> child_factor_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const auto p = static_cast<std::size_t>(span.parent);
    child_ns[p] += span.end_ns - span.start_ns;
    child_factor_ns[p] += span.factor_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::uint64_t own_factor = span.factor_ns - child_factor_ns[i];
    self["thermal.factor"] += 1e-9 * static_cast<double>(own_factor);
    if (span.parent < 0) continue;
    const std::uint64_t duration = span.end_ns - span.start_ns;
    self[span.name] +=
        1e-9 * (static_cast<double>(duration) -
                static_cast<double>(child_ns[i]) -
                static_cast<double>(own_factor));
  }
  return self;
}

std::string spans_json(const std::vector<Span>& spans) {
  JsonValue list = JsonValue::array();
  for (const Span& span : spans) {
    JsonValue s = JsonValue::object();
    s.set("name", JsonValue::string(span.name));
    s.set("start_ns", JsonValue::number(static_cast<double>(span.start_ns)));
    s.set("end_ns", JsonValue::number(static_cast<double>(span.end_ns)));
    s.set("parent", JsonValue::number(static_cast<double>(span.parent)));
    s.set("request", JsonValue::number(static_cast<double>(span.request)));
    s.set("factor_ns", JsonValue::number(static_cast<double>(span.factor_ns)));
    list.append(std::move(s));
  }
  JsonValue doc = JsonValue::object();
  doc.set("spans", std::move(list));
  return doc.dump();
}

}  // namespace perfbench

// perfbench — the repository benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// One run serves one workload, an offline batch built from the seed,
// through scenario::serve_stream (the function behind `thermosched
// serve`) with the CLI defaults: dedup on, fifo, calibrator on, no
// cache directory. Every serve starts from fresh program state: a new
// runner, memo and calibrator, an empty solver cache, zeroed metrics.
//
// Set-up, not timed: the batch, and a reference serve of it (1 thread,
// dedup off) whose records every later serve must reproduce byte for
// byte; table1 also checks the reference against direct
// ThermalAwareScheduler::generate calls.
//
// --trace 0: serves the batch again and again for S seconds and reports
// the end-to-end metrics, each the fastest figure over the serves (on a
// shared machine every disturbance only adds time), scaled to a
// reference clock speed (clock_scale). setup_s is the
// program's set-up as a new process pays it, timed on probe processes
// (`perfbench --setup-probe THREADS`) started between the serves.
// --trace 1: one serve for the dispatch figures, then four one-thread
// replays of the batch (replay.hpp), untraced-traced-traced-untraced;
// reports the per-layer metrics of the first traced replay and writes
// its spans to DIR.
//
// Human-readable lines first; the last line of stdout is the JSON
// result. Exit 0 when every check passed, 1 on a mismatch, 2 on a
// usage error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/thermal_scheduler.hpp"
#include "dispatch/calibrator.hpp"
#include "dispatch/result_memo.hpp"
#include "replay.hpp"
#include "scenario/serve.hpp"
#include "soc/alpha.hpp"
#include "stats.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/solver_cache.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace thermo;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
      have[1] = used == value.size();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      have[2] = used == value.size() && args.seconds > 0.0 &&
                std::isfinite(args.seconds);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;

    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have[0] || !have[1] || !have[2] || !have[3]) {
    throw std::invalid_argument(
        "need --workload NAME --seed N --seconds S (> 0) --trace 0|1");
  }
  return args;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The host's clock speed moves by half over minutes as other tenants
/// come and go, and every serve of a run moves with it. So each time is
/// scaled to a reference speed before it is reported: a fixed chain of
/// kCalibrationSteps dependent integer multiply-adds is timed (fastest
/// of three passes), and the scale is the time that chain takes at
/// kReferenceStepSeconds a step over the time it took now.
constexpr std::uint64_t kCalibrationSteps = 2'000'000;
constexpr double kReferenceStepSeconds = 1e-9;

double clock_scale() {
  double fastest = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t x = 1;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kCalibrationSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      asm volatile("" : "+r"(x));  // every step kept, in order
    }
    fastest = std::min(fastest, since(start));
  }
  return kReferenceStepSeconds * static_cast<double>(kCalibrationSteps) /
         fastest;
}

/// Resets the process's resident-set high-water mark to its current
/// resident set, so that a later peak_rss_mb() sees only what follows.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
  }
}

/// The resident-set high-water mark (VmHWM) since the last
/// reset_peak_rss().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool record_ok(const std::string& record) {
  return record.find("\"ok\":false") == std::string::npos;
}

/// Records that are ok:false or differ from the reference.
std::size_t count_failures(const std::vector<std::string>& got,
                           const std::vector<std::string>& reference) {
  std::size_t failures = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i >= got.size() || got[i] != reference[i] || !record_ok(got[i])) {
      ++failures;
    }
  }
  return failures;
}

/// What a new `thermosched serve` process builds before it hands the
/// batch to serve_stream.
struct ProgramState {
  scenario::ScenarioRunner runner;
  dispatch::ResultMemo memo;
  dispatch::CostCalibrator calibrator;
  scenario::ServeOptions options;

  ProgramState(std::size_t threads, bool reference) {
    options.threads = threads;
    options.policy = dispatch::SchedulePolicy::kFifo;
    options.dedup = !reference;
    options.memo = reference ? nullptr : &memo;
    options.calibrator = reference ? nullptr : &calibrator;
  }
};

/// The program's set-up as a new serve process pays it: this binary
/// started as `perfbench --setup-probe THREADS`, which loads, builds the
/// ProgramState a serve at THREADS would get, and exits. Returns the
/// wall time from spawn to exit.
double time_setup_probe(std::size_t threads) {
  std::string threads_arg = std::to_string(threads);
  char name[] = "perfbench";
  char flag[] = "--setup-probe";
  char* argv[] = {name, flag, threads_arg.data(), nullptr};
  pid_t pid = 0;
  const Clock::time_point start = Clock::now();
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv, environ) !=
      0) {
    throw std::runtime_error("cannot start the set-up probe");
  }
  int status = 0;
  const bool waited = waitpid(pid, &status, 0) == pid;
  const double seconds = since(start);
  if (!waited || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the set-up probe failed");
  }
  return seconds;
}

/// Set-up probes per measured serve.
constexpr int kSetupProbesPerServe = 5;

/// One serve of the batch from fresh program state.
struct ServeRun {
  std::vector<std::string> records;
  scenario::ServeSummary summary;
  thermal::ThermalSolverCache::Stats factors;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

ServeRun serve_fresh(const std::string& batch, std::size_t threads,
                     bool reference) {
  ServeRun run;
  // The process-wide state a new process starts without (an empty
  // solver cache, zeroed metrics), and the input: not timed.
  perfbench::reset_process_state();
  std::istringstream in(batch);
  ProgramState state(threads, reference);

  std::ostringstream out;
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  run.summary = scenario::serve_stream(in, out, state.runner, state.options);
  run.wall_s = since(start);
  run.cpu_s = process_cpu_seconds() - cpu_start;
  run.factors = thermal::ThermalSolverCache::instance().stats();
  run.records = split_lines(out.str());
  // The cached factors are freed here, outside every timed part.
  thermal::ThermalSolverCache::instance().clear();
  return run;
}

/// Σ simulation_effort and Σ schedule length (sweep points and chained
/// schedules) over a batch's records — the paper's two costs.
struct PaperCosts {
  double effort_s = 0.0;
  double length_s = 0.0;
};

PaperCosts paper_costs(const std::vector<std::string>& records) {
  PaperCosts costs;
  for (const std::string& record : records) {
    const JsonValue json = parse_json(record);
    if (const JsonValue* effort = json.find("simulation_effort")) {
      costs.effort_s += effort->as_number();
    }
    if (const JsonValue* points = json.find("points")) {
      for (const JsonValue& point : points->items()) {
        costs.length_s += point.find("schedule_length")->as_number();
      }
    }
    if (const JsonValue* schedule = json.find("schedule")) {
      costs.length_s += schedule->find("length")->as_number();
    }
  }
  return costs;
}

const JsonValue* record_by_id(const std::vector<JsonValue>& records,
                              const std::string& id) {
  for (const JsonValue& record : records) {
    if (record.find("id")->as_string() == id) return &record;
  }
  return nullptr;
}

bool same(double a, double b, double relative) {
  return std::fabs(a - b) <= relative * std::max(std::fabs(a), std::fabs(b));
}

/// table1: each grid point of the reference against a direct
/// ThermalAwareScheduler::generate call. Returns the mismatches.
std::size_t check_table1(const Workload& w,
                         const std::vector<std::string>& reference) {
  std::vector<JsonValue> records;
  for (const std::string& line : reference) records.push_back(parse_json(line));
  const core::SocSpec soc = soc::alpha_soc();
  auto model = std::make_shared<const thermal::RCModel>(soc.flp, soc.package);
  std::size_t mismatches = 0;
  for (const auto& point : w.table1_points) {
    core::ThermalSchedulerOptions options;
    options.temperature_limit = point.tl;
    options.stc_limit = point.stcl;
    options.solo_policy = core::SoloViolationPolicy::kRaiseLimit;
    options.model.stc_scale = soc::alpha_stc_scale();
    thermal::ThermalAnalyzer analyzer(model);
    const core::ScheduleResult direct =
        core::ThermalAwareScheduler(options).generate(soc, analyzer);
    const JsonValue* record = record_by_id(records, point.id);
    const JsonValue* p = record != nullptr && record->find("points") != nullptr
                             ? &record->find("points")->items().at(0)
                             : nullptr;
    const bool match =
        p != nullptr &&
        p->find("sessions")->as_number() ==
            static_cast<double>(direct.schedule.session_count()) &&
        p->find("discarded_sessions")->as_number() ==
            static_cast<double>(direct.discarded_sessions) &&
        p->find("schedule_length")->as_number() == direct.schedule_length &&
        p->find("simulation_effort")->as_number() ==
            direct.simulation_effort &&
        same(p->find("max_temperature")->as_number(), direct.max_temperature,
             1e-9);
    if (!match) {
      ++mismatches;
      std::cout << "MISMATCH table1 " << point.id
                << ": record differs from a direct generate call\n";
    }
  }
  return mismatches;
}

/// The dispatch-order facts that must repeat exactly in every serve of
/// one batch.
struct ExactCounts {
  std::size_t executed = 0;
  std::size_t memo_hits = 0;
  std::size_t model_hits = 0;
  std::size_t model_misses = 0;
  bool operator==(const ExactCounts&) const = default;
};

ExactCounts exact_counts(const scenario::ServeSummary& s) {
  return {s.executed, s.memo_hits, s.runner.model_hits, s.runner.model_misses};
}

std::vector<double> executed_walls(const scenario::ServeSummary& s) {
  std::vector<double> walls;
  for (const scenario::RequestTiming& t : s.request_timings) {
    if (!t.memo_hit) walls.push_back(t.wall_seconds);
  }
  return walls;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double value) { return format_json_number(value); }

void print_metric(const Metric& m, const std::string& note = "") {
  std::cout << "  " << std::left << std::setw(28) << m.name << std::right
            << std::setw(16) << number(m.value) << " " << m.unit;
  if (!note.empty()) std::cout << "   " << note;
  std::cout << '\n';
}

std::string spread_note(const std::vector<double>& samples) {
  const auto [q1, q3] = perfbench::quartiles(samples);
  const double mid = perfbench::median(samples);
  std::ostringstream note;
  note << "(n=" << samples.size() << ", IQR/median "
       << std::setprecision(3)
       << (mid > 0.0 ? 100.0 * (q3 - q1) / mid : 0.0) << "%)";
  return note.str();
}

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_passed = true;
};

void print_gen_stats(const gen::GenStats& s) {
  std::cout << "gen stream: " << s.count << " lines, " << s.fresh
            << " fresh, " << s.duplicates << " duplicates; sweep " << s.sweep
            << ", ptrace " << s.ptrace << ", chained " << s.chained
            << ", grid " << s.grid << '\n';
}

/// --trace 0: the end-to-end metrics.
Outcome measure(const Workload& w, const std::string& batch,
                const std::vector<std::string>& reference,
                const PaperCosts& costs, double seconds) {
  Outcome outcome;
  // The peak of the measured serves only, not of the reference serve.
  reset_peak_rss();
  std::vector<double> setup, wall, cpu, p50, tail, scales;
  perfbench::Tail last_tail;
  ExactCounts first{};
  std::size_t factor_min = SIZE_MAX, factor_max = 0;
  const Clock::time_point start = Clock::now();
  do {
    scales.push_back(clock_scale());
    for (int i = 0; i < kSetupProbesPerServe; ++i) {
      setup.push_back(time_setup_probe(w.threads));
    }
    const ServeRun run = serve_fresh(batch, w.threads, false);
    const std::vector<double> walls = executed_walls(run.summary);
    wall.push_back(run.wall_s);
    cpu.push_back(run.cpu_s);
    p50.push_back(perfbench::median(walls));
    last_tail = perfbench::tail(walls);
    tail.push_back(last_tail.value);
    factor_min = std::min(factor_min, run.factors.misses);
    factor_max = std::max(factor_max, run.factors.misses);

    outcome.attempted += reference.size();
    const std::size_t failures = count_failures(run.records, reference);
    outcome.failed += failures;
    const ExactCounts counts = exact_counts(run.summary);
    if (wall.size() == 1) first = counts;
    if (!(counts == first)) {
      outcome.checks_passed = false;
      std::cout << "MISMATCH serve " << wall.size()
                << ": executed/memo/model counts differ from serve 1\n";
    }
    if (w.gen_stats && counts.memo_hits != w.gen_stats->duplicates) {
      outcome.checks_passed = false;
      std::cout << "MISMATCH serve " << wall.size() << ": " << counts.memo_hits
                << " memo hits for " << w.gen_stats->duplicates
                << " generated duplicates\n";
    }
  } while (since(start) < seconds);

  // The clock moves over minutes, so one scale serves the whole run.
  const double scale = perfbench::median(scales);
  auto fastest = [&](const std::vector<double>& samples) {
    return scale * *std::min_element(samples.begin(), samples.end());
  };
  const double wall_s = fastest(wall);
  outcome.metrics = {
      {"wall_s", wall_s, "s"},
      {"exec_p50_s", fastest(p50), "s"},
      {"exec_tail_s", fastest(tail), "s"},
      {"cpu_s", fastest(cpu), "s"},
      {"setup_s", fastest(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  std::ostringstream tail_note;
  tail_note << "(p" << std::setprecision(4) << last_tail.percentile
            << " of n=" << last_tail.n << " executed per serve)";
  std::cout << "end-to-end, fastest of " << wall.size() << " serves of "
            << reference.size() << " requests at " << w.threads
            << " thread(s), at the reference clock speed:\n";
  print_metric(outcome.metrics[0], spread_note(wall));
  std::cout << "  " << std::left << std::setw(28) << "  = req/s" << std::right
            << std::setw(16)
            << number(static_cast<double>(reference.size()) / wall_s)
            << " 1/s\n";
  print_metric(outcome.metrics[1], spread_note(p50));
  print_metric(outcome.metrics[2], spread_note(tail) + " " + tail_note.str());
  print_metric(outcome.metrics[3], spread_note(cpu));
  std::ostringstream setup_note;
  setup_note << spread_note(setup) << " (fastest probe; "
             << kSetupProbesPerServe << " before each serve)";
  print_metric(outcome.metrics[4], setup_note.str());
  print_metric(outcome.metrics[5], "(peak of the measured serves)");
  print_metric({"simulation_effort_s", costs.effort_s, "s"}, "(deterministic)");
  print_metric({"schedule_length_s", costs.length_s, "s"}, "(deterministic)");
  std::cout << "clock scale " << number(scale) << " (median of "
            << scales.size() << "; range "
            << number(*std::min_element(scales.begin(), scales.end())) << ".."
            << number(*std::max_element(scales.begin(), scales.end()))
            << "); unscaled: fastest wall " << number(wall_s / scale)
            << " s, median wall " << number(perfbench::median(wall)) << " s\n";
  std::cout << "exact counts per serve: executed " << first.executed
            << ", memo hits " << first.memo_hits << ", model hits "
            << first.model_hits << ", model misses " << first.model_misses
            << "; factor misses " << factor_min;
  if (factor_max != factor_min) std::cout << ".." << factor_max;
  std::cout << (w.threads > 1 ? " (racing workers may both factor)" : "")
            << '\n';
  return outcome;
}

/// --trace 1: the per-layer metrics.
Outcome trace(const Workload& w, const std::string& batch,
              const std::vector<std::string>& reference,
              const PaperCosts& costs, const std::string& trace_path) {
  Outcome outcome;
  const ServeRun serve = serve_fresh(batch, w.threads, false);
  // Untraced, traced, traced, untraced: the tracing overhead is the
  // difference of the pair means, which cancels a linear drift in
  // machine speed across the four replays.
  const perfbench::ReplayResult plain = perfbench::replay(w.lines, false);
  const perfbench::ReplayResult traced = perfbench::replay(w.lines, true);
  const perfbench::ReplayResult traced2 = perfbench::replay(w.lines, true);
  const perfbench::ReplayResult plain2 = perfbench::replay(w.lines, false);
  const double overhead =
      0.5 * (traced.wall_s + traced2.wall_s - plain.wall_s - plain2.wall_s);

  outcome.attempted = 5 * reference.size();
  outcome.failed = count_failures(serve.records, reference);
  for (const perfbench::ReplayResult* r : {&plain, &traced, &traced2, &plain2}) {
    outcome.failed += count_failures(r->records, reference);
    if (r->memo_hits != serve.summary.memo_hits ||
        r->executed != serve.summary.executed ||
        r->validations != traced.validations ||
        r->discards != traced.discards ||
        r->factors.misses != traced.factors.misses) {
      outcome.checks_passed = false;
      std::cout << "MISMATCH replay: executed/memo/validation/discard/factor "
                   "counts differ between serve and the replays\n";
    }
  }
  if (!trace_path.empty()) {
    std::ofstream file(trace_path);
    file << perfbench::spans_json(traced.spans) << '\n';
    if (!file.good()) {
      throw std::runtime_error("cannot write spans to " + trace_path);
    }
  }

  // Dispatch figures from the serve, over executed requests.
  const scenario::ServeSummary& s = serve.summary;
  std::vector<double> waits;
  double busy = 0.0;
  for (const scenario::RequestTiming& t : s.request_timings) {
    if (t.memo_hit) continue;
    waits.push_back(t.queue_wait_seconds);
    busy += t.wall_seconds;
  }
  const double capacity =
      static_cast<double>(s.threads) * s.makespan_seconds;

  const std::map<std::string, double> self =
      perfbench::layer_self_seconds(traced.spans);
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double attributed = 0.0;
  for (const auto& [name, seconds] : self) attributed += seconds;
  const double unattributed = traced.wall_s - attributed;
  const double n_requests = static_cast<double>(s.requests);

  outcome.metrics = {
      {"scenario.parse_s", self_of("scenario.parse"), "s"},
      {"scenario.parse_calls", static_cast<double>(traced.parse_calls), "count"},
      {"scenario.render_s", self_of("scenario.render"), "s"},
      {"soc.build_s", self_of("soc.build"), "s"},
      {"soc.build_calls", static_cast<double>(traced.soc_builds), "count"},
      {"thermal.model_build_s", self_of("thermal.model_build"), "s"},
      {"thermal.model_hits", static_cast<double>(traced.models.model_hits),
       "count"},
      {"thermal.model_misses", static_cast<double>(traced.models.model_misses),
       "count"},
      {"thermal.factor_s", self_of("thermal.factor"), "s"},
      {"thermal.factor_hits", static_cast<double>(traced.factors.hits),
       "count"},
      {"thermal.factor_misses", static_cast<double>(traced.factors.misses),
       "count"},
      {"thermal.factor_evictions", static_cast<double>(traced.factor_evictions),
       "count"},
      {"thermal.replay_s", self_of("thermal.replay"), "s"},
      {"linalg.ordering_s", traced.ordering_s, "s"},
      {"linalg.factor_nnz", static_cast<double>(traced.factor_nnz), "count"},
      {"core.alg1_s", self_of("core.alg1"), "s"},
      {"core.alg1.calls", static_cast<double>(traced.alg1_calls), "count"},
      {"core.alg1.prepass_sims", static_cast<double>(traced.prepass_sims),
       "count"},
      {"core.alg1.validations", static_cast<double>(traced.validations),
       "count"},
      {"core.alg1.discards", static_cast<double>(traced.discards), "count"},
      {"core.alg1.accept_ratio",
       traced.validations > 0 ? static_cast<double>(traced.committed) /
                                    static_cast<double>(traced.validations)
                              : 0.0,
       "ratio"},
      {"core.safety_check_s", self_of("core.safety_check"), "s"},
      {"dispatch.memo_hit_ratio",
       n_requests > 0 ? static_cast<double>(s.memo_hits) / n_requests : 0.0,
       "ratio"},
      {"dispatch.executed", static_cast<double>(s.executed), "count"},
      {"dispatch.queue_wait_p50_s", perfbench::median(waits), "s"},
      {"dispatch.queue_wait_tail_s", perfbench::tail(waits).value, "s"},
      {"sweep.busy_share", capacity > 0.0 ? busy / capacity : 0.0, "ratio"},
      {"obs.trace_overhead_s", overhead, "s"},
      {"unattributed_s", unattributed, "s"},
      {"simulation_effort_s", costs.effort_s, "s"},
      {"schedule_length_s", costs.length_s, "s"},
  };

  std::cout << "per-layer, one-thread replay of " << reference.size()
            << " requests (" << traced.executed << " executed, "
            << traced.memo_hits << " repeats answered), "
            << traced.spans.size() << " spans:\n";
  for (const Metric& m : outcome.metrics) print_metric(m);
  std::cout << "replay walls: untraced " << number(plain.wall_s) << " s, "
            << number(plain2.wall_s) << " s; traced " << number(traced.wall_s)
            << " s, " << number(traced2.wall_s) << " s\n"
            << "reconciliation of the first traced wall:\n";
  for (const auto& [name, seconds] : self) {
    std::ostringstream share;
    share << std::setprecision(3) << 100.0 * seconds / traced.wall_s << "%";
    print_metric({name + " self", seconds, "s"}, share.str());
  }
  std::ostringstream share;
  share << std::setprecision(3) << 100.0 * unattributed / traced.wall_s << "%";
  print_metric({"unattributed", unattributed, "s"}, share.str());
  print_metric({"sum", attributed + unattributed, "s"}, "(= traced wall)");
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--setup-probe") {
    const ProgramState state(std::stoul(argv[2]), false);
    return state.options.threads == 0 ? 1 : 0;
  }
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  try {
    const Workload w = perfbench::make_workload(args.workload, args.seed);
    const std::string batch = perfbench::batch_text(w);
    std::cout << "workload " << w.name << ", seed " << args.seed << ", "
              << w.lines.size() << " requests, " << w.threads
              << " serve thread(s)\n";
    if (w.gen_stats) print_gen_stats(*w.gen_stats);

    const Clock::time_point reference_start = Clock::now();
    const ServeRun reference = serve_fresh(batch, 1, true);
    std::size_t setup_failures = 0;
    for (const std::string& record : reference.records) {
      if (!record_ok(record)) ++setup_failures;
    }
    if (reference.records.size() != w.lines.size()) {
      setup_failures += w.lines.size();
    }
    if (!w.table1_points.empty()) {
      setup_failures += check_table1(w, reference.records);
    }
    const PaperCosts costs = paper_costs(reference.records);
    std::cout << "reference serve (1 thread, dedup off) and checks: "
              << number(since(reference_start)) << " s\n";

    Outcome outcome;
    if (args.trace) {
      const std::string path =
          args.trace_dir.empty()
              ? std::string()
              : args.trace_dir + "/" + w.name + "-seed" +
                    std::to_string(args.seed) + ".json";
      outcome = trace(w, batch, reference.records, costs, path);
      if (!path.empty()) std::cout << "spans written to " << path << '\n';
    } else {
      outcome = measure(w, batch, reference.records, costs, args.seconds);
    }
    outcome.failed += setup_failures;
    const bool correct = outcome.failed == 0 && outcome.checks_passed;
    print_metric({"fail_ratio",
                  static_cast<double>(outcome.failed) /
                      static_cast<double>(outcome.attempted),
                  "ratio"});

    JsonValue metrics = JsonValue::object();
    for (const Metric& m : outcome.metrics) {
      JsonValue entry = JsonValue::object();
      entry.set("value", JsonValue::number(m.value));
      entry.set("unit", JsonValue::string(m.unit));
      metrics.set(m.name, std::move(entry));
    }
    JsonValue result = JsonValue::object();
    result.set("correct", JsonValue::boolean(correct));
    result.set("attempted",
               JsonValue::number(static_cast<double>(outcome.attempted)));
    result.set("failed", JsonValue::number(static_cast<double>(outcome.failed)));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}

// Dispatch-layer record: does cost-aware placement actually cut the
// makespan of a skewed batch, and does the result memo actually dedup?
//
//   ./build/bench/bench_dispatch                        # table
//   ./build/bench/bench_dispatch --json BENCH_dispatch.json
//
// The batch is the ROADMAP skew scenario: 60 small Alpha requests
// (distinct power corners, transient oracle) plus ONE 1034-thermal-node
// synthetic sparse request — the whale — placed LAST in the input.
// Under fifo the whale starts only after the small fry drain, so the
// batch makespan is roughly smalls/threads + whale; under ljf the whale
// starts first and the smalls backfill the other workers. Each policy
// runs `--reps` times on `--threads` workers (dedup off, fresh runner,
// min makespan wins) and every run's output must be byte-identical to a
// 1-thread reference — placement may never change the bytes.
//
// The JSON record (schema "thermo.bench_dispatch.v4") is CI-gated:
//   * virtual_ljf_makespan < virtual_fifo_makespan: each policy's start
//     order (dispatch::sort_for_policy, what run_batch executes) is
//     played on `--threads` workers on a virtual clock where every
//     request takes its CostModel estimate (dispatch::virtual_makespan).
//     Deterministic, so it holds under any machine load, and it fails
//     when ljf stops moving the whale to the front. The timed makespans
//     (fifo_makespan_s, ljf_makespan_s) are recorded but not gated: with
//     ~70 µs small requests they compare scheduler noise;
//   * memo_hit_rate == 1.0: serving the identical batch twice through
//     one shared memo must answer every second-pass request from it;
//   * cost_rank_ok: the CostModel must rank the whale as the most
//     expensive request AND the measured per-request wall times must
//     agree — the calibration check that keeps ljf meaningful;
//   * calibration.improved: on a generated stream, a calibrator trained
//     on one pass must estimate the next pass strictly better (median
//     relative error, scale-free) than the hand-tuned constants;
//   * deterministic also covers calibrate on/off — placement inputs may
//     never change the bytes.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <numeric>
#include <string>
#include <vector>

#include "dispatch/calibrator.hpp"
#include "dispatch/engine.hpp"
#include "dispatch/result_memo.hpp"
#include "gen/generator.hpp"
#include "scenario/cost.hpp"
#include "scenario/request.hpp"
#include "scenario/serve.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace thermo;

std::string skewed_batch(std::size_t small_count) {
  std::string input;
  for (std::size_t i = 0; i < small_count; ++i) {
    scenario::ScenarioRequest small;
    small.id = "small-" + std::to_string(i);
    // Distinct corners so the memo cannot collapse the batch.
    small.soc.power_scale = 1.0 + 0.001 * static_cast<double>(i);
    small.stcl.min = small.stcl.max = 50.0;
    input += scenario::to_json_line(small) + "\n";
  }
  scenario::ScenarioRequest whale;
  whale.id = "whale";
  whale.soc.kind = scenario::SocKind::kSynthetic;
  whale.soc.synthetic.seed = 7;
  whale.soc.synthetic.cores = 1024;  // 1034 thermal nodes
  whale.soc.synthetic.test_length_min = 0.02;
  whale.soc.synthetic.test_length_max = 0.02;
  whale.tl = 400.0;
  whale.stcl.min = 100.0;
  whale.stcl.max = 120.0;
  whale.stcl.step = 10.0;
  whale.solver.transient = false;
  whale.solver.backend = thermal::SolverBackend::kSparse;
  whale.solver.backend_explicit = true;
  input += scenario::to_json_line(whale) + "\n";  // deliberately LAST
  return input;
}

struct Run {
  std::string output;
  scenario::ServeSummary summary;
};

Run run_batch(const std::string& requests, const scenario::ServeOptions& options,
              scenario::ScenarioRunner* shared_runner = nullptr) {
  std::istringstream in(requests);
  std::ostringstream out;
  scenario::ScenarioRunner local_runner;  // cold model cache per run
  scenario::ScenarioRunner& runner =
      shared_runner != nullptr ? *shared_runner : local_runner;
  const auto summary = scenario::serve_stream(in, out, runner, options);
  return Run{out.str(), summary};
}

}  // namespace

int main(int argc, char** argv) {
  long long threads = 4;
  long long reps = 2;
  long long small_count = 60;
  std::string json_path;
  CliParser cli("bench_dispatch",
                "Makespan + memoization record for the dispatch engine "
                "(skewed 1x1034-node + N-small serve batch)");
  cli.add_int("threads", "Worker threads for the policy runs", &threads);
  cli.add_int("reps", "Timed repetitions per policy (min wins)", &reps);
  cli.add_int("smalls", "Small Alpha requests in the batch", &small_count);
  cli.add_string("json", "Write BENCH_dispatch.json-style record here",
                 &json_path);
  try {
    if (!cli.parse(argc, argv)) return 0;
    THERMO_REQUIRE(threads >= 1, "--threads must be >= 1");
    THERMO_REQUIRE(reps >= 1, "--reps must be >= 1");
    THERMO_REQUIRE(small_count >= 4, "--smalls must be >= 4");

    const std::string requests =
        skewed_batch(static_cast<std::size_t>(small_count));
    const std::size_t request_count =
        static_cast<std::size_t>(small_count) + 1;

    // 1-thread fifo reference: the bytes every other configuration must
    // reproduce, and the serial per-request timing baseline.
    scenario::ServeOptions reference_options;
    reference_options.threads = 1;
    reference_options.dedup = false;
    const Run reference = run_batch(requests, reference_options);
    THERMO_REQUIRE(reference.summary.failed == 0,
                   "reference run had failing requests");

    // Policy comparison: dedup off (isolates placement), fresh runner
    // per run (same cold-cache work for both policies), min over reps.
    bool deterministic = true;
    double makespans[2] = {0.0, 0.0};
    for (const dispatch::SchedulePolicy policy :
         {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf}) {
      double best = 0.0;
      for (long long rep = 0; rep < reps; ++rep) {
        scenario::ServeOptions options;
        options.threads = static_cast<std::size_t>(threads);
        options.policy = policy;
        options.dedup = false;
        const Run run = run_batch(requests, options);
        deterministic = deterministic && run.output == reference.output;
        if (rep == 0 || run.summary.makespan_seconds < best) {
          best = run.summary.makespan_seconds;
        }
      }
      makespans[policy == dispatch::SchedulePolicy::kLjf ? 1 : 0] = best;
    }
    const double fifo_makespan = makespans[0];
    const double ljf_makespan = makespans[1];
    const double speedup =
        ljf_makespan > 0.0 ? fifo_makespan / ljf_makespan : 0.0;

    // The placement gate, on a virtual clock driven by the cost
    // estimates serve placed the batch with.
    std::vector<double> costs;
    for (const auto& timing : reference.summary.request_timings) {
      costs.push_back(timing.cost);
    }
    std::vector<std::size_t> fifo_order(costs.size());
    std::iota(fifo_order.begin(), fifo_order.end(), std::size_t{0});
    std::vector<std::size_t> ljf_order = fifo_order;
    dispatch::sort_for_policy(ljf_order, costs, dispatch::SchedulePolicy::kLjf);
    const auto workers = static_cast<std::size_t>(threads);
    const double virtual_fifo =
        dispatch::virtual_makespan(costs, fifo_order, workers);
    const double virtual_ljf =
        dispatch::virtual_makespan(costs, ljf_order, workers);
    const bool ljf_wins =
        dispatch::beats_input_order(costs, ljf_order, workers);

    // Cost-model validation against the serial reference timings: the
    // whale (input-last) must be both the estimated AND the measured
    // most-expensive request, and its measured skew should be large —
    // that is the whole premise of ljf placement.
    const auto& timings = reference.summary.request_timings;
    const std::size_t whale_index = timings.size() - 1;
    bool cost_rank_ok = true;
    std::vector<double> small_walls;
    for (std::size_t i = 0; i < timings.size(); ++i) {
      if (i == whale_index) continue;
      cost_rank_ok = cost_rank_ok &&
                     timings[whale_index].cost > timings[i].cost &&
                     timings[whale_index].wall_seconds > timings[i].wall_seconds;
      small_walls.push_back(timings[i].wall_seconds);
    }
    std::sort(small_walls.begin(), small_walls.end());
    const double small_median = small_walls[small_walls.size() / 2];
    const double measured_ratio =
        small_median > 0.0 ? timings[whale_index].wall_seconds / small_median
                           : 0.0;

    // Memoization: the identical batch served twice through one shared
    // memo — the second pass must answer EVERY request from it.
    dispatch::ResultMemo memo;
    scenario::ScenarioRunner memo_runner;
    scenario::ServeOptions memo_options;
    memo_options.threads = static_cast<std::size_t>(threads);
    memo_options.memo = &memo;
    const Run memo_first = run_batch(requests, memo_options, &memo_runner);
    const Run memo_second = run_batch(requests, memo_options, &memo_runner);
    deterministic = deterministic && memo_first.output == reference.output &&
                    memo_second.output == reference.output;
    const double memo_hit_rate =
        static_cast<double>(memo_second.summary.memo_hits) /
        static_cast<double>(request_count);

    // Calibration: a mixed generated stream served three times at one
    // thread through one warm runner — a warm-up pass (model builds must
    // not pollute the training measurements), a training pass that
    // folds its (features, wall) pairs into the calibrator, and an
    // evaluation pass whose summary scores the hand-tuned constants
    // against the post-pass fit on identical work. The fit must win.
    gen::GenConfig calib_config;
    calib_config.seed = 11;
    calib_config.count = 48;  // > CostCalibrator::kMinSamples
    calib_config.zipf_skew = 0.7;
    const gen::GeneratedStream calib_stream = gen::generate_stream(calib_config);
    std::string calib_requests;
    for (const std::string& line : calib_stream.lines) {
      calib_requests += line + "\n";
    }
    scenario::ScenarioRunner calib_runner;
    scenario::ServeOptions warmup_options;
    warmup_options.threads = 1;
    warmup_options.dedup = false;
    const Run calib_warmup = run_batch(calib_requests, warmup_options,
                                       &calib_runner);
    THERMO_REQUIRE(calib_warmup.summary.failed == 0,
                   "calibration stream had failing requests");
    dispatch::CostCalibrator calibrator;
    scenario::ServeOptions calib_options = warmup_options;
    calib_options.calibrator = &calibrator;
    const Run calib_train = run_batch(calib_requests, calib_options,
                                      &calib_runner);
    const Run calib_eval = run_batch(calib_requests, calib_options,
                                     &calib_runner);
    deterministic = deterministic &&
                    calib_train.output == calib_warmup.output &&
                    calib_eval.output == calib_warmup.output;
    THERMO_REQUIRE(calib_eval.summary.calibration_active,
                   "calibrator not ready after the training pass");
    const double fixed_error = calib_eval.summary.fixed_error;
    const double calibrated_error = calib_eval.summary.calibrated_error;
    const bool calibration_improved = calibrated_error < fixed_error;

    std::cout << "dispatch batch: " << request_count << " requests ("
              << small_count << " small + 1 whale, whale last), "
              << threads << " threads, " << reps << " reps\n"
              << "  fifo makespan: " << format_double(fifo_makespan, 3)
              << " s\n"
              << "  ljf  makespan: " << format_double(ljf_makespan, 3)
              << " s (" << format_double(speedup, 2) << "x, not gated)\n"
              << "  virtual clock: fifo " << format_double(virtual_fifo, 0)
              << ", ljf " << format_double(virtual_ljf, 0)
              << " cost units (" << (ljf_wins ? "ljf wins" : "LJF DOES NOT WIN")
              << ")\n"
              << "  whale wall   : "
              << format_double(timings[whale_index].wall_seconds, 3)
              << " s (" << format_double(measured_ratio, 1)
              << "x the median small; cost model ranks it "
              << (cost_rank_ok ? "first" : "WRONG") << ")\n"
              << "  memo 2nd pass: " << memo_second.summary.memo_hits << "/"
              << request_count << " hits ("
              << format_double(memo_hit_rate * 100.0, 1) << "%)\n"
              << "  calibration  : median rel error "
              << format_double(fixed_error, 3) << " fixed -> "
              << format_double(calibrated_error, 3) << " fitted ("
              << calibrator.samples() << " samples, "
              << (calibration_improved ? "improved" : "NOT IMPROVED") << ")\n"
              << "  deterministic: " << (deterministic ? "yes" : "NO") << '\n';
    if (!json_path.empty()) {
      JsonValue record = JsonValue::object();
      record.set("schema", JsonValue::string("thermo.bench_dispatch.v4"));
      record.set("requests",
                 JsonValue::number(static_cast<double>(request_count)));
      record.set("small_requests",
                 JsonValue::number(static_cast<double>(small_count)));
      record.set("whale_nodes", JsonValue::number(1034.0));
      record.set("threads", JsonValue::number(static_cast<double>(threads)));
      record.set("reps", JsonValue::number(static_cast<double>(reps)));
      record.set("fifo_makespan_s", JsonValue::number(fifo_makespan));
      record.set("ljf_makespan_s", JsonValue::number(ljf_makespan));
      record.set("ljf_speedup", JsonValue::number(speedup));
      record.set("virtual_fifo_makespan",
                 JsonValue::number(virtual_fifo));
      record.set("virtual_ljf_makespan",
                 JsonValue::number(virtual_ljf));
      record.set("ljf_wins", JsonValue::boolean(ljf_wins));
      record.set("whale_wall_s",
                 JsonValue::number(timings[whale_index].wall_seconds));
      record.set("small_wall_median_s", JsonValue::number(small_median));
      record.set("measured_whale_ratio", JsonValue::number(measured_ratio));
      record.set("estimated_whale_cost",
                 JsonValue::number(timings[whale_index].cost));
      record.set("cost_rank_ok", JsonValue::boolean(cost_rank_ok));
      record.set("memo_hits", JsonValue::number(static_cast<double>(
                                  memo_second.summary.memo_hits)));
      record.set("memo_hit_rate", JsonValue::number(memo_hit_rate));
      record.set("deterministic", JsonValue::boolean(deterministic));
      JsonValue calibration = JsonValue::object();
      calibration.set("samples", JsonValue::number(static_cast<double>(
                                     calibrator.samples())));
      calibration.set("fixed_error", JsonValue::number(fixed_error));
      calibration.set("calibrated_error", JsonValue::number(calibrated_error));
      calibration.set("improved", JsonValue::boolean(calibration_improved));
      record.set("calibration", std::move(calibration));
      std::ofstream out(json_path);
      THERMO_REQUIRE(static_cast<bool>(out),
                     "cannot open --json path for writing");
      out << record.dump() << '\n';
      out.flush();
      THERMO_REQUIRE(out.good(), "failed writing '" + json_path + "'");
      std::cout << "wrote " << json_path << '\n';
    }

    if (!deterministic) {
      std::cerr << "error: outputs differ across policies/threads/dedup\n";
      return 1;
    }
    if (memo_hit_rate != 1.0) {
      std::cerr << "error: second-pass memo hit rate "
                << format_double(memo_hit_rate * 100.0, 1) << "% != 100%\n";
      return 1;
    }
    if (!cost_rank_ok) {
      std::cerr << "error: cost model failed to rank the whale first\n";
      return 1;
    }
    if (!ljf_wins) {
      std::cerr << "error: ljf's start order (virtual makespan "
                << format_double(virtual_ljf, 0)
                << ") did not beat fifo's ("
                << format_double(virtual_fifo, 0) << ") on "
                << threads << " workers\n";
      return 1;
    }
    if (!calibration_improved) {
      std::cerr << "error: calibrated estimate error "
                << format_double(calibrated_error, 4)
                << " did not beat fixed constants "
                << format_double(fixed_error, 4) << '\n';
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

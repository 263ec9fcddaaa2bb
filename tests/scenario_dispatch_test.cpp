// The dispatch-backed serve path: the property the whole subsystem
// hangs on — output bytes identical across {fifo,ljf} × {1,4} threads
// × dedup {on,off} on a randomized batch with invalid lines in place —
// plus request cost estimation, per-request timings, duplicate-batch
// memoization, and the summary JSON payload.
#include "scenario/serve.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dispatch/result_memo.hpp"
#include "scenario/cost.hpp"
#include "scenario/demo.hpp"

namespace thermo::scenario {
namespace {

/// A randomized-but-reproducible 50-line batch: 46 demo requests (mixed
/// SoCs, corners, STCL spans — see demo_batch) with four invalid lines
/// spliced in at fixed positions, which must produce ok:false records
/// *in place*.
std::string mixed_batch() {
  std::string input;
  std::size_t line = 0;
  for (const ScenarioRequest& request : demo_batch(46, 33)) {
    if (line == 3) input += "{definitely not json\n";
    if (line == 10) input += "{\"tl\":-40}\n";
    if (line == 27) input += "{\"soc\":{\"kind\":\"alhpa\"}}\n";
    if (line == 40) input += "{\"stcl\":{\"min\":5}}\n";
    input += to_json_line(request) + "\n";
    ++line;
  }
  return input;
}

struct RunOutput {
  std::string records;
  ServeSummary summary;
};

RunOutput run_serve(const std::string& input, const ServeOptions& options,
                    ScenarioRunner* shared_runner = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ScenarioRunner local_runner;
  ScenarioRunner& runner =
      shared_runner != nullptr ? *shared_runner : local_runner;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  return RunOutput{out.str(), summary};
}

TEST(ServeDispatch, ByteIdenticalAcrossPolicyThreadsAndDedup) {
  const std::string input = mixed_batch();
  ServeOptions reference_options;
  reference_options.threads = 1;
  const RunOutput reference = run_serve(input, reference_options);
  EXPECT_EQ(reference.summary.requests, 50u);
  EXPECT_EQ(reference.summary.failed, 4u);
  EXPECT_EQ(reference.summary.succeeded, 46u);

  for (const dispatch::SchedulePolicy policy :
       {dispatch::SchedulePolicy::kFifo, dispatch::SchedulePolicy::kLjf}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const bool dedup : {true, false}) {
        ServeOptions options;
        options.policy = policy;
        options.threads = threads;
        options.dedup = dedup;
        const RunOutput run = run_serve(input, options);
        EXPECT_EQ(run.records, reference.records)
            << "policy=" << dispatch::schedule_policy_name(policy)
            << " threads=" << threads << " dedup=" << dedup;
        EXPECT_EQ(run.summary.failed, 4u);
      }
    }
  }
}

TEST(ServeDispatch, InvalidLinesFailInPlace) {
  const RunOutput run = run_serve(mixed_batch(), {});
  std::vector<std::string> records;
  std::istringstream lines(run.records);
  for (std::string l; std::getline(lines, l);) records.push_back(l);
  ASSERT_EQ(records.size(), 50u);
  // The invalid lines were spliced in before demo lines 3/10/27/40, so
  // they landed at batch slots 3, 11, 29, and 43 (each earlier splice
  // shifts the later ones by one).
  for (const std::size_t slot : {std::size_t{3}, std::size_t{11},
                                 std::size_t{29}, std::size_t{43}}) {
    EXPECT_NE(records[slot].find("\"ok\":false"), std::string::npos)
        << "slot " << slot << ": " << records[slot];
    EXPECT_NE(records[slot].find("\"id\":\"line-"), std::string::npos);
  }
  EXPECT_NE(records[3].find("json: line 1"), std::string::npos);
  EXPECT_NE(records[11].find("tl: must be finite and > 0"), std::string::npos);
  EXPECT_NE(records[29].find("unknown SoC kind 'alhpa'"), std::string::npos);
  EXPECT_NE(records[43].find("requires both min and max"), std::string::npos);
}

TEST(ServeDispatch, PerRequestTimingsRideInTheSummaryOnly) {
  ServeOptions options;
  options.threads = 2;
  const RunOutput run = run_serve(mixed_batch(), options);
  ASSERT_EQ(run.summary.request_timings.size(), 50u);
  std::size_t ok_count = 0;
  for (const RequestTiming& timing : run.summary.request_timings) {
    EXPECT_FALSE(timing.id.empty());
    EXPECT_GE(timing.wall_seconds, 0.0);
    EXPECT_GE(timing.cpu_seconds, 0.0);
    if (timing.ok) ++ok_count;
  }
  EXPECT_EQ(ok_count, run.summary.succeeded);
  // Valid requests carry a positive cost estimate; every request ran
  // (the demo batch has no duplicate lines for the memo to collapse).
  EXPECT_GT(run.summary.request_timings[0].cost, 0.0);
  // Wall-clock must never leak into the deterministic records.
  EXPECT_EQ(run.records.find("wall"), std::string::npos);
  EXPECT_GT(run.summary.makespan_seconds, 0.0);
  EXPECT_LE(run.summary.makespan_seconds, run.summary.wall_seconds);
}

TEST(ServeDispatch, DuplicateRequestsHitTheMemoWithinABatch) {
  // Ten copies of one request (same explicit id ⇒ identical canonical
  // bytes ⇒ one execution) plus one distinct request.
  ScenarioRequest repeated;
  static const std::string kRepeatedId = "rep";
  repeated.id = kRepeatedId;
  repeated.stcl.min = repeated.stcl.max = 45.0;
  ScenarioRequest other;
  static const std::string kOtherId = "other";
  other.id = kOtherId;
  other.stcl.min = other.stcl.max = 60.0;
  std::string input;
  for (int i = 0; i < 10; ++i) input += to_json_line(repeated) + "\n";
  input += to_json_line(other) + "\n";

  ServeOptions dedup_on;
  dedup_on.threads = 4;
  const RunOutput on = run_serve(input, dedup_on);
  EXPECT_EQ(on.summary.executed, 2u);
  EXPECT_EQ(on.summary.memo_hits, 9u);
  EXPECT_EQ(on.summary.succeeded, 11u);

  ServeOptions dedup_off = dedup_on;
  dedup_off.dedup = false;
  const RunOutput off = run_serve(input, dedup_off);
  EXPECT_EQ(off.summary.executed, 11u);
  EXPECT_EQ(off.summary.memo_hits, 0u);
  EXPECT_EQ(off.records, on.records);  // the invariant, again

  // All ten records are identical lines; the distinct one differs.
  std::vector<std::string> records;
  std::istringstream lines(on.records);
  for (std::string l; std::getline(lines, l);) records.push_back(l);
  ASSERT_EQ(records.size(), 11u);
  for (int i = 1; i < 10; ++i) EXPECT_EQ(records[i], records[0]);
  EXPECT_NE(records[10], records[0]);
}

TEST(ServeDispatch, SharedMemoDedupsAcrossBatches) {
  const std::string input = mixed_batch();
  dispatch::ResultMemo memo;
  ScenarioRunner runner;
  ServeOptions options;
  options.threads = 2;
  options.memo = &memo;

  const RunOutput first = run_serve(input, options, &runner);
  EXPECT_EQ(first.summary.executed, 50u);  // 46 valid + 4 keyless invalid
  EXPECT_EQ(first.summary.memo_hits, 0u);
  EXPECT_EQ(first.summary.threads, 2u);  // workers actually executing

  const RunOutput second = run_serve(input, options, &runner);
  // Valid requests are all answered from the memo; the invalid lines
  // re-execute (their records depend on line numbers, so they are
  // deliberately keyless) — but they cost nothing.
  EXPECT_EQ(second.summary.memo_hits, 46u);
  EXPECT_EQ(second.summary.executed, 4u);
  EXPECT_EQ(second.records, first.records);
}

TEST(ServeDispatch, SummaryJsonSchemaAndCounts) {
  ServeOptions options;
  options.threads = 2;
  options.policy = dispatch::SchedulePolicy::kLjf;
  const RunOutput run = run_serve(mixed_batch(), options);
  const JsonValue json = serve_summary_to_json(run.summary);
  EXPECT_EQ(json.find("schema")->as_string(), "thermo.serve_summary.v2");
  EXPECT_EQ(json.find("requests")->as_number(), 50.0);
  EXPECT_EQ(json.find("ok")->as_number(), 46.0);
  EXPECT_EQ(json.find("failed")->as_number(), 4.0);
  EXPECT_EQ(json.find("policy")->as_string(), "ljf");
  EXPECT_TRUE(json.find("dedup")->as_bool());
  EXPECT_GT(json.find("makespan_s")->as_number(), 0.0);
  ASSERT_NE(json.find("memo"), nullptr);
  EXPECT_EQ(json.find("memo")->find("executed")->as_number(), 50.0);
  ASSERT_NE(json.find("tail"), nullptr);
  EXPECT_GT(json.find("tail")->find("slowest_wall_s")->as_number(), 0.0);
  ASSERT_NE(json.find("tail")->find("p95_wall_s"), nullptr);
  ASSERT_NE(json.find("model_cache"), nullptr);
  const JsonValue* timings = json.find("request_timings");
  ASSERT_NE(timings, nullptr);
  ASSERT_EQ(timings->items().size(), 50u);
  EXPECT_EQ(timings->items()[0].find("id")->as_string(),
            run.summary.request_timings[0].id);
  // The payload must round-trip through the serializer (finite numbers,
  // valid structure).
  EXPECT_FALSE(json.dump().empty());
}

TEST(RequestCost, RanksTheWhaleAboveTheMinnow) {
  ScenarioRequest minnow;  // default: alpha, single STCL, transient
  ScenarioRequest whale;
  whale.soc.kind = SocKind::kSynthetic;
  whale.soc.synthetic.cores = 1024;
  whale.solver.transient = false;
  const double minnow_cost = estimate_request_cost(minnow);
  const double whale_cost = estimate_request_cost(whale);
  EXPECT_GT(whale_cost, minnow_cost);

  // The whale resolves to the sparse backend; its features say so.
  const dispatch::CostFeatures features = request_cost_features(whale);
  EXPECT_TRUE(features.sparse);
  EXPECT_EQ(features.nodes, 1034u);
  EXPECT_FALSE(features.transient);
  const dispatch::CostFeatures small = request_cost_features(minnow);
  EXPECT_FALSE(small.sparse);
  EXPECT_EQ(small.nodes, 25u);
  EXPECT_EQ(small.stcl_points, 1u);

  // An STCL range multiplies the estimate.
  ScenarioRequest span = minnow;
  span.stcl.min = 20.0;
  span.stcl.max = 100.0;
  span.stcl.step = 10.0;
  EXPECT_GT(estimate_request_cost(span), 5.0 * minnow_cost);
}

}  // namespace
}  // namespace thermo::scenario

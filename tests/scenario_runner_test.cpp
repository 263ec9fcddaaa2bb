#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/thermal_scheduler.hpp"
#include "scenario/demo.hpp"
#include "scenario/serve.hpp"
#include "soc/alpha.hpp"
#include "thermal/analyzer.hpp"
#include "thermal/solver_cache.hpp"

namespace thermo::scenario {
namespace {

ScenarioRequest alpha_request(double stcl) {
  ScenarioRequest request;
  // Copy-assign from a named string: literal operator= here trips a
  // GCC 12 -Wrestrict false positive (PR105651) under heavy inlining.
  static const std::string kId = "t";
  request.id = kId;
  request.stcl.min = request.stcl.max = stcl;
  return request;
}

TEST(ScenarioRunner, MatchesDirectSchedulerRun) {
  ScenarioRunner runner;
  const ScenarioResult result = runner.run(alpha_request(50.0));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.soc_name, soc::alpha_soc().name);
  EXPECT_EQ(result.cores, 15u);
  ASSERT_EQ(result.points.size(), 1u);

  // The same scenario lowered by hand must agree bit-for-bit.
  const core::SocSpec soc = soc::alpha_soc();
  thermal::ThermalAnalyzer analyzer(soc.flp, soc.package);
  core::ThermalSchedulerOptions options;
  options.temperature_limit = 155.0;
  options.stc_limit = 50.0;
  options.model.stc_scale = soc::alpha_stc_scale();
  options.solo_policy = core::SoloViolationPolicy::kRaiseLimit;
  const core::ThermalAwareScheduler scheduler(options);
  const core::ScheduleResult direct = scheduler.generate(soc, analyzer);

  EXPECT_EQ(result.points[0].schedule_length, direct.schedule_length);
  EXPECT_EQ(result.points[0].simulation_effort, direct.simulation_effort);
  EXPECT_EQ(result.points[0].sessions, direct.schedule.session_count());
  EXPECT_EQ(result.points[0].max_temperature, direct.max_temperature);
  EXPECT_EQ(result.points[0].discarded_sessions, direct.discarded_sessions);
  EXPECT_EQ(result.simulation_effort, direct.simulation_effort);
}

TEST(ScenarioRunner, StclRangeYieldsOnePointPerValue) {
  ScenarioRunner runner;
  ScenarioRequest request = alpha_request(0.0);
  request.stcl.min = 30.0;
  request.stcl.max = 60.0;
  request.stcl.step = 15.0;
  request.solver.transient = false;  // keep the sweep cheap
  const ScenarioResult result = runner.run(request);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_DOUBLE_EQ(result.points[0].stcl, 30.0);
  EXPECT_DOUBLE_EQ(result.points[1].stcl, 45.0);
  EXPECT_DOUBLE_EQ(result.points[2].stcl, 60.0);
  double total = 0.0;
  for (const core::StclSweepPoint& point : result.points) {
    total += point.simulation_effort;
    EXPECT_GT(point.sessions, 0u);
  }
  EXPECT_DOUBLE_EQ(result.simulation_effort, total);
}

TEST(ScenarioRunner, SharesModelsByGeometry) {
  ScenarioRunner runner;
  ASSERT_TRUE(runner.run(alpha_request(40.0)).ok);
  ASSERT_TRUE(runner.run(alpha_request(60.0)).ok);
  ScenarioRequest scaled = alpha_request(40.0);
  scaled.soc.power_scale = 1.5;  // same geometry, different corner
  ASSERT_TRUE(runner.run(scaled).ok);
  EXPECT_EQ(runner.stats().model_misses, 1u);
  EXPECT_EQ(runner.stats().model_hits, 2u);

  ScenarioRequest fig1 = alpha_request(50.0);
  fig1.soc.kind = SocKind::kFig1;
  ASSERT_TRUE(runner.run(fig1).ok);
  EXPECT_EQ(runner.stats().model_misses, 2u);
}

/// A cheap request with its own synthetic geometry per `seed`: steady
/// oracle, one STCL point, 12 cores — distinct geometries without
/// distinct cost.
ScenarioRequest synthetic_request(std::uint64_t seed) {
  ScenarioRequest request;
  request.id = "syn-" + std::to_string(seed);
  request.soc.kind = SocKind::kSynthetic;
  request.soc.synthetic.seed = seed;
  request.stcl.min = request.stcl.max = 50.0;
  request.solver.transient = false;
  return request;
}

TEST(ScenarioRunner, ModelCacheEvictsCleanlyPastSixtyFourGeometries) {
  // Regression for the kMaxCachedModels LRU bound: the 65th distinct
  // geometry must evict the least recently used entry instead of
  // growing forever — and eviction must be invisible except as a
  // rebuild (a re-visited evicted geometry is a miss, a recently used
  // one still hits). The evicted model's factors go with it: the model
  // LRU is the only bound on factor memory.
  ScenarioRunner runner;
  ASSERT_TRUE(runner.run(synthetic_request(1)).ok);
  // Watch the steady factor seed 1's request used (22 nodes: the dense
  // Cholesky). Looking the model up again counts as one model hit.
  std::weak_ptr<const linalg::CholeskyFactor> seed1_factor;
  {
    const ScenarioRequest first = synthetic_request(1);
    const auto model =
        runner.model_for(first.soc, ScenarioRunner::build_soc(first.soc));
    thermal::ThermalSolverCache& cache = thermal::ThermalSolverCache::instance();
    cache.reset_stats();
    seed1_factor = cache.cholesky(*model);
    EXPECT_EQ(cache.stats().hits, 1u);  // built by the request, not here
  }
  constexpr std::size_t kProbeHits = 1;
  for (std::uint64_t seed = 2;
       seed <= ScenarioRunner::kMaxCachedModels + 1; ++seed) {
    ASSERT_TRUE(runner.run(synthetic_request(seed)).ok) << "seed " << seed;
  }
  EXPECT_EQ(runner.stats().model_misses, ScenarioRunner::kMaxCachedModels + 1);
  EXPECT_EQ(runner.stats().model_hits, kProbeHits);
  EXPECT_TRUE(seed1_factor.expired());

  // Seed 1 was the LRU victim when seed 65 arrived: revisiting it is a
  // rebuild...
  ASSERT_TRUE(runner.run(synthetic_request(1)).ok);
  EXPECT_EQ(runner.stats().model_misses, ScenarioRunner::kMaxCachedModels + 2);
  EXPECT_EQ(runner.stats().model_hits, kProbeHits);
  // ...while the most recently inserted geometry is still resident.
  ASSERT_TRUE(
      runner.run(synthetic_request(ScenarioRunner::kMaxCachedModels + 1)).ok);
  EXPECT_EQ(runner.stats().model_hits, kProbeHits + 1);
}

TEST(ScenarioRunner, ServeOutputUnchangedByMidBatchEviction) {
  // A 66-geometry batch churns the model cache mid-serve; output bytes
  // must not notice, at any thread count.
  std::string input;
  for (std::uint64_t seed = 1;
       seed <= ScenarioRunner::kMaxCachedModels + 2; ++seed) {
    input += to_json_line(synthetic_request(seed));
    input += '\n';
  }
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScenarioRunner runner;
    ServeOptions options;
    options.threads = threads;
    std::istringstream in(input);
    std::ostringstream out;
    const ServeSummary summary = serve_stream(in, out, runner, options);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(summary.requests, ScenarioRunner::kMaxCachedModels + 2);
    if (reference.empty()) {
      reference = out.str();
    } else {
      EXPECT_EQ(out.str(), reference) << "threads=" << threads;
    }
  }
}

TEST(ScenarioRunner, CapturesErrorsInTheRecord) {
  ScenarioRunner runner;
  ScenarioRequest request;
  request.id = "missing-file";
  request.soc.kind = SocKind::kFlp;
  request.soc.flp_path = "/nonexistent/chip.flp";
  const ScenarioResult result = runner.run(request);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.id, "missing-file");
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.points.empty());

  const std::string record = to_json(result).dump();
  EXPECT_NE(record.find(R"("id":"missing-file")"), std::string::npos);
  EXPECT_NE(record.find(R"("ok":false)"), std::string::npos);
}

TEST(ScenarioResultJson, CanonicalRecordShape) {
  ScenarioResult result;
  result.id = "r";
  result.ok = true;
  result.soc_name = "alpha";
  result.cores = 15;
  result.points.push_back(
      core::StclSweepPoint{50.0, 5.0, 23.0, 5, 150.5, 2, 155.0});
  result.simulation_effort = 23.0;
  EXPECT_EQ(
      to_json(result).dump(),
      R"({"id":"r","ok":true,"kind":"stcl_sweep","soc":"alpha","cores":15,"points":[)"
      R"({"stcl":50,"schedule_length":5,"simulation_effort":23,"sessions":5,)"
      R"("max_temperature":150.5,"discarded_sessions":2,"effective_tl":155}],)"
      R"("simulation_effort":23})");
}

TEST(ServeStream, AnswersEveryLineInOrderAndDeterministically) {
  std::string input;
  input += to_json_line(alpha_request(40.0)) + "\n";
  input += "\n";  // blank line: skipped, no record
  input += "{broken json\n";
  input += R"({"tl":-5})" "\n";  // parses as JSON, fails validation
  ScenarioRequest anonymous = alpha_request(55.0);
  anonymous.id.clear();  // gets "line-5"
  input += to_json_line(anonymous) + "\n";

  auto run_with = [&](std::size_t threads) {
    std::istringstream in(input);
    std::ostringstream out;
    ScenarioRunner runner;
    ServeOptions options;
    options.threads = threads;
    const ServeSummary summary = serve_stream(in, out, runner, options);
    EXPECT_EQ(summary.requests, 4u);
    EXPECT_EQ(summary.succeeded, 2u);
    EXPECT_EQ(summary.failed, 2u);
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_EQ(serial, parallel);

  std::vector<std::string> records;
  std::istringstream lines(serial);
  for (std::string line; std::getline(lines, line);) records.push_back(line);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_NE(records[0].find(R"("id":"t","ok":true)"), std::string::npos);
  EXPECT_NE(records[1].find(R"("id":"line-3","ok":false)"), std::string::npos);
  EXPECT_NE(records[1].find("json: line 1"), std::string::npos);
  EXPECT_NE(records[2].find(R"("id":"line-4","ok":false)"), std::string::npos);
  EXPECT_NE(records[2].find("tl: must be finite and > 0"), std::string::npos);
  EXPECT_NE(records[3].find(R"("id":"line-5","ok":true)"), std::string::npos);
}

TEST(DemoBatch, IsDeterministicAndCoversKinds) {
  const std::vector<ScenarioRequest> a = demo_batch(25, 20);
  const std::vector<ScenarioRequest> b = demo_batch(25, 20);
  ASSERT_EQ(a.size(), 25u);
  bool saw_alpha = false, saw_fig1 = false, saw_synthetic = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(to_json_line(a[i]), to_json_line(b[i]));
    saw_alpha |= a[i].soc.kind == SocKind::kAlpha;
    saw_fig1 |= a[i].soc.kind == SocKind::kFig1;
    saw_synthetic |= a[i].soc.kind == SocKind::kSynthetic;
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_fig1);
  EXPECT_TRUE(saw_synthetic);
  // A different seed produces a different batch (the synthetic seeds
  // are drawn from the generator).
  EXPECT_NE(to_json_line(demo_batch(25, 21)[2]), to_json_line(a[2]));
}

}  // namespace
}  // namespace thermo::scenario

// Observability through the serve pipeline: tracing and metrics may
// never change the output bytes — {trace on,off} x {1,4} threads must
// be byte-identical — and when they record, they record *exactly*: the
// registry's counters must equal the summary's own stats (the disk
// memo's hit counter included), and the per-request queue_wait_s must
// ride the summary JSON additively.
#include "scenario/serve.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dispatch/disk_result_memo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist_test_util.hpp"
#include "scenario/demo.hpp"
#include "util/json.hpp"

namespace thermo::scenario {
namespace {

/// 20 demo requests followed by the same 20 lines again: with dedup on,
/// the second half must be answered from the memo (20 exact hits).
std::string duplicated_batch() {
  std::string half;
  for (const ScenarioRequest& request : demo_batch(20, 7)) {
    half += to_json_line(request) + "\n";
  }
  return half + half;
}

std::string run_serve(const std::string& input, std::size_t threads,
                      ServeSummary* summary_out = nullptr,
                      dispatch::DiskResultMemo* disk_memo = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ScenarioRunner runner;
  ServeOptions options;
  options.threads = threads;
  options.disk_memo = disk_memo;
  const ServeSummary summary = serve_stream(in, out, runner, options);
  if (summary_out != nullptr) *summary_out = summary;
  return out.str();
}

TEST(ObsServe, TracingNeverChangesOutputBytes) {
  const std::string input = duplicated_batch();
  const std::string reference = run_serve(input, 1);
  ASSERT_FALSE(reference.empty());

  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // Untraced.
    EXPECT_EQ(run_serve(input, threads), reference)
        << "threads=" << threads << " trace=off";
    // Traced.
    recorder.start();
    const std::string traced = run_serve(input, threads);
    recorder.stop();
    EXPECT_EQ(traced, reference) << "threads=" << threads << " trace=on";
    // And the trace the run produced must be non-trivial: spans from
    // serve, dispatch, and the scenario runner all fire per request.
    const JsonValue snapshot = recorder.snapshot_json();
    const JsonValue* events = snapshot.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->items().size(), 40u);
    const std::string dumped = snapshot.dump();
    EXPECT_NE(dumped.find("serve.batch"), std::string::npos);
    EXPECT_NE(dumped.find("dispatch.exec"), std::string::npos);
  }
}

TEST(ObsServe, MetricsDisabledChangesNothingButTheCounts) {
  const std::string input = duplicated_batch();
  const std::string reference = run_serve(input, 2);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  obs::set_enabled(false);
  const std::string disabled = run_serve(input, 2);
  obs::set_enabled(true);
  EXPECT_EQ(disabled, reference);
  EXPECT_EQ(registry.counter("scenario.requests").value(), 0u);
}

TEST(ObsServe, CountersExactlyMatchSummaryStats) {
  const std::string input = duplicated_batch();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  ServeSummary summary;
  run_serve(input, 4, &summary);

  EXPECT_EQ(summary.requests, 40u);
  EXPECT_EQ(summary.memo_hits, 20u);
  // The registry saw exactly what the summary reports — same events,
  // counted at different layers.
  EXPECT_EQ(registry.counter("scenario.requests").value(),
            summary.requests);
  EXPECT_EQ(registry.counter("dispatch.memo_hits").value(),
            summary.memo_hits);
  EXPECT_EQ(registry.counter("dispatch.executed").value(),
            summary.executed);
  EXPECT_EQ(registry.counter("dispatch.batches").value(), 1u);
  // Executed requests each record one exec + one queue-wait sample.
  EXPECT_EQ(registry.histogram("dispatch.exec_ns").count(),
            summary.executed);
  EXPECT_EQ(registry.histogram("dispatch.queue_wait_ns").count(),
            summary.executed);
}

TEST(ObsServe, DiskMemoHitCounterMatchesSummaryDiskHits) {
  // A cold serve fills the cache directory; a warm re-serve through a
  // FRESH DiskResultMemo (a restarted process) answers every distinct
  // request from disk and must bump dispatch.disk_memo.hits by exactly
  // the summary's disk_hits.
  const thermo::testing::ScopedTempDir dir("obs-disk-memo");
  const std::string input = duplicated_batch();
  std::string cold_bytes;
  {
    dispatch::DiskResultMemo cold(dir.path());
    cold_bytes = run_serve(input, 4, nullptr, &cold);
  }
  const obs::Counter& hits =
      obs::MetricsRegistry::instance().counter("dispatch.disk_memo.hits");
  const std::uint64_t hits_before = hits.value();
  dispatch::DiskResultMemo warm(dir.path());
  ServeSummary summary;
  EXPECT_EQ(run_serve(input, 4, &summary, &warm), cold_bytes);
  EXPECT_EQ(summary.executed, 0u);
  EXPECT_EQ(summary.disk_hits, 20u);  // one disk read per distinct request
  EXPECT_EQ(hits.value() - hits_before, summary.disk_hits);
}

TEST(ObsServe, QueueWaitRidesTheSummaryJson) {
  const std::string input = duplicated_batch();
  ServeSummary summary;
  run_serve(input, 2, &summary);
  ASSERT_EQ(summary.request_timings.size(), 40u);
  for (const RequestTiming& timing : summary.request_timings) {
    EXPECT_GE(timing.queue_wait_seconds, 0.0);
    // Memo hits never waited in the execution queue.
    if (timing.memo_hit) {
      EXPECT_EQ(timing.queue_wait_seconds, 0.0);
    }
  }

  const JsonValue json = serve_summary_to_json(summary);
  const JsonValue* timings = json.find("request_timings");
  ASSERT_NE(timings, nullptr);
  ASSERT_EQ(timings->items().size(), 40u);
  for (const JsonValue& entry : timings->items()) {
    const JsonValue* wait = entry.find("queue_wait_s");
    ASSERT_NE(wait, nullptr);
    EXPECT_GE(wait->as_number(), 0.0);
  }
  // The summary carries the process-wide metrics snapshot additively.
  const JsonValue* metrics = json.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters"), nullptr);
  EXPECT_NE(metrics->find("histograms"), nullptr);
}

}  // namespace
}  // namespace thermo::scenario

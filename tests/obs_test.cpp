// The observability layer's contracts: histogram quantiles are exact
// for values that are bucket floors, counters survive a multi-thread
// hammer without losing an increment, the trace ring drops oldest with
// exact accounting, and the exported trace JSON round-trips through
// util::json balanced and monotonic — the library-level version of what
// tools/check_trace.py and the serve trace smoke pin end to end.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace thermo::obs {
namespace {

TEST(Histogram, SmallValuesBucketExactly) {
  // bit_width(v) <= kSubBucketBits means shift 0: the bucket index IS
  // the value, so everything below 64 round-trips exactly.
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_floor(Histogram::bucket_index(v)), v);
  }
}

TEST(Histogram, BucketFloorsRoundTrip) {
  // Any value whose low (bit_width - 6) bits are zero is a bucket
  // floor; powers of two always qualify.
  for (unsigned k = 0; k < 63; ++k) {
    const std::uint64_t v = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::bucket_floor(Histogram::bucket_index(v)), v)
        << "k=" << k;
  }
  EXPECT_LE(Histogram::bucket_index(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(Histogram, RelativeErrorBounded) {
  // A non-floor value lands in a bucket whose floor is below it by at
  // most one sub-bucket width: floor <= v < floor * (1 + 1/64) + 1.
  for (const std::uint64_t v :
       {std::uint64_t{100}, std::uint64_t{999}, std::uint64_t{12345},
        std::uint64_t{987654321}, std::uint64_t{1} << 40}) {
    const std::uint64_t floor =
        Histogram::bucket_floor(Histogram::bucket_index(v));
    EXPECT_LE(floor, v);
    EXPECT_LE(v - floor, floor / Histogram::kSubBuckets + 1) << "v=" << v;
  }
}

TEST(Histogram, QuantilesExactOnPlantedDistribution) {
  Histogram h;
  // 0..63 are all bucket floors, so every quantile is the exact order
  // statistic: rank ceil(q * 64), 1-indexed.
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.sum(), 64u * 63u / 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 31u);   // rank 32 -> value 31
  EXPECT_EQ(h.quantile(0.90), 57u);  // rank ceil(57.6) = 58 -> 57
  EXPECT_EQ(h.quantile(0.95), 60u);  // rank ceil(60.8) = 61 -> 60
  EXPECT_EQ(h.quantile(1.0), 63u);
}

TEST(Histogram, QuantilesExactOnPowerOfTwoSpread) {
  Histogram h;
  h.record(1u << 10);
  h.record(1u << 14);
  h.record(1u << 20);
  EXPECT_EQ(h.quantile(0.0), 1u << 10);
  EXPECT_EQ(h.quantile(0.34), 1u << 14);  // rank ceil(1.02) = 2
  EXPECT_EQ(h.quantile(0.5), 1u << 14);
  EXPECT_EQ(h.quantile(0.99), 1u << 20);
  EXPECT_EQ(h.min(), 1u << 10);
  EXPECT_EQ(h.max(), 1u << 20);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.record(i % 64);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // Every thread records the same multiset, so the quantiles are the
  // single-thread ones regardless of interleaving.
  EXPECT_EQ(h.quantile(0.5), 31u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(Counter, EightThreadHammerIsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, DisabledPathRecordsNothing) {
  Counter c;
  Gauge g;
  Histogram h;
  set_enabled(false);
  c.add(5);
  g.set(7);
  h.record(123);
  { ScopedTimer timer(h); }
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(MetricsRegistry, SameNameSameObjectAndKindsAreExclusive) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& a = registry.counter("obs_test.reg.counter");
  Counter& b = registry.counter("obs_test.reg.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.histogram("obs_test.reg.counter"), InvalidArgument);
  EXPECT_THROW(registry.gauge("obs_test.reg.counter"), InvalidArgument);
  Histogram& h = registry.histogram("obs_test.reg.hist");
  EXPECT_EQ(&h, &registry.histogram("obs_test.reg.hist"));
  EXPECT_THROW(registry.counter("obs_test.reg.hist"), InvalidArgument);
}

TEST(MetricsRegistry, SnapshotIsByteStable) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("obs_test.snap.b").add(2);
  registry.counter("obs_test.snap.a").add(1);
  registry.histogram("obs_test.snap.h").record(42);
  const std::string first = registry.to_json().dump();
  const std::string second = registry.to_json().dump();
  EXPECT_EQ(first, second);
  // Sorted-name iteration: a before b regardless of creation order.
  EXPECT_LT(first.find("obs_test.snap.a"), first.find("obs_test.snap.b"));
  const JsonValue parsed = parse_json(first);
  const JsonValue* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* a = counters->find("obs_test.snap.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->as_number(), 1.0);
  const JsonValue* histograms = parsed.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* h = histograms->find("obs_test.snap.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_number(), 1.0);
  EXPECT_EQ(h->find("p50")->as_number(), 42.0);
}

TEST(Trace, InactiveRecorderCostsOneBranch) {
  ASSERT_FALSE(TraceRecorder::active());
  // These must be no-ops (and not crash) with no trace running.
  { TraceSpan span("obs_test.inactive"); }
  trace_instant("obs_test.inactive");
}

TEST(Trace, RingWraparoundDropsOldestWithExactAccounting) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start(64);
  for (int i = 0; i < 200; ++i) trace_instant("obs_test.wrap");
  recorder.stop();
  EXPECT_EQ(recorder.dropped_events(), 200u - 64u);
  const JsonValue snapshot = recorder.snapshot_json();
  const JsonValue* events = snapshot.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->items().size(), 64u);
  const JsonValue* dropped = snapshot.find("otherData");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->find("dropped_events")->as_number(), 136.0);
}

/// Walks a traceEvents array asserting per-tid monotonic timestamps and
/// stack-balanced B/E spans with matching names (what check_trace.py
/// enforces on real serve traces).
void expect_balanced_and_monotonic(const JsonValue& events) {
  std::map<double, double> last_ts;
  std::map<double, std::vector<std::string>> open;
  for (const JsonValue& event : events.items()) {
    const double tid = event.find("tid")->as_number();
    const double ts = event.find("ts")->as_number();
    const std::string phase = event.find("ph")->as_string();
    const std::string name = event.find("name")->as_string();
    if (last_ts.count(tid) != 0) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    if (phase == "B") {
      open[tid].push_back(name);
    } else if (phase == "E") {
      ASSERT_FALSE(open[tid].empty()) << "unmatched E for " << name;
      EXPECT_EQ(open[tid].back(), name);
      open[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left spans open";
  }
}

TEST(Trace, JsonRoundTripsBalancedAcrossThreads) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start(1u << 12);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        TraceSpan outer("obs_test.outer");
        trace_instant("obs_test.tick");
        TraceSpan inner("obs_test.inner");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.stop();
  EXPECT_EQ(recorder.dropped_events(), 0u);

  // Round-trip through util::json: dump -> parse -> validate structure.
  const std::string dumped = recorder.snapshot_json().dump();
  const JsonValue parsed = parse_json(dumped);
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 4 threads x 50 iterations x (outer B/E + instant + inner B/E).
  EXPECT_EQ(events->items().size(), 4u * 50u * 5u);
  expect_balanced_and_monotonic(*events);
}

TEST(Trace, OverwrittenBeginsAreSkippedAndOpenSpansClosed) {
  TraceRecorder& recorder = TraceRecorder::instance();
  // Odd capacity: 150 B/E pairs leave the kept suffix starting on an
  // 'E' whose 'B' was overwritten — the exporter must skip it.
  recorder.start(63);
  for (int i = 0; i < 150; ++i) {
    TraceSpan span("obs_test.churn");
  }
  // A 'B' with no matching 'E': the exporter must synthesize a closing
  // event so no span dangles.
  TraceRecorder::record("obs_test.open", 'B');
  recorder.stop();
  EXPECT_GT(recorder.dropped_events(), 0u);
  const JsonValue snapshot = recorder.snapshot_json();
  const JsonValue* events = snapshot.find("traceEvents");
  ASSERT_NE(events, nullptr);
  expect_balanced_and_monotonic(*events);
}

}  // namespace
}  // namespace thermo::obs

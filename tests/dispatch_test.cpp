// The dispatch layer in isolation: cost-model ordering, the fifo/ljf
// start order, the content-addressed result memo (FNV addressing, LRU,
// stats), the streaming ordered writer, and the engine's hard
// invariant — output bytes identical across thread counts, policies,
// and dedup settings.
#include "dispatch/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/cost_model.hpp"
#include "dispatch/ordered_writer.hpp"
#include "dispatch/result_memo.hpp"
#include "util/error.hpp"

namespace thermo::dispatch {
namespace {

TEST(CostModel, MonotoneInEveryFeature) {
  const CostModel model;
  CostFeatures base;
  base.nodes = 25;
  base.cores = 15;
  base.transient = true;
  base.steps_per_call = 1000.0;
  base.stcl_points = 1;
  const double reference = model.estimate(base);
  EXPECT_GT(reference, 0.0);

  CostFeatures more = base;
  more.nodes = 250;
  EXPECT_GT(model.estimate(more), reference);
  more = base;
  more.cores = 150;
  EXPECT_GT(model.estimate(more), reference);
  more = base;
  more.steps_per_call = 10000.0;
  EXPECT_GT(model.estimate(more), reference);
  more = base;
  more.stcl_points = 9;
  EXPECT_GT(model.estimate(more), reference);
}

TEST(CostModel, SteadyIsCheaperThanTransientAndSparseScalesLinearly) {
  const CostModel model;
  CostFeatures transient;
  transient.nodes = 1034;
  transient.cores = 1024;
  transient.sparse = true;
  transient.transient = true;
  transient.steps_per_call = 1000.0;
  CostFeatures steady = transient;
  steady.transient = false;
  EXPECT_LT(model.estimate(steady), model.estimate(transient));

  // At 1034 nodes the dense n² term must dominate the sparse c·n one —
  // the same reason the solver backend crosses over.
  CostFeatures dense = steady;
  dense.sparse = false;
  EXPECT_GT(model.estimate(dense), model.estimate(steady));
}

TEST(SchedulePolicy, NamesRoundTrip) {
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kFifo), "fifo");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kLjf), "ljf");
  for (SchedulePolicy policy : {SchedulePolicy::kFifo, SchedulePolicy::kLjf}) {
    EXPECT_EQ(schedule_policy_from_name(schedule_policy_name(policy)), policy);
  }
}

TEST(SchedulePolicy, BothBuiltinsResolveByName) {
  EXPECT_EQ(schedule_policy_from_name("fifo"), SchedulePolicy::kFifo);
  EXPECT_EQ(schedule_policy_from_name("ljf"), SchedulePolicy::kLjf);
}

TEST(SchedulePolicy, FromNameRejectsUnknownAndRemovedNames) {
  for (const char* gone : {"edf", "priority", "srpt", "sjf", ""}) {
    EXPECT_EQ(schedule_policy_from_name(gone), std::nullopt) << gone;
  }
}

TEST(ResultMemo, Fnv1a64ReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultMemo, FindInsertAndStats) {
  ResultMemo memo;
  EXPECT_EQ(memo.find("k1"), std::nullopt);
  memo.insert("k1", "record-1");
  EXPECT_EQ(memo.find("k1"), "record-1");
  EXPECT_EQ(memo.find("k2"), std::nullopt);
  const auto stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResultMemo, FirstInsertWinsOnIdenticalDuplicate) {
  // Racing duplicate executions of one key produce identical bytes
  // (records are pure functions of their keys); the memo keeps the
  // first copy and counts no second insertion.
  ResultMemo memo;
  memo.insert("k", "record");
  memo.insert("k", "record");
  EXPECT_EQ(memo.find("k"), "record");
  EXPECT_EQ(memo.stats().insertions, 1u);
}

TEST(ResultMemo, DivergentDuplicateInsertThrows) {
  // A duplicate insert carrying DIFFERENT bytes means a writer broke
  // the pure-function-of-the-key premise; silently keeping either copy
  // would let the cache serve one of two different answers, so the
  // memo fails loudly instead.
  ResultMemo memo;
  memo.insert("k", "first");
  EXPECT_THROW(memo.insert("k", "second"), LogicError);
  EXPECT_EQ(memo.find("k"), "first");  // the resident record is untouched
}

TEST(ResultMemo, ConcurrentHammerKeepsCountersConsistent) {
  // Counter-consistency under contention: every operation (stats
  // included) is serialized on one mutex, so however the threads
  // interleave, the totals must balance exactly:
  //   hits + misses == find() calls,
  //   insertions - evictions == entries,
  //   entries <= capacity.
  // The small capacity forces eviction/insert races on hot keys.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 2000;
  constexpr std::size_t kKeySpace = 64;
  constexpr std::size_t kCapacity = 16;
  const auto value_of = [](std::size_t k) {
    return "record-" + std::to_string(k);
  };
  ResultMemo memo(kCapacity);
  std::atomic<std::size_t> total_finds{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t state = t + 1;
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t k = state % kKeySpace;
        const std::string key = "key-" + std::to_string(k);
        const auto found = memo.find(key);
        total_finds.fetch_add(1, std::memory_order_relaxed);
        if (found) {
          // Every served record must be the key's one true value —
          // an insert/evict race may lose entries, never corrupt them.
          ASSERT_EQ(*found, value_of(k));
        } else {
          memo.insert(key, value_of(k));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto stats = memo.stats();
  EXPECT_EQ(stats.hits + stats.misses, total_finds.load());
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);
  EXPECT_LE(stats.entries, kCapacity);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // capacity < keyspace forces churn
}

TEST(ResultMemo, LruEvictionAtCapacity) {
  ResultMemo memo(2);
  memo.insert("a", "ra");
  memo.insert("b", "rb");
  EXPECT_EQ(memo.find("a"), "ra");  // refresh a, making b the LRU victim
  memo.insert("c", "rc");
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_EQ(memo.stats().entries, 2u);
  EXPECT_EQ(memo.find("b"), std::nullopt);  // evicted
  EXPECT_EQ(memo.find("a"), "ra");
  EXPECT_EQ(memo.find("c"), "rc");
}

TEST(OrderedWriter, StreamsInOrderRegardlessOfPushOrder) {
  std::ostringstream out;
  std::vector<std::size_t> observed;
  OrderedWriter writer(out, 4, [&](std::size_t index, const std::string&) {
    observed.push_back(index);
  });
  writer.push(2, "r2");
  EXPECT_EQ(out.str(), "");  // 0 not written yet: nothing may stream
  writer.push(0, "r0");
  EXPECT_EQ(out.str(), "r0\n");  // 1 still missing, 2 stays buffered
  writer.push(1, "r1");
  EXPECT_EQ(out.str(), "r0\nr1\nr2\n");  // 1 unblocked 2 as well
  writer.push(3, "r3");
  writer.finish();
  EXPECT_EQ(out.str(), "r0\nr1\nr2\nr3\n");
  EXPECT_EQ(writer.written(), 4u);
  EXPECT_EQ(writer.max_buffered(), 1u);
  EXPECT_EQ(observed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(OrderedWriter, GuardsAgainstMisuse) {
  std::ostringstream out;
  OrderedWriter writer(out, 2);
  writer.push(0, "r0");
  EXPECT_THROW(writer.push(0, "again"), InvalidArgument);
  EXPECT_THROW(writer.push(2, "range"), InvalidArgument);
  EXPECT_THROW(writer.finish(), LogicError);  // index 1 never arrived
}

/// A batch whose records are pure functions of the key content: job i
/// computes "v:<payload>". Payloads repeat to exercise dedup.
struct FakeBatch {
  std::vector<std::string> payloads;

  std::vector<Job> jobs(bool keyed = true) const {
    std::vector<Job> out(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (keyed) out[i].memo_key = payloads[i];
      out[i].cost = static_cast<double>(payloads[i].size());
    }
    return out;
  }

  std::string run(const EngineOptions& options, EngineStats* stats_out = nullptr,
                  std::atomic<std::size_t>* executions = nullptr) const {
    std::ostringstream out;
    OrderedWriter writer(out, payloads.size());
    const EngineStats stats = run_batch(
        this->jobs(),
        [&](std::size_t i) {
          if (executions != nullptr) executions->fetch_add(1);
          return "v:" + payloads[i];
        },
        writer, options);
    if (stats_out != nullptr) *stats_out = stats;
    return out.str();
  }
};

TEST(Engine, OutputBytesInvariantAcrossThreadsPolicyAndDedup) {
  // append() instead of `"p" + std::to_string(...)` / `"v:" + p + "\n"`:
  // those operator+ chains trip the GCC 12 -Wrestrict false positive
  // (PR105651) under heavy inlining.
  FakeBatch batch;
  for (int i = 0; i < 40; ++i) {
    std::string payload("p");
    payload.append(std::to_string(i % 17));  // duplicates
    batch.payloads.push_back(std::move(payload));
  }
  std::string expected;
  for (const std::string& p : batch.payloads) {
    expected.append("v:").append(p).push_back('\n');
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::kFifo, SchedulePolicy::kLjf}) {
      for (const bool dedup : {true, false}) {
        EngineOptions options;
        options.threads = threads;
        options.policy = policy;
        options.dedup = dedup;
        EXPECT_EQ(batch.run(options), expected)
            << "threads=" << threads << " policy="
            << schedule_policy_name(policy) << " dedup=" << dedup;
      }
    }
  }
}

/// The order execute() is called in under `policy` on one worker — the
/// engine's start order, observable because one worker runs inline.
std::vector<std::size_t> start_order(const std::vector<double>& costs,
                                     SchedulePolicy policy) {
  std::vector<Job> jobs(costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) jobs[i].cost = costs[i];
  std::ostringstream out;
  OrderedWriter writer(out, jobs.size());
  EngineOptions options;
  options.threads = 1;
  options.policy = policy;
  std::vector<std::size_t> order;
  run_batch(
      jobs,
      [&](std::size_t i) {
        order.push_back(i);
        return std::string("r");
      },
      writer, options);
  return order;
}

TEST(Engine, FifoStartsJobsInInputOrder) {
  EXPECT_EQ(start_order({5.0, 50.0, 0.5}, SchedulePolicy::kFifo),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Engine, LjfStartsJobsByDescendingCostWithIndexTiebreak) {
  EXPECT_EQ(start_order({1.0, 9.0, 1.0, 100.0, 9.0}, SchedulePolicy::kLjf),
            (std::vector<std::size_t>{3, 1, 4, 0, 2}));
}

// --- the virtual clock bench_dispatch gates placement on ---

TEST(VirtualClock, SortForPolicyIsTheEngineStartOrder) {
  const std::vector<double> costs{1.0, 9.0, 1.0, 100.0, 9.0};
  for (const SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kLjf}) {
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    sort_for_policy(order, costs, policy);
    EXPECT_EQ(order, start_order(costs, policy))
        << schedule_policy_name(policy);
  }
}

TEST(VirtualClock, MakespanIsTheGreedyListSchedule) {
  const std::vector<double> costs{4.0, 3.0, 3.0};
  const std::vector<std::size_t> order{0, 1, 2};
  EXPECT_EQ(virtual_makespan(costs, order, 1), 10.0);
  EXPECT_EQ(virtual_makespan(costs, order, 2), 6.0);  // 4 | 3 + 3
  EXPECT_EQ(virtual_makespan(costs, order, 8), 4.0);  // capped at 3 workers
  EXPECT_EQ(virtual_makespan(costs, {2, 1, 0}, 2), 7.0);  // 3 + 4 | 3
  EXPECT_EQ(virtual_makespan({}, {}, 4), 0.0);
}

/// bench_dispatch's batch shape: 60 equal small jobs, then one whale.
std::vector<double> whale_last_costs() {
  std::vector<double> costs(60, 1.0);
  costs.push_back(40.0);
  return costs;
}

TEST(VirtualClock, LjfOrderPassesThePlacementGate) {
  const std::vector<double> costs = whale_last_costs();
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  sort_for_policy(order, costs, SchedulePolicy::kLjf);
  EXPECT_EQ(virtual_makespan(costs, order, 4), 40.0);  // whale | 3 x 20
  EXPECT_TRUE(beats_input_order(costs, order, 4));
}

TEST(VirtualClock, PlacementGateFailsOnTheFifoOrder) {
  // An ljf that stopped reordering starts jobs in input order; the gate
  // must reject it (15 smalls per worker, then the whale: 55 vs 55).
  const std::vector<double> costs = whale_last_costs();
  std::vector<std::size_t> fifo(costs.size());
  std::iota(fifo.begin(), fifo.end(), std::size_t{0});
  EXPECT_EQ(virtual_makespan(costs, fifo, 4), 55.0);
  EXPECT_FALSE(beats_input_order(costs, fifo, 4));
}

TEST(Engine, RejectsUnusableJobCosts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double cost : {-1.0, inf, nan}) {
    std::vector<Job> jobs(2);
    jobs[1].cost = cost;
    std::ostringstream out;
    OrderedWriter writer(out, jobs.size());
    bool executed = false;
    EXPECT_THROW(run_batch(
                     jobs,
                     [&](std::size_t) {
                       executed = true;
                       return std::string("r");
                     },
                     writer),
                 InvalidArgument)
        << "cost " << cost;
    EXPECT_FALSE(executed) << "cost " << cost;  // rejected before any run
  }
}

TEST(Engine, DedupExecutesEachDistinctKeyOnce) {
  FakeBatch batch;
  batch.payloads = {"a", "b", "a", "c", "b", "a"};
  EngineOptions options;
  options.threads = 1;
  EngineStats stats;
  std::atomic<std::size_t> executions{0};
  batch.run(options, &stats, &executions);
  EXPECT_EQ(executions.load(), 3u);  // a, b, c
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.memo_hits, 3u);  // the three within-batch duplicates
  EXPECT_FALSE(stats.timings[0].memo_hit);
  EXPECT_TRUE(stats.timings[2].memo_hit);
  EXPECT_TRUE(stats.timings[4].memo_hit);
  EXPECT_TRUE(stats.timings[5].memo_hit);
}

TEST(Engine, DedupOffExecutesEverything) {
  FakeBatch batch;
  batch.payloads = {"a", "a", "a"};
  EngineOptions options;
  options.threads = 2;
  options.dedup = false;
  EngineStats stats;
  std::atomic<std::size_t> executions{0};
  batch.run(options, &stats, &executions);
  EXPECT_EQ(executions.load(), 3u);
  EXPECT_EQ(stats.memo_hits, 0u);
}

TEST(Engine, SharedMemoDedupsAcrossBatches) {
  FakeBatch batch;
  batch.payloads = {"x", "y", "z", "x"};
  ResultMemo memo;
  EngineOptions options;
  options.threads = 2;
  options.memo = &memo;

  EngineStats first;
  std::atomic<std::size_t> executions{0};
  const std::string out_first = batch.run(options, &first, &executions);
  EXPECT_EQ(executions.load(), 3u);
  EXPECT_EQ(first.memo_hits, 1u);  // the within-batch duplicate "x"

  // Identical batch again: everything is answered from the memo.
  EngineStats second;
  const std::string out_second = batch.run(options, &second, &executions);
  EXPECT_EQ(executions.load(), 3u);  // nothing new ran
  EXPECT_EQ(second.memo_hits, 4u);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(out_second, out_first);
}

TEST(Engine, KeylessJobsAlwaysExecuteAndNeverEnterTheMemo) {
  ResultMemo memo;
  std::atomic<std::size_t> executions{0};
  const auto run_once = [&] {
    std::ostringstream out;
    OrderedWriter writer(out, 2);
    EngineOptions options;
    options.threads = 1;
    options.memo = &memo;
    std::vector<Job> jobs(2);  // both keyless
    run_batch(
        jobs,
        [&](std::size_t i) {
          executions.fetch_add(1);
          return "r" + std::to_string(i);
        },
        writer, options);
    return out.str();
  };
  EXPECT_EQ(run_once(), "r0\nr1\n");
  EXPECT_EQ(run_once(), "r0\nr1\n");
  EXPECT_EQ(executions.load(), 4u);
  EXPECT_EQ(memo.stats().entries, 0u);
}

TEST(Engine, TimingsAndMakespanArePopulated) {
  FakeBatch batch;
  batch.payloads = {"a", "b", "c"};
  EngineOptions options;
  options.threads = 2;
  EngineStats stats;
  batch.run(options, &stats);
  ASSERT_EQ(stats.timings.size(), 3u);
  EXPECT_GE(stats.makespan_seconds, 0.0);
  for (const JobTiming& timing : stats.timings) {
    EXPECT_GE(timing.wall_seconds, 0.0);
    EXPECT_GE(timing.cpu_seconds, 0.0);
    // Completion offsets share the makespan's execution-window origin,
    // so no job can complete after the window closes.
    EXPECT_GE(timing.done_seconds, 0.0);
    EXPECT_LE(timing.done_seconds, stats.makespan_seconds);
  }
}

TEST(Engine, ReportsTheWriterHighWaterMark) {
  // 1 thread + ljf + ascending costs: execution order is exactly the
  // reverse of input order, so records 2 and 1 must buffer until 0
  // lands — a deterministic out-of-order completion.
  FakeBatch batch;
  batch.payloads = {"a", "bb", "ccc"};  // cost = length
  EngineOptions options;
  options.threads = 1;
  options.policy = SchedulePolicy::kLjf;
  EngineStats stats;
  batch.run(options, &stats);
  EXPECT_EQ(stats.max_buffered, 2u);

  // Fifo on 1 thread completes in input order: nothing ever buffers.
  options.policy = SchedulePolicy::kFifo;
  batch.run(options, &stats);
  EXPECT_EQ(stats.max_buffered, 0u);
}

TEST(Engine, ExecuteExceptionPropagates) {
  std::ostringstream out;
  OrderedWriter writer(out, 2);
  std::vector<Job> jobs(2);
  EngineOptions options;
  options.threads = 2;
  EXPECT_THROW(
      run_batch(
          jobs,
          [&](std::size_t i) -> std::string {
            if (i == 1) throw NumericalError("solver blew up");
            return "ok";
          },
          writer, options),
      NumericalError);
}

TEST(Engine, EmptyBatchIsANoOp) {
  std::ostringstream out;
  OrderedWriter writer(out, 0);
  const EngineStats stats = run_batch(
      {}, [](std::size_t) { return std::string{}; }, writer);
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(out.str(), "");
}

}  // namespace
}  // namespace thermo::dispatch

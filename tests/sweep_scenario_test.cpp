// sweep::for_each_in_order, the one parallel executor: every item runs
// exactly once, one worker runs inline in the given order, index-placed
// results come back in index order, an exception propagates at any thread
// count and the first one surfaces only after every worker has joined, an
// empty order is a no-op, and threads = 0 still starts at least one thread.
#include "sweep/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace thermo::sweep {
namespace {

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(ForEachInOrder, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1, 2, 4, 8}) {
    std::vector<std::size_t> order = iota(500);
    std::reverse(order.begin(), order.end());
    std::vector<std::atomic<int>> calls(order.size());
    for_each_in_order(order, threads, [&](std::size_t i) { ++calls[i]; });
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "index " << i << ", " << threads
                                    << " threads";
    }
  }
}

TEST(ForEachInOrder, OneThreadRunsInlineInTheGivenOrder) {
  const std::vector<std::size_t> order = {3, 1, 4, 0, 2};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  bool inline_only = true;
  for_each_in_order(order, 1, [&](std::size_t i) {
    inline_only = inline_only && std::this_thread::get_id() == caller;
    seen.push_back(i);
  });
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(seen, order);

  // A single item runs inline whatever the thread request.
  seen.clear();
  for_each_in_order(std::vector<std::size_t>{7}, 8, [&](std::size_t i) {
    inline_only = inline_only && std::this_thread::get_id() == caller;
    seen.push_back(i);
  });
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(seen, std::vector<std::size_t>{7});

  // Inline, an exception stops the loop at the throwing item.
  seen.clear();
  EXPECT_THROW(for_each_in_order(order, 1,
                                 [&](std::size_t i) {
                                   if (i == 4) throw std::runtime_error("x");
                                   seen.push_back(i);
                                 }),
               std::runtime_error);
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 1}));
}

TEST(ForEachInOrder, ResultsPlacedByIndexComeBackInIndexOrder) {
  // The callers' pattern: each item writes its own slot, so the output
  // is in index order whatever order the workers finish in.
  std::vector<std::size_t> order = iota(100);
  std::reverse(order.begin(), order.end());
  std::vector<std::size_t> squares(order.size());
  for_each_in_order(order, 4, [&](std::size_t i) { squares[i] = i * i; });
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ForEachInOrder, ExceptionPropagatesAtEveryThreadCount) {
  for (const std::size_t threads : {0, 1, 2, 8}) {
    EXPECT_THROW(for_each_in_order(iota(8), threads,
                                   [](std::size_t i) {
                                     if (i == 5) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error)
        << threads << " threads";
  }
}

TEST(ForEachInOrder, FirstExceptionIsRethrownAfterEveryWorkerJoins) {
  constexpr std::size_t kItems = 64;
  std::atomic<int> in_flight{0};
  std::atomic<std::size_t> completed{0};
  try {
    for_each_in_order(iota(kItems), 4, [&](std::size_t i) {
      ++in_flight;
      if (i == 5) {
        --in_flight;
        throw std::runtime_error("item 5 failed");
      }
      // Slow enough that an early rethrow would catch workers mid-item.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++completed;
      --in_flight;
    });
    FAIL() << "expected the item-5 exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 5 failed");
  }
  // Only the throwing worker stopped: the others drained every other
  // item, and none was still running when the exception surfaced.
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_EQ(completed.load(), kItems - 1);
}

TEST(ForEachInOrder, EmptyOrderDoesNothing) {
  for (const std::size_t threads : {0, 1, 4}) {
    bool called = false;
    for_each_in_order({}, threads, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called) << threads << " threads";
    EXPECT_EQ(worker_count(threads, 0), 0u);
  }
}

TEST(ForEachInOrder, ZeroThreadsUsesAtLeastOneThread) {
  EXPECT_GE(worker_count(0, 1000), 1u);
  EXPECT_EQ(worker_count(0, 1), 1u);
  EXPECT_EQ(worker_count(3, 1000), 3u);
  EXPECT_EQ(worker_count(8, 2), 2u);  // capped by the item count
  std::atomic<std::size_t> calls{0};
  for_each_in_order(iota(100), 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100u);
}

TEST(ForEachInOrder, RecordsTaskMetricsOncePerWorker) {
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& tasks = registry.counter("sweep.tasks");
  obs::Counter& busy = registry.counter("sweep.worker.2.busy_ns");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t tasks_before = tasks.value();
  const std::uint64_t busy_before = busy.value();
  for_each_in_order(iota(40), 3, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  const std::uint64_t threaded_tasks = tasks.value() - tasks_before;
  const std::uint64_t busy_added = busy.value() - busy_before;
  // Inline runs start no worker and record nothing.
  for_each_in_order(iota(40), 1, [](std::size_t) {});
  const std::uint64_t inline_tasks =
      tasks.value() - tasks_before - threaded_tasks;
  obs::set_enabled(was_enabled);
  EXPECT_EQ(threaded_tasks, 3u);
  EXPECT_GT(busy_added, 0u);
  EXPECT_EQ(inline_tasks, 0u);
}

}  // namespace
}  // namespace thermo::sweep

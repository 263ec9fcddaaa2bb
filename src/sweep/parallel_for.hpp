// for_each_in_order: the one parallel executor of the code base.
//
// Runs fn(order[k]) for every position k on min(threads, n)
// std::threads. Each thread pulls the next k from one shared atomic
// cursor, so items START in the given order — a freed thread always
// takes the earliest unclaimed position — and finish in whatever order
// their costs dictate; claiming an item costs one fetch_add.
//
// Callers:
//  * dispatch::run_batch — order = the scheduled jobs in input order
//    (fifo) or stable-sorted by descending estimated cost (ljf), so a
//    freed worker always takes the most expensive remaining job;
//  * core::sweep_stcl and examples/tam_exploration — index order.
//
// Determinism is the caller's half of the contract: every caller writes
// its result into a slot per index, so its output is identical for 1
// and N threads (pinned by tests/sweep_scenario_test.cpp,
// StclSweepTest.MatchesDirectSchedulerRunsForAnyThreadCount and the
// serve smokes). Only completion ORDER varies.
//
// Metrics (docs/OBSERVABILITY.md): each started thread records one
// `sweep.task` span, one `sweep.tasks` count, one `sweep.task_ns`
// sample and its `sweep.worker.<i>.busy_ns` — the wall time it spent
// draining the cursor. Inline runs record none of them.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

namespace thermo::sweep {

/// Threads for_each_in_order starts for `n` items: `threads` (0 picks
/// std::thread::hardware_concurrency, at least 1) capped at n.
std::size_t worker_count(std::size_t threads, std::size_t n);

/// Invokes fn(order[k]) once for every k, starting positions in order.
/// With one worker (threads == 1, or a single item) it runs inline on
/// the calling thread; n == 0 does nothing. fn must be safe to call
/// concurrently with itself for distinct items. If fn throws, that
/// thread stops and the others drain the rest; after every thread has
/// joined, the first exception is rethrown here.
void for_each_in_order(std::span<const std::size_t> order, std::size_t threads,
                       const std::function<void(std::size_t)>& fn);

}  // namespace thermo::sweep

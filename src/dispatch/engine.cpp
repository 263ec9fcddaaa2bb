#include "dispatch/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <functional>
#include <numeric>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/parallel_for.hpp"
#include "util/error.hpp"

namespace thermo::dispatch {

namespace {

/// CPU seconds consumed by the calling thread; 0.0 where no per-thread
/// clock exists. Process-wide clocks would charge one job for its
/// neighbours' work, so they are not used as a fallback.
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

/// Engine metrics, resolved once per process (the registry hands out
/// stable references; docs/OBSERVABILITY.md catalogues the names).
struct EngineMetrics {
  obs::Counter& batches;
  obs::Counter& jobs;
  obs::Counter& executed;
  obs::Counter& memo_hits;
  obs::Histogram& queue_wait_ns;
  obs::Histogram& exec_ns;
  obs::Histogram& policy_sort_ns;
};

EngineMetrics& engine_metrics() {
  auto& registry = obs::MetricsRegistry::instance();
  static EngineMetrics metrics{registry.counter("dispatch.batches"),
                               registry.counter("dispatch.jobs"),
                               registry.counter("dispatch.executed"),
                               registry.counter("dispatch.memo_hits"),
                               registry.histogram("dispatch.queue_wait_ns"),
                               registry.histogram("dispatch.exec_ns"),
                               registry.histogram("dispatch.policy_sort_ns")};
  return metrics;
}

std::uint64_t to_ns(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

}  // namespace

const char* schedule_policy_name(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo: return "fifo";
    case SchedulePolicy::kLjf: return "ljf";
  }
  return "?";
}

std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name) {
  if (name == "fifo") return SchedulePolicy::kFifo;
  if (name == "ljf") return SchedulePolicy::kLjf;
  return std::nullopt;
}

void sort_for_policy(std::vector<std::size_t>& order,
                     const std::vector<double>& costs, SchedulePolicy policy) {
  if (policy != SchedulePolicy::kLjf) return;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
}

double virtual_makespan(const std::vector<double>& costs,
                        const std::vector<std::size_t>& order,
                        std::size_t threads) {
  if (order.empty()) return 0.0;
  // Min-heap of the times the workers fall free.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (std::size_t w = 0; w < sweep::worker_count(threads, order.size()); ++w) {
    free_at.push(0.0);
  }
  double makespan = 0.0;
  for (const std::size_t job : order) {
    const double done = free_at.top() + costs[job];
    free_at.pop();
    free_at.push(done);
    makespan = std::max(makespan, done);
  }
  return makespan;
}

bool beats_input_order(const std::vector<double>& costs,
                       const std::vector<std::size_t>& order,
                       std::size_t threads) {
  std::vector<std::size_t> input(costs.size());
  std::iota(input.begin(), input.end(), std::size_t{0});
  return virtual_makespan(costs, order, threads) <
         virtual_makespan(costs, input, threads);
}

EngineStats run_batch(const std::vector<Job>& jobs,
                      const std::function<std::string(std::size_t)>& execute,
                      OrderedWriter& writer, const EngineOptions& options) {
  const std::size_t n = jobs.size();
  for (const Job& job : jobs) {
    THERMO_REQUIRE(std::isfinite(job.cost) && job.cost >= 0.0,
                   "run_batch: job cost must be finite and >= 0");
  }
  EngineStats stats;
  stats.jobs = n;
  stats.timings.resize(n);
  EngineMetrics& metrics = engine_metrics();
  obs::TraceSpan batch_span("dispatch.batch");

  // Dedup planning runs on the calling thread, before any worker
  // starts: which jobs execute, which are answered from the memo, and
  // which duplicate a leader is a pure function of the batch content —
  // never of worker timing — so hit counts are deterministic.
  ResultMemo local_memo;
  ResultMemo* memo = options.memo != nullptr ? options.memo : &local_memo;
  std::vector<std::vector<std::size_t>> duplicates(n);
  std::vector<std::size_t> scheduled;
  scheduled.reserve(n);
  if (options.dedup) {
    std::unordered_map<std::string_view, std::size_t> leader_by_key;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& key = jobs[i].memo_key;
      if (key.empty()) {
        scheduled.push_back(i);
        continue;
      }
      if (auto cached = memo->find(key)) {
        // Known from a previous batch: stream it out right away.
        stats.timings[i].memo_hit = true;
        ++stats.memo_hits;
        writer.push(i, std::move(*cached));
        continue;
      }
      const auto [it, inserted] = leader_by_key.emplace(key, i);
      if (inserted) {
        scheduled.push_back(i);
      } else {
        // Within-batch duplicate: ride on the leader's execution.
        duplicates[it->second].push_back(i);
        stats.timings[i].memo_hit = true;
        ++stats.memo_hits;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) scheduled.push_back(i);
  }

  if (options.policy == SchedulePolicy::kLjf) {
    obs::TraceSpan sort_span("dispatch.policy_sort");
    obs::ScopedTimer sort_timer(metrics.policy_sort_ns);
    std::vector<double> costs(n);
    for (std::size_t i = 0; i < n; ++i) costs[i] = jobs[i].cost;
    sort_for_policy(scheduled, costs, options.policy);
  }

  // Execution-window origin: done_seconds and the makespan share this
  // timepoint, so a serve deadline means "within deadline seconds of
  // the first possible execution start". Declared before run_one so
  // the lambda can capture it; assigned right before workers start.
  std::chrono::steady_clock::time_point exec_start;
  const auto run_one = [&](std::size_t i) {
    const auto wall_start = std::chrono::steady_clock::now();
    const double cpu_start = thread_cpu_seconds();
    std::string record;
    {
      obs::TraceSpan exec_span("dispatch.exec");
      record = execute(i);
    }
    const auto done = std::chrono::steady_clock::now();
    stats.timings[i].cpu_seconds = thread_cpu_seconds() - cpu_start;
    stats.timings[i].wall_seconds =
        std::chrono::duration<double>(done - wall_start).count();
    // Queue wait shares done_seconds' clock origin: how long placement
    // (plus worker contention) held this job back.
    stats.timings[i].wait_seconds =
        std::chrono::duration<double>(wall_start - exec_start).count();
    metrics.queue_wait_ns.record(to_ns(wall_start - exec_start));
    metrics.exec_ns.record(to_ns(done - wall_start));
    const double done_seconds =
        std::chrono::duration<double>(done - exec_start).count();
    stats.timings[i].done_seconds = done_seconds;
    if (options.dedup && !jobs[i].memo_key.empty()) {
      memo->insert(jobs[i].memo_key, record);
    }
    for (const std::size_t dup : duplicates[i]) {
      // A duplicate's record exists exactly when its leader's does.
      stats.timings[dup].done_seconds = done_seconds;
      writer.push(dup, record);
    }
    writer.push(i, std::move(record));
  };

  stats.threads = sweep::worker_count(options.threads, scheduled.size());
  exec_start = std::chrono::steady_clock::now();
  // Rethrows the first execute exception, if any, once every worker
  // has joined.
  sweep::for_each_in_order(scheduled, options.threads, run_one);
  stats.makespan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    exec_start)
          .count();
  stats.executed = scheduled.size();
  stats.max_buffered = writer.max_buffered();
  writer.finish();
  metrics.batches.add();
  metrics.jobs.add(n);
  metrics.executed.add(stats.executed);
  metrics.memo_hits.add(stats.memo_hits);
  return stats;
}

}  // namespace thermo::dispatch

#include "sweep/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace thermo::sweep {

std::size_t worker_count(std::size_t threads, std::size_t n) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(threads, n);
}

void for_each_in_order(std::span<const std::size_t> order, std::size_t threads,
                       const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = worker_count(threads, order.size());
  if (workers <= 1) {
    for (const std::size_t item : order) fn(item);
    return;
  }

  // Metrics are resolved here, not in the workers, so nothing in a
  // worker's entry function can throw outside its catch. The per-worker
  // busy counter makes load imbalance visible by name.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Counter& tasks = registry.counter("sweep.tasks");
  obs::Histogram& task_ns = registry.histogram("sweep.task_ns");
  std::vector<obs::Counter*> busy_ns(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    busy_ns[w] = &registry.counter("sweep.worker." + std::to_string(w) +
                                   ".busy_ns");
  }
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto record_error = [&] {
    const std::scoped_lock lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };
  const auto drain = [&](std::size_t worker) {
    const bool timed = obs::enabled();
    const std::uint64_t start = timed ? obs::now_ns() : 0;
    try {
      obs::TraceSpan span("sweep.task");
      for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
           k < order.size();
           k = cursor.fetch_add(1, std::memory_order_relaxed)) {
        fn(order[k]);
      }
    } catch (...) {
      record_error();
    }
    if (timed) {
      const std::uint64_t elapsed = obs::now_ns() - start;
      tasks.add();
      task_ns.record(elapsed);
      busy_ns[worker]->add(elapsed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain, w);
  } catch (...) {
    record_error();  // a failed spawn: the threads already running drain
  }
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace thermo::sweep

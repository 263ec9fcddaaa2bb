// The dispatch engine: cost-aware batch execution with result
// memoization and streaming ordered output.
//
// This is the layer between a batch front-end (scenario::serve_stream)
// and the parallel loop (sweep::for_each_in_order): the front-end
// describes each job as {content address, estimated cost} plus a pure
// execute function, and the engine owns *how* the batch runs —
//
//   placement   the policy orders execution starts: fifo = input order,
//               ljf = longest-job-first by estimated cost;
//   dedup       jobs sharing a content address execute once: a prior
//               batch's record is served from the ResultMemo, and
//               within-batch duplicates are grouped behind one leader
//               (deterministically, on the calling thread, so hit
//               counts do not depend on worker timing);
//   streaming   every record goes to the OrderedWriter the moment it
//               exists, emitted in input order as soon as its index is
//               next;
//   timing      per-job wall + thread-CPU seconds and the batch
//               makespan, for the serve summary and bench_dispatch.
//
// Hard invariant (pinned by tests + smoke + bench): because execute is
// pure per job and records are placed by input index, the output bytes
// are identical across thread counts, policies, and dedup on/off —
// policies and memoization may only change *when* work runs, never what
// is written.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dispatch/ordered_writer.hpp"
#include "dispatch/result_memo.hpp"

namespace thermo::dispatch {

/// Execution-start order of a batch's scheduled jobs.
///
/// serve-style batches are skewed — ROADMAP measured one 1034-node
/// sparse request at ~100x an Alpha request — so which job a freed
/// worker picks next can decide the batch makespan:
///
///  * fifo — input order, the historical serve behaviour: predictable,
///           but a whale request near the end of the batch starts after
///           all the small fry and sets the makespan almost by accident.
///  * ljf  — longest-job-first by estimated cost, the classic LPT
///           heuristic for makespan on identical machines (Graham): the
///           whale starts first, small jobs backfill the other workers.
///           A stable sort, so equal costs keep ascending input index
///           and the order is a pure function of the batch.
///
/// The policy reorders execution *starts* only; records are placed by
/// input index (OrderedWriter), so output bytes never depend on it.
enum class SchedulePolicy {
  kFifo,  ///< input order (historical serve behaviour)
  kLjf    ///< longest-job-first by estimated cost
};

/// Canonical spelling used in CLI/JSON ("fifo", "ljf").
const char* schedule_policy_name(SchedulePolicy policy);

/// Inverse of schedule_policy_name; nullopt for anything else. Callers
/// (the serve flag, bench) own their error reporting.
std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name);

/// Puts `order` (job indices into `costs`) into `policy`'s execution
/// start order: fifo leaves it as given; ljf stable-sorts it by
/// descending cost, so equal costs keep their relative order and the
/// result is a pure function of the inputs. run_batch orders its
/// scheduled jobs with exactly this.
void sort_for_policy(std::vector<std::size_t>& order,
                     const std::vector<double>& costs, SchedulePolicy policy);

/// Makespan of starting `order` on `threads` identical workers (0 =
/// hardware concurrency, capped at the job count) when job i takes
/// costs[i] time units and each freed worker takes the next job in
/// order — the greedy list schedule sweep::for_each_in_order follows,
/// played on a virtual clock. Deterministic, unlike a timed makespan.
double virtual_makespan(const std::vector<double>& costs,
                        const std::vector<std::size_t>& order,
                        std::size_t threads);

/// bench_dispatch's placement gate: true when starting `order` ends
/// strictly before input order on the virtual clock. ljf's order passes
/// on a whale-last batch; a broken ljf that keeps input order fails.
bool beats_input_order(const std::vector<double>& costs,
                       const std::vector<std::size_t>& order,
                       std::size_t threads);

/// One unit of batch work, as the front-end describes it. The engine
/// never inspects record contents; everything it needs is here.
struct Job {
  /// Content address: the canonical serialization of whatever the job
  /// computes from — identical bytes MUST imply an identical record.
  /// Empty = not memoizable (always executes, never enters the memo);
  /// front-ends use that for records that depend on batch position,
  /// e.g. parse failures carrying a line number.
  std::string memo_key;
  /// Estimated execution cost (CostModel units; finite, >= 0); only
  /// its ordering matters, and only under ljf.
  double cost = 0.0;
};

struct JobTiming {
  double wall_seconds = 0.0;  ///< 0 for memoized jobs
  double cpu_seconds = 0.0;   ///< executing thread's CPU time (0 where
                              ///< the platform offers no thread clock)
  /// Queue wait: execution-window start to this job's execution start,
  /// in the same steady clock as done_seconds (0 for memo hits — they
  /// never queue). What the scheduling policy actually controls.
  double wait_seconds = 0.0;
  /// Completion offset from the start of the execution window: when
  /// this job's record existed — the clock serve scores request
  /// deadlines against. 0 for planning-time memo hits (their record
  /// exists before any worker starts); within-batch duplicates inherit
  /// their leader's completion.
  double done_seconds = 0.0;
  bool memo_hit = false;      ///< record served without executing
};

struct EngineStats {
  std::size_t jobs = 0;       ///< batch size
  std::size_t executed = 0;   ///< jobs that actually ran
  std::size_t memo_hits = 0;  ///< cross-batch memo hits + grouped dups
  /// Workers that actually executed: the configured (or hardware)
  /// count capped by the number of scheduled jobs — 0 when everything
  /// was answered from the memo.
  std::size_t threads = 0;
  double makespan_seconds = 0.0;  ///< execution window (pops to last completion)
  std::size_t max_buffered = 0;   ///< writer high-water mark (skew cost)
  std::vector<JobTiming> timings; ///< index-aligned with the jobs
};

struct EngineOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency.
  std::size_t threads = 0;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// false disables ALL memoization (every job executes) — the output
  /// bytes must not change, only the work done.
  bool dedup = true;
  /// Memo to consult/populate (borrowed), enabling dedup across
  /// batches; nullptr uses a throwaway per-call memo (within-batch
  /// dedup only).
  ResultMemo* memo = nullptr;
};

/// Runs the batch: `execute(i)` must return job i's record and be safe
/// to call concurrently with itself for distinct i (it is called at
/// most once per job). Records stream to `writer` in index order;
/// `writer` must be constructed for exactly jobs.size() records and is
/// finish()ed before returning. Throws InvalidArgument when a job's cost
/// is negative or not finite. Exceptions escaping execute propagate
/// (first one wins) — front-ends that want per-job error records must
/// catch inside execute.
EngineStats run_batch(const std::vector<Job>& jobs,
                      const std::function<std::string(std::size_t)>& execute,
                      OrderedWriter& writer, const EngineOptions& options = {});

}  // namespace thermo::dispatch

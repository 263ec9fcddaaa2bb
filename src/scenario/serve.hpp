// The batch front-end behind `thermosched serve`: stream JSONL scenario
// requests (one JSON object per line) through a ScenarioRunner, executed
// by the dispatch engine (src/dispatch) — cost-aware placement, result
// memoization, streaming ordered output — and write one JSONL result
// record per request *in input order*.
//
// Contract (docs/SERVE.md):
//   * line i of the output answers line i of the input (blank lines are
//     skipped and produce no record);
//   * a malformed or invalid request line yields an `ok:false` record in
//     its slot — one bad request never aborts the batch;
//   * requests without an "id" are assigned "line-<input line number>";
//   * the output bytes are identical for any thread count, schedule
//     policy, and dedup setting (results are streamed in index order;
//     every record is a pure function of its request line — placement
//     and memoization change when work runs, never what is written).
// Wall-clock timing lives in the returned summary, NOT in the records —
// that is what keeps them reproducible. Per-request wall/CPU timings
// ride in the summary too (the `--summary-json` payload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dispatch/engine.hpp"
#include "scenario/runner.hpp"
#include "thermal/backend.hpp"
#include "util/json.hpp"

namespace thermo::dispatch {
class DiskResultMemo;
struct CostCalibrator;
}  // namespace thermo::dispatch

namespace thermo::scenario {

struct ServeOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency.
  std::size_t threads = 0;
  /// Batch-level solver backend applied to every request whose JSON did
  /// not name `solver.backend` itself (a request's explicit choice
  /// always wins) — what `thermosched serve --solver-backend` sets.
  thermal::SolverBackend default_backend = thermal::SolverBackend::kAuto;
  /// Execution-start order: kFifo = input order (historical behaviour),
  /// kLjf = longest-job-first by estimated cost — cuts makespan on
  /// skewed batches (bench_dispatch gates this). Output bytes do not
  /// depend on the choice.
  dispatch::SchedulePolicy policy = dispatch::SchedulePolicy::kFifo;
  /// Memoize result records by canonical request content so duplicate
  /// requests (within this batch, or across batches via `memo`) execute
  /// once. Off = every request executes; output bytes are unchanged.
  bool dedup = true;
  /// Cross-batch memo (borrowed); nullptr = a throwaway per-call memo,
  /// i.e. within-batch dedup only.
  dispatch::ResultMemo* memo = nullptr;
  /// Disk-backed memo (borrowed) — what `thermosched serve --cache-dir`
  /// wires in. When set it takes precedence over `memo` and results are
  /// durably cached across *processes*: a cold restart serving the same
  /// batch answers from disk instead of executing. Output bytes are
  /// unchanged (the cache changes when work runs, never what is
  /// written). Ignored when dedup is off — without content addressing
  /// there is nothing to key the cache by.
  dispatch::DiskResultMemo* disk_memo = nullptr;
  /// Read by nothing: kept only because the frozen repository benchmark
  /// (perfbench/src/main.cpp) still assigns it; goes with the
  /// benchmark's next revision (dispatch/calibrator.hpp).
  dispatch::CostCalibrator* calibrator = nullptr;
};

/// Per-request execution facts, index-aligned with the (non-blank)
/// input lines. Summary-only: none of this may appear in the JSONL
/// records, which must stay byte-deterministic.
struct RequestTiming {
  std::string id;             ///< resolved id ("line-<n>" when absent)
  bool ok = false;            ///< the record's ok flag
  bool memo_hit = false;      ///< served from the memo / a duplicate
  double cost = 0.0;          ///< CostModel estimate (relative units)
  double wall_seconds = 0.0;  ///< execution wall time (0 on memo hits)
  double cpu_seconds = 0.0;   ///< executing thread's CPU time
  /// Execution-window start to execution start (same steady clock as
  /// done_seconds; 0 on memo hits) — the part of a request's latency
  /// the scheduling policy controls.
  double queue_wait_seconds = 0.0;
  /// When this request's record existed, as an offset from the start of
  /// the execution window (0 for planning-time memo hits) — the clock
  /// deadline_s is scored against.
  double done_seconds = 0.0;
  double deadline_s = 0.0;    ///< the request's SLO deadline; 0 = none
  /// done_seconds <= deadline_s; true when the request has no deadline.
  bool deadline_met = true;
};

struct ServeSummary {
  std::size_t requests = 0;   ///< non-blank input lines
  std::size_t succeeded = 0;  ///< records with ok:true
  std::size_t failed = 0;     ///< parse failures + runner errors
  /// Workers that actually executed (configured — or hardware — count
  /// capped by the jobs scheduled; 0 when the whole batch was answered
  /// from the memo).
  std::size_t threads = 0;
  dispatch::SchedulePolicy policy = dispatch::SchedulePolicy::kFifo;
  bool dedup = true;
  double wall_seconds = 0.0;      ///< end-to-end batch time (parse + run)
  double makespan_seconds = 0.0;  ///< execution window only
  std::size_t executed = 0;       ///< requests that actually ran
  std::size_t memo_hits = 0;      ///< requests answered from the memo
  std::size_t max_buffered = 0;   ///< ordered-writer high-water mark
  bool disk_cache_enabled = false;   ///< a disk_memo served this batch
  std::size_t disk_hits = 0;         ///< memo finds answered from disk
  std::size_t disk_records = 0;      ///< records on disk after the batch
  std::size_t disk_segments = 0;     ///< segment files after the batch
  std::uint64_t disk_bytes = 0;      ///< segment bytes after the batch
  /// SLO scoreboard: requests that carried a deadline_s, split by
  /// whether their record existed within it (deadline-free requests are
  /// counted in neither bucket).
  std::size_t deadline_requests = 0;
  std::size_t deadline_met = 0;
  std::size_t deadline_missed = 0;
  std::vector<RequestTiming> request_timings;  ///< input order
  ScenarioRunner::Stats runner;  ///< model-cache hits/misses
};

/// Reads every line of `in`, processes the batch, writes the records to
/// `out` (one line each, input order, streamed as they complete). The
/// runner is borrowed so callers can serve several batches against one
/// warm model cache; pass options.memo to also share the result memo.
ServeSummary serve_stream(std::istream& in, std::ostream& out,
                          ScenarioRunner& runner,
                          const ServeOptions& options = {});

/// The `--summary-json` payload (schema "thermo.serve_summary.v2"):
/// batch counts, policy/dedup, makespan + tail latency, memo hit rate,
/// and the per-request timings. docs/SERVE.md documents every field.
JsonValue serve_summary_to_json(const ServeSummary& summary);

}  // namespace thermo::scenario

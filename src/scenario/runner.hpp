// ScenarioRunner: lowers parsed ScenarioRequests onto the scheduling
// stack (SoC construction -> shared RCModel -> ThermalAwareScheduler per
// STCL value) and renders machine-readable result records.
//
// Model sharing is the whole point of running scenarios through one
// runner instead of one process each: every request whose SocSelector
// has the same geometry_key() gets the *same* shared RCModel instance,
// and factors live in the model (thermal/solver_cache.hpp), so each
// distinct floorplan is factored once per batch no matter how many
// requests — or worker threads — reference it. A 100-request Alpha
// batch performs one Cholesky factorization, not 100.
//
// Thread safety: run() is safe to call concurrently (the model cache is
// mutex-guarded; each run builds private analyzers/schedulers), which is
// how serve_stream fans requests across the dispatch engine's workers.
// Per-request failures — bad .flp paths, scheduler throws — are captured
// in the result record (`ok:false` + the error message); run() itself
// only propagates non-thermo exceptions (e.g. bad_alloc).
//
// Determinism: a result record depends only on the request content,
// never on thread interleaving or cache state, so a batch's output is
// bit-identical for 1 and N threads (pinned by the serve smoke test,
// cmake/RunServeSmoke.cmake).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/soc_spec.hpp"
#include "core/stcl_sweep.hpp"
#include "scenario/request.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_model.hpp"

namespace thermo::scenario {

/// Result record for one request; serialized as one JSONL line by
/// to_json (schema in docs/SERVE.md). Points are the same
/// core::StclSweepPoint the `thermosched sweep` path produces — the
/// runner lowers onto core::sweep_stcl rather than reimplementing it.
/// kind == kPtrace: what the trace replay observed.
struct PtraceOutcome {
  std::size_t steps = 0;          ///< trace lines replayed
  double duration = 0.0;          ///< steps * step_duration [s]
  double max_temperature = 0.0;   ///< hottest block across all steps [deg C]
  std::string hottest;            ///< name of that block
};

/// kind == kChained: the schedule plus its chained re-validation.
struct ChainedOutcome {
  double stcl = 0.0;
  double schedule_length = 0.0;   ///< [s]
  std::size_t sessions = 0;
  double effective_tl = 0.0;      ///< after any raise-limit adjustment
  double cooling_gap = 0.0;       ///< [s]
  /// Hottest core under the paper's independent-session assumption (the
  /// scheduler's own oracle, every session starting from ambient)...
  double independent_max = 0.0;
  /// ...and under chained replay with residual heat carry-over. The gap
  /// between the two is the quantity this request kind measures.
  double chained_max = 0.0;
  std::size_t violations = 0;     ///< chained limit violations
  bool safe = true;               ///< no chained violation
};

/// kind == kGridSteady: the fine-grid steady-state solve.
struct GridOutcome {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t nodes = 0;              ///< rows*cols + 10 package nodes
  double max_cell_temperature = 0.0;  ///< hottest cell [deg C]
  double mean_cell_temperature = 0.0; ///< arithmetic mean over cells [deg C]
  double max_block_temperature = 0.0; ///< hottest block's covered-cell max
  std::string hottest;                ///< name of that block
};

struct ScenarioResult {
  std::string id;
  RequestKind kind = RequestKind::kStclSweep;
  bool ok = false;
  std::string error;     ///< set when !ok
  std::string soc_name;  ///< empty when the SoC could not be built
  std::size_t cores = 0;
  /// One point per STCL value, in request order (kind == kStclSweep).
  std::vector<core::StclSweepPoint> points;
  PtraceOutcome ptrace;    ///< kind == kPtrace
  ChainedOutcome chained;  ///< kind == kChained
  GridOutcome grid;        ///< kind == kGridSteady
  /// Total simulated seconds across all points — the paper's effort
  /// metric, and the deterministic "timing" field of the record (wall
  /// time would break 1-vs-N-thread reproducibility; serve reports it
  /// separately in its stderr summary).
  double simulation_effort = 0.0;
};

/// Serializes a result record (canonical member order, deterministic).
JsonValue to_json(const ScenarioResult& result);

class ScenarioRunner {
 public:
  ScenarioRunner() = default;

  /// Executes one request: builds (or reuses) the SoC's RCModel, runs
  /// Algorithm 1 once per STCL value, returns the filled record. Thermo
  /// errors land in the record instead of propagating.
  ScenarioResult run(const ScenarioRequest& request);

  /// Builds the SocSpec a selector describes (validated; power_scale
  /// applied). Throws on invalid selectors, e.g. unreadable .flp files.
  static core::SocSpec build_soc(const SocSelector& selector);

  /// The shared model for a selector's geometry, built on first use.
  /// `soc` must be the selector's build_soc result.
  std::shared_ptr<const thermal::RCModel> model_for(
      const SocSelector& selector, const core::SocSpec& soc);

  /// The shared grid model for (geometry, rows×cols), built on first
  /// use — same LRU discipline as model_for, so repeated grid_steady
  /// requests on one discretisation share one sparse factor.
  std::shared_ptr<const thermal::GridThermalModel> grid_model_for(
      const SocSelector& selector, const core::SocSpec& soc,
      const GridSpec& grid);

  struct Stats {
    std::size_t model_hits = 0;    ///< requests that reused a cached model
    std::size_t model_misses = 0;  ///< model builds (distinct geometries + re-builds after eviction)
  };
  Stats stats() const;

  /// Cached-model bound, and with it the bound on factor and
  /// unit-response memory, which the models own. The cache is capped so
  /// a long-lived runner fed ever-new geometries (synthetic seeds, .flp
  /// paths) cannot grow memory monotonically; the least recently used
  /// geometry is evicted (its factors are freed once no in-flight
  /// request still holds the model) and simply rebuilt if it returns.
  static constexpr std::size_t kMaxCachedModels = 64;

 private:
  template <typename Model>
  struct Cached {
    std::shared_ptr<const Model> model;
    std::uint64_t last_used = 0;  ///< LRU stamp (monotonic use counter)
  };
  template <typename Model>
  using ModelCache = std::map<std::string, Cached<Model>>;

  /// The one lookup / stamp / evict / build path behind model_for and
  /// grid_model_for: returns cache[key], counting a hit, or evicts the
  /// least recently used entry at kMaxCachedModels and stores build()'s
  /// model, counting a miss. build() runs under the mutex.
  template <typename Model, typename Build>
  std::shared_ptr<const Model> cached_model(ModelCache<Model>& cache,
                                            const std::string& key,
                                            Build&& build);

  mutable std::mutex mutex_;
  ModelCache<thermal::RCModel> models_;
  ModelCache<thermal::GridThermalModel> grids_;
  std::uint64_t use_counter_ = 0;
  Stats stats_;
};

}  // namespace thermo::scenario

// The benchmark's two workloads, each an offline batch of JSONL
// requests built from the workload seed alone. perfbench/README.md
// records why each exists and which layer it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/generator.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// serve worker threads the measured runs use.
  std::size_t threads = 1;
  /// The batch, one canonical request per line (no trailing newline).
  std::vector<std::string> lines;
  /// gen_mix only: what gen::generate_stream emitted for this seed —
  /// memo hits must equal gen_stats->duplicates.
  std::optional<thermo::gen::GenStats> gen_stats;
  /// table1 only: the grid points, by request id —
  /// checked against direct ThermalAwareScheduler::generate calls.
  struct Table1Point {
    double tl = 0.0;
    double stcl = 0.0;
    std::string id;
  };
  std::vector<Table1Point> table1_points;
};

/// Builds a workload's batch. Same (name, seed) → same bytes. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The batch as serve reads it: every line followed by '\n'.
std::string batch_text(const Workload& workload);

}  // namespace perfbench

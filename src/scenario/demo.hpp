// Deterministic demo batches for `thermosched serve`: a reproducible mix
// of scenario requests over every SoC kind, used by
// examples/make_requests (writes them as JSONL), the serve smoke test
// (cmake/RunServeSmoke.cmake) and the serve unit tests. One generator,
// so "the demo batch" means the same bytes everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scenario/request.hpp"

namespace thermo::scenario {

/// `count` requests, fully determined by (count, seed): a rotating mix
/// of Alpha / Fig.1 / synthetic SoCs, single STCL values and small STCL
/// ranges, varied TL and power corners. Most requests use the
/// steady-state oracle so large batches stay cheap; every tenth runs the
/// transient oracle for coverage.
std::vector<ScenarioRequest> demo_batch(std::size_t count,
                                        std::uint64_t seed = 20);

}  // namespace thermo::scenario

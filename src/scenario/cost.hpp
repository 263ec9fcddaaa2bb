// Request → cost features: the scenario side of the dispatch layer's
// CostModel. dispatch::CostFeatures is plain numbers on purpose; this
// is the one place that knows how to read them off a ScenarioRequest
// *without building the SoC* — estimation must cost microseconds, it
// runs once per request line before any scheduling starts.
//
// Everything is derived from request fields (plus, for files the
// request *names*, a cached line count — one read per distinct path per
// process, never per request):
//   * node/core counts: exact for the named SoCs (alpha = 15 cores,
//     fig1 = 7, + 10 package nodes — thermal::RCModel::kPackageNodes)
//     and for synthetic (cores field); a `.flp` request's block count is
//     read off the file itself (one non-comment line per block, cached
//     by path), falling back to a fixed moderate guess when the file is
//     unreadable — a wrong count only costs scheduling quality, never
//     correctness;
//   * backend: thermal::resolve_backend over the estimated node count,
//     exactly the resolution the solve will use;
//   * transient steps per oracle call: mean test length / dt (named
//     SoCs ship 1 s tests; synthetic carries its length range);
//   * STCL points: the span's expanded size;
//   * kind ptrace: the oracle-call count is exact — one transient call
//     per trace step (CostFeatures::oracle_calls);
//   * kind chained: a transient single-point run (the chained replay
//     dominates, whatever oracle generated the schedule).
#pragma once

#include "dispatch/cost_model.hpp"
#include "scenario/request.hpp"

namespace thermo::scenario {

/// Cost features of one request (see file comment for the estimates).
dispatch::CostFeatures request_cost_features(const ScenarioRequest& request);

/// CostModel().estimate(request_cost_features(request)) — the score
/// serve places ljf jobs by and gen's order patterns sort by.
double estimate_request_cost(const ScenarioRequest& request);

}  // namespace thermo::scenario

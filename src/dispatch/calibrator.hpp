// An empty CostCalibrator, kept only so the frozen repository benchmark
// (perfbench/src/main.cpp) still compiles: it constructs one and
// assigns it to scenario::ServeOptions::calibrator, which nothing
// reads. The cost model has fixed constants (dispatch/cost_model.hpp);
// this stub goes with the benchmark's next revision.
#pragma once

namespace thermo::dispatch {

struct CostCalibrator {};

}  // namespace thermo::dispatch

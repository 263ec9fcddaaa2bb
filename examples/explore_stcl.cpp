// Explore the STCL trade-off the paper exposes as a user knob
// (Section 5: "exploration of more efficient solutions at the expense of
// longer thermal simulation times through a user selectable parameter").
//
// For a fixed TL, sweeps STCL and prints schedule length, simulation
// effort and max temperature, so a test engineer can pick the knee.
//
// The STCL values are independent, so core::sweep_stcl fans them across
// threads: every per-STCL scheduler run gets its own
// ThermalAnalyzer (effort accounting is not thread-safe) but all of
// them share one RCModel, whose factorizations are computed once
// through the solver cache and back-substituted by every thread. The
// `thermosched sweep` subcommand is the CLI twin of this example.
//
//   ./explore_stcl [--tl 155] [--stcl-min 20] [--stcl-max 100] [--step 10]
//                  [--threads 0] [--csv]
#include <iostream>
#include <memory>

#include "core/stcl_sweep.hpp"
#include "soc/alpha.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace thermo;

  double tl = 155.0;
  double stcl_min = 20.0, stcl_max = 100.0, step = 10.0;
  long long threads = 0;
  bool csv = false;
  CliParser cli("explore_stcl", "Sweep STCL and report the trade-off");
  cli.add_double("tl", "Temperature limit TL [deg C]", &tl);
  cli.add_double("stcl-min", "Smallest STCL", &stcl_min);
  cli.add_double("stcl-max", "Largest STCL", &stcl_max);
  cli.add_double("step", "STCL increment", &step);
  cli.add_int("threads", "Worker threads, 0 = all cores", &threads);
  cli.add_flag("csv", "Emit CSV instead of an aligned table", &csv);
  std::vector<double> stcls;
  try {
    if (!cli.parse(argc, argv)) return 0;
    stcls = core::stcl_range(stcl_min, stcl_max, step);
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << cli.usage();
    return 1;
  }

  const core::SocSpec soc = soc::alpha_soc();
  const auto model =
      std::make_shared<const thermal::RCModel>(soc.flp, soc.package);

  core::StclSweepConfig config;
  config.threads = threads > 0 ? static_cast<std::size_t>(threads) : 0;
  config.scheduler.temperature_limit = tl;
  config.scheduler.model.stc_scale = soc::alpha_stc_scale();
  std::vector<core::StclSweepPoint> points;
  try {
    points = core::sweep_stcl(soc, model, stcls, config);
  } catch (const Error& e) {
    // E.g. a TL no solo core can meet (solo_policy defaults to kThrow).
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  Table table({"STCL", "length [s]", "effort [s]", "sessions", "max temp [C]",
               "discards"});
  for (const core::StclSweepPoint& point : points) {
    table.add_row({format_double(point.stcl, 0),
                   format_double(point.schedule_length, 1),
                   format_double(point.simulation_effort, 1),
                   std::to_string(point.sessions),
                   format_double(point.max_temperature, 2),
                   std::to_string(point.discarded_sessions)});
  }
  std::cout << "TL = " << tl << " C\n";
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

#include "workloads.hpp"

#include <stdexcept>
#include <utility>

#include "scenario/request.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using thermo::scenario::ScenarioRequest;
using thermo::scenario::SocKind;

// Batch sizes. Each is set so that one serve of the batch is long next
// to timer and thread start-up noise, and short enough that several
// measured serves fit in one run.
constexpr std::size_t kGenMixLines = 6000;
// gen_mix's content: the stream of ROADMAP's seed. The workload seed only
// orders it, so that every seed does the same work — drawn afresh per
// seed, the stream's heavy tail of 246- and 502-core requests moved the
// work by about a tenth between seeds.
constexpr std::uint64_t kGenMixStreamSeed = 7;

// Fisher–Yates with the repository's own RNG, so the order is the same
// on every standard library.
void shuffle(std::vector<std::string>& lines, std::uint64_t seed) {
  thermo::Rng rng(seed);
  for (std::size_t i = lines.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(i) - 1));
    std::swap(lines[i - 1], lines[j]);
  }
}

// thermosched gen --count kGenMixLines --seed kGenMixStreamSeed
// --dup 0.3, every other knob at its CLI default (Zipf 1.5, 70/15/15
// sweep/ptrace/chained), shuffled again by the workload seed, served at
// 2 threads: parallel, yet leaving half of a 4-CPU machine to the rest
// of the system.
Workload gen_mix() {
  thermo::gen::GenConfig config;
  config.seed = kGenMixStreamSeed;
  config.count = kGenMixLines;
  config.dup_rate = 0.3;
  thermo::gen::GeneratedStream stream = thermo::gen::generate_stream(config);
  Workload w;
  w.threads = 2;
  w.lines = std::move(stream.lines);
  w.gen_stats = stream.stats;
  return w;
}

// The paper's Table 1: TL 145..185 step 5 × STCL 20..100 step 10 on the
// Alpha SoC, one single-point stcl_sweep request per cell.
Workload table1(std::uint64_t seed) {
  Workload w;
  for (int tl = 145; tl <= 185; tl += 5) {
    for (int stcl = 20; stcl <= 100; stcl += 10) {
      ScenarioRequest r;
      r.id = "table1-s" + std::to_string(seed) + "-tl" + std::to_string(tl) +
             "-stcl" + std::to_string(stcl);
      r.soc.kind = SocKind::kAlpha;
      r.tl = tl;
      r.stcl.min = r.stcl.max = stcl;
      w.lines.push_back(thermo::scenario::to_json_line(r));
      w.table1_points.push_back({r.tl, r.stcl.min, r.id});
    }
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "gen_mix") {
    w = gen_mix();
    shuffle(w.lines, seed);
  } else if (name == "table1") {
    w = table1(seed);
    shuffle(w.lines, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  return w;
}

std::string batch_text(const Workload& workload) {
  std::string text;
  for (const std::string& line : workload.lines) {
    text += line;
    text += '\n';
  }
  return text;
}

}  // namespace perfbench

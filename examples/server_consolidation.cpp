// server_consolidation — the paper's enterprise motivation (§1, §2.1):
// consolidate a rack's worth of heterogeneous jobs onto one multi-core box
// and let symbiotic scheduling decide who shares which core.
//
// Eight jobs land on a quad-core with a shared L2. We compare four
// placement policies end to end — OS default, miss-rate sorting (related
// work), weight sorting, and the weighted interference graph — by running
// the full two-phase pipeline for each and measuring total throughput and
// per-job slowdown versus an unloaded machine.
//
//   ./server_consolidation [--seed 7] [--scale 0.5]
#include <algorithm>
#include <cstdio>
#include <exception>

#include "core/online.hpp"
#include "machine/config.hpp"
#include "sched/policy.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run_cli(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("server_consolidation", "8 jobs on a quad-core, 4 policies compared");
  auto& seed = args.add_u64("seed", "RNG seed", 7);
  auto& scale = args.add_double("scale", "benchmark length multiplier", 0.5);
  if (!args.parse(argc, argv)) return 1;

  // The "rack": two cache hogs, two streamers, four service-like jobs.
  const std::vector<std::string> jobs = {"mcf",  "omnetpp", "libquantum", "hmmer",
                                         "gobmk", "perlbench", "sjeng",    "povray"};

  core::PipelineConfig config;
  config.machine = machine::quadcore_config();
  config.sync_scale();
  config.scale.length_scale = scale;
  config.seed = seed;
  config.measure_max_cycles = 4'000'000'000ull;

  // Unloaded baselines: each job alone on the quad-core, on the stream it
  // runs in the loaded machine.
  const std::vector<std::uint64_t> solo = core::solo_user_cycles(config, jobs);

  util::TextTable table({"policy", "placement", "wall (Mcyc)", "mean slowdown vs solo",
                         "worst slowdown"});
  for (const std::string policy : {"default", "miss-rate", "weight-sort", "weighted-graph"}) {
    core::PipelineConfig pc = config;
    pc.allocator = policy;
    sched::Allocation placement;
    if (policy == "default") {
      sched::DefaultAllocator def;
      std::vector<sched::TaskProfile> dummy(jobs.size());
      placement = def.allocate(dummy, 4);
    } else {
      core::SymbioticScheduler pipeline(pc);
      placement = pipeline.choose_allocation(jobs);
    }
    const core::MappingRun run = core::measure_mapping(pc, jobs, placement);

    double slowdown_sum = 0.0, worst = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double slowdown =
          static_cast<double>(run.user_cycles[i]) / static_cast<double>(solo[i]) - 1.0;
      slowdown_sum += slowdown;
      worst = std::max(worst, slowdown);
    }
    table.add_row({policy, placement.describe(jobs),
                   util::TextTable::fmt(static_cast<double>(run.wall_cycles) / 1e6, 0),
                   util::TextTable::pct(slowdown_sum / static_cast<double>(jobs.size())),
                   util::TextTable::pct(worst)});
  }
  table.print();
  std::printf(
      "\nLower slowdown = better consolidation. The signature-driven policies should\n"
      "herd the cache hogs onto shared cores and spread the benign jobs.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "server_consolidation: %s\n", e.what());
    return 1;
  }
}

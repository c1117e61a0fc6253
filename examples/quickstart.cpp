// quickstart — the whole pipeline on the paper's Table 1 mix.
//
// Runs phase 1 (signature gathering + majority-vote allocation) for the
// {povray, gobmk, libquantum, hmmer} mix on the Core-2-Duo-like machine,
// then measures ALL three possible process-to-core mappings to completion
// and prints the Table-1-style user-time matrix, the vote table, and the
// per-benchmark improvement of the chosen mapping over the worst.
//
//   ./quickstart [--allocator weighted-graph] [--seed 42] [--scale 1.0]
#include <cstdio>
#include <exception>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run_cli(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("quickstart", "two-phase symbiotic scheduling on the Table 1 mix");
  auto& allocator = args.add_string("allocator",
                                    "default|random|miss-rate|weight-sort|graph|weighted-graph",
                                    "weighted-graph");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  auto& scale = args.add_double("scale", "benchmark length multiplier", 1.0);
  if (!args.parse(argc, argv)) return 1;

  std::vector<std::string> mix = {"povray", "gobmk", "libquantum", "hmmer"};
  if (!args.positional().empty()) {
    if (args.positional().size() != 4) {
      std::fprintf(stderr, "quickstart: give exactly 4 benchmark names (or none)\n");
      return 1;
    }
    mix = args.positional();
  }

  core::PipelineConfig config;
  config.sync_scale();
  config.allocator = allocator;
  config.seed = seed;
  config.scale.length_scale = scale;

  std::printf("mix: %s %s %s %s on 2 cores / shared L2\n", mix[0].c_str(), mix[1].c_str(),
              mix[2].c_str(), mix[3].c_str());
  std::printf("allocator: %s\n\n", config.allocator.c_str());

  const core::MixOutcome outcome = core::run_experiment_cells({{config, mix}}).front();

  // Table 1 analogue: user time (megacycles) per benchmark per mapping.
  util::TextTable table;
  std::vector<std::string> header = {"benchmark"};
  for (const auto& run : outcome.mappings) header.push_back(run.allocation.describe(mix));
  table.set_header(header);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::vector<std::string> row = {mix[i]};
    for (const auto& run : outcome.mappings) {
      row.push_back(util::TextTable::fmt(static_cast<double>(run.user_cycles[i]) / 1e6, 1));
    }
    table.add_row(row);
  }
  std::printf("user time per mapping (megacycles):\n");
  table.print();

  std::printf("\nphase-1 votes:\n");
  for (const auto& [key, count] : outcome.votes) {
    std::printf("  mapping %-12s : %d vote(s)\n", key.c_str(), count);
  }
  std::printf("chosen mapping: %s\n\n",
              outcome.mappings[outcome.chosen].allocation.describe(mix).c_str());

  util::TextTable improvements({"benchmark", "chosen vs worst", "oracle vs worst"});
  for (std::size_t i = 0; i < mix.size(); ++i) {
    improvements.add_row({mix[i], util::TextTable::pct(outcome.improvement_vs_worst(i)),
                          util::TextTable::pct(outcome.oracle_improvement(i))});
  }
  std::printf("improvements:\n");
  improvements.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
}

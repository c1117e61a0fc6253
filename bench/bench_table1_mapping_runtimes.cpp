// Table 1 — user runtimes of the {povray, gobmk, libquantum, hmmer} mix
// under all three process-to-core mappings, plus the mapping the two-phase
// pipeline picks (the paper's emulation chose AD & BC and libquantum gained
// 11% over its worst mapping).
#include <cstdio>

#include "bench_common.hpp"
#include "util/threadpool.hpp"

int main() {
  using namespace symbiosis;
  std::printf("=== Table 1: user time per mapping, povray/gobmk/libquantum/hmmer ===\n\n");

  const core::PipelineConfig config = bench::default_pipeline();
  const std::vector<std::string> mix = {"povray", "gobmk", "libquantum", "hmmer"};
  util::ThreadPool workers;
  const core::MixOutcome outcome = core::run_experiment_cells({{config, mix}}, &workers).front();

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
  std::printf("user time (megacycles):\n");
  table.print();

  std::printf("\nphase-1 majority pick: %s\n",
              outcome.mappings[outcome.chosen].allocation.describe(mix).c_str());
  util::TextTable improvements({"benchmark", "chosen vs worst", "oracle vs worst"});
  for (std::size_t i = 0; i < mix.size(); ++i) {
    improvements.add_row({mix[i], util::TextTable::pct(outcome.improvement_vs_worst(i)),
                          util::TextTable::pct(outcome.oracle_improvement(i))});
  }
  improvements.print();
  std::printf(
      "\nExpected shape (paper): gobmk and libquantum benefit from the chosen schedule\n"
      "(libquantum ~11%%); povray and hmmer are indifferent to the mapping.\n");
  return 0;
}

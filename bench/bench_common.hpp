// bench_common.hpp — shared plumbing for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/table.hpp"

namespace symbiosis::bench {

/// The default reproduction pipeline (Core-2-Duo-like machine, weighted
/// interference graph, paper-ratio OS parameters).
[[nodiscard]] inline core::PipelineConfig default_pipeline(std::uint64_t seed = 42) {
  core::PipelineConfig config;
  config.sync_scale();
  config.seed = seed;
  config.measure_max_cycles = 4'000'000'000ull;  // safety net only
  return config;
}

/// Measure every balanced 2-core mapping of each mix once under @p base.
/// Variants that differ only in phase 1 (allocator, hash, period) share
/// these runtimes and are charged through charge_vote().
[[nodiscard]] inline std::vector<core::MixOutcome> measure_every_mapping(
    const core::PipelineConfig& base, const std::vector<std::vector<std::string>>& mixes) {
  std::vector<core::MixOutcome> measured(mixes.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    measured[i].mix = mixes[i];
    for (const auto& alloc : sched::enumerate_balanced_allocations(mixes[i].size(), 2)) {
      measured[i].mappings.push_back(core::measure_mapping(base, mixes[i], alloc));
    }
  }
  return measured;
}

/// Mean improvement over the worst mapping, across the mix's benchmarks.
[[nodiscard]] inline double mean_improvement(const core::MixOutcome& outcome) {
  double sum = 0.0;
  for (std::size_t i = 0; i < outcome.mix.size(); ++i) sum += outcome.improvement_vs_worst(i);
  return sum / static_cast<double>(outcome.mix.size());
}

/// Run phase 1 of @p config on @p measured's mix and charge the variant the
/// measured runtime of the mapping it voted for (mapping 0 when the vote is
/// not among the measured ones): its mean improvement over the worst.
[[nodiscard]] inline double charge_vote(const core::PipelineConfig& config,
                                        core::MixOutcome measured) {
  core::SymbioticScheduler pipeline(config);
  const sched::Allocation chosen = pipeline.choose_allocation(measured.mix);
  measured.chosen = 0;
  for (std::size_t k = 0; k < measured.mappings.size(); ++k) {
    if (measured.mappings[k].allocation == chosen) measured.chosen = k;
  }
  return mean_improvement(measured);
}

/// Print a Fig 10/11/12-style per-benchmark improvement table.
inline void print_improvements(const std::string& title,
                               const std::vector<core::BenchmarkImprovement>& summary) {
  std::printf("%s\n", title.c_str());
  util::TextTable table({"benchmark", "max improvement", "avg improvement", "mixes",
                         "(oracle max)", "(oracle avg)"});
  double max_of_max = 0.0, sum = 0.0, oracle_sum = 0.0;
  int total = 0;
  for (const auto& row : summary) {
    table.add_row({row.name, util::TextTable::pct(row.max_improvement),
                   util::TextTable::pct(row.avg_improvement()), std::to_string(row.mixes),
                   util::TextTable::pct(row.max_oracle),
                   util::TextTable::pct(row.avg_oracle())});
    max_of_max = std::max(max_of_max, row.max_improvement);
    sum += row.sum_improvement;
    oracle_sum += row.sum_oracle;
    total += row.mixes;
  }
  table.print();
  std::printf("overall: max %s, avg %s (oracle avg %s) across %d benchmark-in-mix samples\n\n",
              util::TextTable::pct(max_of_max).c_str(),
              util::TextTable::pct(total ? sum / total : 0.0).c_str(),
              util::TextTable::pct(total ? oracle_sum / total : 0.0).c_str(), total);
}

}  // namespace symbiosis::bench

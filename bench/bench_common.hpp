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

/// Mean improvement over the worst mapping, across the mix's benchmarks.
[[nodiscard]] inline double mean_improvement(const core::MixOutcome& outcome) {
  double sum = 0.0;
  for (std::size_t i = 0; i < outcome.mix.size(); ++i) sum += outcome.improvement_vs_worst(i);
  return sum / static_cast<double>(outcome.mix.size());
}

/// Every balanced mapping of each mix under @p base, as engine tasks in mix
/// order.
[[nodiscard]] inline std::vector<core::MeasureTask> every_mapping(
    const core::PipelineConfig& base, const std::vector<std::vector<std::string>>& mixes) {
  std::vector<core::MeasureTask> tasks;
  for (const auto& mix : mixes) {
    for (auto& alloc : sched::enumerate_balanced_allocations(
             mix.size(), base.machine.hierarchy.num_cores)) {
      tasks.push_back({base, mix, std::move(alloc)});
    }
  }
  return tasks;
}

/// Fold the runs of every_mapping(@p tasks) back into one measured outcome
/// per mix of @p mixes.
[[nodiscard]] inline std::vector<core::MixOutcome> measured_outcomes(
    const std::vector<std::vector<std::string>>& mixes,
    const std::vector<core::MeasureTask>& tasks, const std::vector<core::MappingRun>& runs) {
  std::vector<core::MixOutcome> measured(mixes.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    measured[i].mix = mixes[i];
    for (; j < tasks.size() && tasks[j].mix == mixes[i]; ++j) {
      measured[i].mappings.push_back(runs.at(j));
    }
  }
  return measured;
}

/// Charge a phase-1 @p vote the measured runtime of the mapping it chose
/// (mapping 0 when the choice is not among the measured ones): its mean
/// improvement over the worst.
[[nodiscard]] inline double improvement_of_vote(core::MixOutcome measured,
                                                const core::PhaseVote& vote) {
  measured.chosen = 0;
  for (std::size_t k = 0; k < measured.mappings.size(); ++k) {
    if (measured.mappings[k].allocation == vote.chosen) measured.chosen = k;
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

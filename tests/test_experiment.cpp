#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "workload/benchmark_model.hpp"

namespace symbiosis::core {
namespace {

MixOutcome synthetic_outcome() {
  MixOutcome o;
  o.mix = {"a", "b"};
  MappingRun r1, r2;
  r1.user_cycles = {100, 200};
  r2.user_cycles = {80, 260};
  o.mappings = {r1, r2};
  o.chosen = 1;
  return o;
}

TEST(MixOutcome, ImprovementArithmetic) {
  const MixOutcome o = synthetic_outcome();
  EXPECT_EQ(o.worst_user_cycles(0), 100u);
  EXPECT_EQ(o.best_user_cycles(0), 80u);
  // chosen = mapping 1: entity 0 got 80 vs worst 100 -> 20%.
  EXPECT_DOUBLE_EQ(o.improvement_vs_worst(0), 0.2);
  // entity 1 got 260 (the worst) -> 0%.
  EXPECT_DOUBLE_EQ(o.improvement_vs_worst(1), 0.0);
  EXPECT_DOUBLE_EQ(o.oracle_improvement(1), 60.0 / 260.0);
}

TEST(SummarizeImprovements, AggregatesAcrossMixes) {
  MixOutcome o1 = synthetic_outcome();
  MixOutcome o2 = synthetic_outcome();
  o2.mix = {"a", "c"};
  o2.mappings[1].user_cycles = {50, 260};  // a improves 50% in this mix
  const auto summary = summarize_improvements({"a", "b", "c"}, {o1, o2});
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0].name, "a");
  EXPECT_EQ(summary[0].mixes, 2);
  EXPECT_DOUBLE_EQ(summary[0].max_improvement, 0.5);
  EXPECT_DOUBLE_EQ(summary[0].avg_improvement(), (0.2 + 0.5) / 2);
  EXPECT_EQ(summary[1].mixes, 1);
  EXPECT_EQ(summary[2].mixes, 1);
}

TEST(SampleMixes, CoversEveryBenchmark) {
  const auto& pool = workload::spec2006_pool();
  const auto mixes = sample_mixes(pool, 4, 3, 42);
  std::map<std::string, int> appearances;
  std::set<std::vector<std::string>> unique;
  for (const auto& mix : mixes) {
    EXPECT_EQ(mix.size(), 4u);
    EXPECT_TRUE(unique.insert(mix).second) << "duplicate mix";
    std::set<std::string> distinct(mix.begin(), mix.end());
    EXPECT_EQ(distinct.size(), 4u) << "repeated benchmark within a mix";
    for (const auto& name : mix) ++appearances[name];
  }
  for (const auto& name : pool) {
    EXPECT_GE(appearances[name], 3) << name;
  }
}

TEST(SampleMixes, DeterministicForSeed) {
  const auto& pool = workload::spec2006_pool();
  EXPECT_EQ(sample_mixes(pool, 4, 2, 7), sample_mixes(pool, 4, 2, 7));
}

TEST(SampleMixes, Validation) {
  EXPECT_THROW(sample_mixes({"a", "b"}, 4, 1, 1), std::invalid_argument);
}

TEST(RunMixExperiment, EndToEndTinyMix) {
  PipelineConfig config;
  config.machine.hierarchy.num_cores = 2;
  config.machine.hierarchy.l1 = {1024, 2, 64};
  config.machine.hierarchy.l2 = {32 * 1024, 4, 64};
  config.machine.quantum_cycles = 100'000;
  config.sync_scale();
  config.scale.length_scale = 0.03;
  config.allocator_period_cycles = 500'000;
  config.emulation_cycles = 3'000'000;
  config.measure_max_cycles = 400'000'000;

  const MixOutcome outcome =
      run_experiment_cells({{config, {"mcf", "libquantum", "povray", "gobmk"}}}).front();
  ASSERT_GE(outcome.mappings.size(), 3u);  // the 3 balanced mappings
  EXPECT_LT(outcome.chosen, outcome.mappings.size());
  for (const auto& run : outcome.mappings) {
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.user_cycles.size(), 4u);
  }
  // Improvements are well-defined fractions.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(outcome.improvement_vs_worst(i), 0.0);
    EXPECT_LE(outcome.improvement_vs_worst(i), 1.0);
    EXPECT_GE(outcome.oracle_improvement(i), outcome.improvement_vs_worst(i) - 1e-12);
  }
}

PipelineConfig tiny_parsec_pipeline() {
  PipelineConfig config;
  config.machine.hierarchy.num_cores = 2;
  config.machine.hierarchy.l1 = {1024, 2, 64};
  config.machine.hierarchy.l2 = {32 * 1024, 4, 64};
  config.machine.quantum_cycles = 100'000;
  config.sync_scale();
  config.scale.length_scale = 0.02;
  config.allocator_period_cycles = 500'000;
  config.emulation_cycles = 2'000'000;
  config.measure_max_cycles = 400'000'000;
  return config;
}

TEST(RunMixExperimentMt, UsesSampledReferenceSet) {
  const MixOutcome outcome =
      run_experiment_cells(
          {{tiny_parsec_pipeline(), {"blackscholes", "swaptions"}, /*multithreaded=*/true}})
          .front();
  EXPECT_GE(outcome.mappings.size(), 2u);  // default + chosen at least
  EXPECT_LE(outcome.mappings.size(), 8u);  // default + 6 samples + chosen at most
  EXPECT_LT(outcome.chosen, outcome.mappings.size());
  for (const auto& run : outcome.mappings) {
    ASSERT_EQ(run.names.size(), 2u);  // per process
    EXPECT_TRUE(run.completed);
  }
}

TEST(RunMixExperimentMt, RejectsVirtualizedThreads) {
  // The paper measures PARSEC natively (Fig 12); a virtualized multithreaded
  // cell must not be measured natively behind the config's back.
  PipelineConfig config = tiny_parsec_pipeline();
  config.virtualized = true;
  try {
    (void)run_experiment_cells({{config, {"blackscholes", "swaptions"}, /*multithreaded=*/true}});
    FAIL() << "a virtualized multithreaded cell ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("multithreaded"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("virtualized"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace symbiosis::core

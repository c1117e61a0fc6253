// Determinism regression suite (DESIGN.md §9): the same seed must produce
// bit-identical sweep results whether the mixes run serially or on a
// ThreadPool with any worker count. Each experiment builds its own Machine
// and writes only its own outcome slot, so worker interleaving must be
// invisible in the result — this suite is what keeps that true.
//
// Also the property tests for summarize_improvements: the production fold
// is checked against an independently written brute-force reference over
// randomly generated outcomes, including the benchmark-absent-from-all-
// mixes edge case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/experiment.hpp"
#include "util/determinism.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace symbiosis::core {
namespace {

/// Tiny machine + very short benchmarks: a full 2-mix sweep in well under a
/// second, so running it four times (serial + three pools) stays cheap.
PipelineConfig tiny_pipeline() {
  PipelineConfig c;
  c.machine.hierarchy.num_cores = 2;
  c.machine.hierarchy.l1 = {1024, 2, 64};
  c.machine.hierarchy.l2 = {32 * 1024, 4, 64};
  c.machine.quantum_cycles = 100'000;
  c.sync_scale();
  c.scale.length_scale = 0.05;
  c.allocator_period_cycles = 500'000;
  c.emulation_cycles = 4'000'000;
  c.measure_max_cycles = 400'000'000;
  return c;
}

const std::vector<std::string> kTinyPool = {"mcf", "libquantum", "povray", "gobmk"};

/// The Figs 10–12 sweep shape: every pool program in at least one mix, one
/// cell per mix under config.allocator at the configured seed.
SweepGridResult plain_sweep(const PipelineConfig& config, const std::vector<std::string>& pool,
                            std::size_t mix_size, util::ThreadPool* threads = nullptr) {
  return run_sweep_grid(config, pool, mix_size, 1, {config.allocator}, 1, false, threads);
}

/// Scaled-down clustered machine: 8 cores in 4 clusters of 2, each cluster
/// sharing a tiny L2 with its own signature unit, all under one shared
/// SRRIP L3 — the non-degenerate graph, end to end, kept small enough that
/// four sweeps finish in seconds. (Phase 1 requires mixes of num_cores
/// distinct benchmarks, so the 8-wide mix below is the largest shape the
/// 12-entry SPEC pool supports with headroom.)
PipelineConfig tiny_clustered_pipeline() {
  PipelineConfig c;
  c.machine.hierarchy.num_cores = 8;
  c.machine.hierarchy.l1 = {1024, 2, 64};
  c.machine.hierarchy.l2 = {8 * 1024, 4, 64};
  c.machine.hierarchy.l2_clusters = 4;
  c.machine.hierarchy.l3 = cachesim::CacheGeometry{64 * 1024, 16, 64};
  c.machine.quantum_cycles = 100'000;
  c.sync_scale();
  c.scale.length_scale = 0.02;
  c.allocator_period_cycles = 500'000;
  c.emulation_cycles = 2'000'000;
  c.measure_max_cycles = 100'000'000;
  return c;
}

TEST(Determinism, ClusteredSweepIsIdenticalForAnyWorkerCount) {
  // The per-cluster filters, shared L3 and the schema-v2 per-level stats
  // must all be worker-count invariant. MappingRun equality covers
  // run.levels, so the per-level counters are pinned too.
  const std::vector<std::string> pool = {"perlbench", "bzip2", "gcc",   "mcf",
                                         "gobmk",     "hmmer", "sjeng", "libquantum"};
  const PipelineConfig config = tiny_clustered_pipeline();
  const SweepGridResult serial = plain_sweep(config, pool, 8);
  ASSERT_FALSE(serial.outcomes.empty());
  for (const auto& outcome : serial.outcomes) {
    for (const auto& run : outcome.mappings) {
      ASSERT_FALSE(run.levels.empty()) << "non-degenerate runs must carry per-level stats";
      EXPECT_EQ(run.levels.back().level, "l3");
    }
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool_of(workers);
    const SweepGridResult threaded = plain_sweep(config, pool, 8, &pool_of);
    ASSERT_EQ(threaded.mixes, serial.mixes) << workers << " workers";
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
    EXPECT_EQ(summarize_improvements(pool, threaded.outcomes),
              summarize_improvements(pool, serial.outcomes))
        << workers << " workers";
  }
}

TEST(Determinism, RepeatedSerialRunsAreIdentical) {
  const PipelineConfig config = tiny_pipeline();
  const SweepGridResult a = plain_sweep(config, kTinyPool, 2);
  const SweepGridResult b = plain_sweep(config, kTinyPool, 2);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(summarize_improvements(kTinyPool, a.outcomes),
            summarize_improvements(kTinyPool, b.outcomes));
}

TEST(Determinism, SeedSelectsTheMixSample) {
  PipelineConfig config = tiny_pipeline();
  const SweepGridResult a = plain_sweep(config, kTinyPool, 2);
  config.seed += 1;
  const SweepGridResult b = plain_sweep(config, kTinyPool, 2);
  // Different seed, same pool: the sample may legitimately coincide for a
  // pool this small, but outcomes must still be self-consistent.
  ASSERT_EQ(a.mixes.size(), b.mixes.size());
  for (const auto& outcome : b.outcomes) {
    EXPECT_EQ(outcome.mix.size(), 2u);
    EXPECT_FALSE(outcome.mappings.empty());
    EXPECT_LT(outcome.chosen, outcome.mappings.size());
  }
}

// --- sweep-grid sharding ---------------------------------------------------

TEST(Determinism, GridSweepIsIdenticalForAnyWorkerCount) {
  // The full (mix x allocator x seed-replicate) grid must be bit-identical
  // for any worker count and any shard cut: cells land at their index and
  // replicate seeds come from per-cell Rng substreams, not shared state.
  const PipelineConfig config = tiny_pipeline();
  const std::vector<std::string> algorithms = {"weighted-graph", "default"};
  const SweepGridResult serial = run_sweep_grid(config, kTinyPool, 2, 1, algorithms, 2);
  ASSERT_FALSE(serial.cells.empty());
  ASSERT_EQ(serial.cells.size(), serial.mixes.size() * algorithms.size() * 2);
  ASSERT_EQ(serial.outcomes.size(), serial.cells.size());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool(workers);
    const SweepGridResult threaded =
        run_sweep_grid(config, kTinyPool, 2, 1, algorithms, 2, false, &pool);
    ASSERT_EQ(threaded.mixes, serial.mixes) << workers << " workers";
    EXPECT_EQ(threaded.cells, serial.cells) << workers << " workers";
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
  }
}

TEST(Determinism, GridReplicatesDeriveDistinctSeeds) {
  const PipelineConfig config = tiny_pipeline();
  const SweepGridResult grid = run_sweep_grid(config, kTinyPool, 2, 1, {"weighted-graph"}, 3);
  std::unordered_set<std::uint64_t> derived;
  std::size_t derived_cells = 0;
  for (const auto& cell : grid.cells) {
    if (cell.replicate == 0) {
      EXPECT_EQ(cell.seed, config.seed) << "replicate 0 keeps the configured seed";
    } else {
      EXPECT_NE(cell.seed, config.seed) << "replicate " << cell.replicate;
      derived.insert(cell.seed);
      ++derived_cells;
    }
  }
  // Every derived replicate ran under its own substream seed.
  ASSERT_GT(derived_cells, 0u);
  EXPECT_EQ(derived.size(), derived_cells);
}

TEST(Determinism, GridRejectsDegenerateArguments) {
  const PipelineConfig config = tiny_pipeline();
  EXPECT_THROW(run_sweep_grid(config, kTinyPool, 2, 1, {}), std::invalid_argument);
  EXPECT_THROW(run_sweep_grid(config, kTinyPool, 2, 1, {"default"}, 0), std::invalid_argument);
}

// --- the phase-task engine -------------------------------------------------

TEST(Determinism, VmGridIsIdenticalForAnyWorkerCount) {
  // The Fig 11 path: phase 1 on processes, every measurement in VMs.
  PipelineConfig config = tiny_pipeline();
  config.virtualized = true;
  config.vm.dom0_region_bytes = 4 * 1024;
  const SweepGridResult serial = plain_sweep(config, kTinyPool, 2);
  ASSERT_FALSE(serial.outcomes.empty());
  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool(workers);
    const SweepGridResult threaded = plain_sweep(config, kTinyPool, 2, &pool);
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
  }
}

/// Mixes of two 4-thread PARSEC programs: 8 threads on 2 cores, so a
/// phase-1 pick usually falls outside the sampled reference set.
PipelineConfig tiny_mt_pipeline() {
  PipelineConfig c = tiny_pipeline();
  c.scale.length_scale = 0.02;
  c.emulation_cycles = 2'000'000;
  return c;
}

const std::vector<std::string> kTinyParsecPool = {"blackscholes", "swaptions", "ferret",
                                                  "canneal"};

TEST(Determinism, MultithreadedGridIsIdenticalForAnyWorkerCount) {
  // The Fig 12 path. Its chosen mappings land outside the reference set
  // ({default} + 6 samples), so the engine's second measurement wave runs.
  const PipelineConfig config = tiny_mt_pipeline();
  const SweepGridResult serial =
      run_sweep_grid(config, kTinyParsecPool, 2, 1, {config.allocator}, 1, true);
  ASSERT_FALSE(serial.outcomes.empty());
  std::size_t measured_after_vote = 0;
  for (const auto& outcome : serial.outcomes) {
    const bool chosen_is_extra = outcome.chosen + 1 == outcome.mappings.size() &&
                                 outcome.mappings.size() > 1;
    measured_after_vote += chosen_is_extra ? 1 : 0;
  }
  EXPECT_GT(measured_after_vote, 0u) << "no chosen mapping fell outside its reference set";

  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool(workers);
    const SweepGridResult threaded =
        run_sweep_grid(config, kTinyParsecPool, 2, 1, {config.allocator}, 1, true, &pool);
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
  }
}

TEST(Determinism, MixExperimentOnAPoolEqualsSerial) {
  util::ThreadPool pool(3);
  const PipelineConfig config = tiny_pipeline();
  const std::vector<std::string> mix = {"mcf", "libquantum", "povray", "gobmk"};
  EXPECT_EQ(run_mix_experiment(config, mix, &pool), run_mix_experiment(config, mix));

  const PipelineConfig mt = tiny_mt_pipeline();
  const std::vector<std::string> apps = {"blackscholes", "swaptions"};
  EXPECT_EQ(run_mix_experiment_mt(mt, apps, 3, &pool), run_mix_experiment_mt(mt, apps, 3));
}

TEST(Determinism, PhaseTasksLandInTheirSlots) {
  // Votes and measurements answer their own task, whatever the pool runs
  // first: each slot equals the same task run alone.
  const PipelineConfig config = tiny_pipeline();
  const std::vector<std::string> mix = {"mcf", "povray"};
  PipelineConfig other = config;
  other.allocator = "weight-sort";
  const std::vector<VoteTask> votes = {{config, mix}, {other, mix}};
  std::vector<MeasureTask> measurements;
  for (const auto& alloc : sched::enumerate_balanced_allocations(2, 2)) {
    measurements.push_back({config, mix, alloc});
  }
  measurements.push_back({config, {"gobmk", "libquantum"}, measurements.front().allocation});

  util::ThreadPool pool(2);
  const PhaseResults results = run_phase_tasks(votes, measurements, &pool);
  EXPECT_EQ(results.votes, run_phase_tasks(votes, {}).votes);
  ASSERT_EQ(results.runs.size(), measurements.size());
  for (std::size_t j = 0; j < measurements.size(); ++j) {
    EXPECT_EQ(results.runs[j],
              measure_mapping(measurements[j].config, measurements[j].mix,
                              measurements[j].allocation))
        << "measurement " << j;
  }
}

TEST(Determinism, PhaseTaskErrorsReachTheCaller) {
  const PipelineConfig config = tiny_pipeline();
  const std::vector<std::string> mix = {"mcf", "povray"};
  const sched::Allocation wrong_size{{0, 1, 0}, 2};
  util::ThreadPool pool(2);
  EXPECT_THROW(
      (void)run_phase_tasks({{config, mix}}, {{config, mix, wrong_size}}, &pool),
      std::invalid_argument);
  EXPECT_THROW((void)run_mix_experiment(config, {"mcf", "nosuch"}, &pool),
               std::invalid_argument);
}

// --- summarize_improvements property tests --------------------------------

/// Independent reference implementation: for one benchmark, walk every
/// (outcome, slot) pair the straightforward way and aggregate.
BenchmarkImprovement reference_summary(const std::string& name,
                                       const std::vector<MixOutcome>& outcomes) {
  BenchmarkImprovement agg;
  agg.name = name;
  for (const auto& outcome : outcomes) {
    for (std::size_t i = 0; i < outcome.mix.size(); ++i) {
      if (outcome.mix[i] != name) continue;
      const double improvement = outcome.improvement_vs_worst(i);
      const double oracle = outcome.oracle_improvement(i);
      agg.max_improvement = std::max(agg.max_improvement, improvement);
      agg.sum_improvement += improvement;
      agg.max_oracle = std::max(agg.max_oracle, oracle);
      agg.sum_oracle += oracle;
      ++agg.mixes;
    }
  }
  return agg;
}

/// Random outcome over @p pool: mix of @p mix_size drawn without
/// replacement, 2-4 mappings with arbitrary user cycles (zeros included to
/// exercise the worst==0 guard).
MixOutcome random_outcome(util::Rng& rng, const std::vector<std::string>& pool,
                          std::size_t mix_size) {
  MixOutcome outcome;
  std::vector<std::string> names = pool;
  for (std::size_t i = 0; i < mix_size; ++i) {
    const std::size_t pick = i + static_cast<std::size_t>(rng.next_below(names.size() - i));
    std::swap(names[i], names[pick]);
    outcome.mix.push_back(names[i]);
  }
  const std::size_t mappings = 2 + static_cast<std::size_t>(rng.next_below(3));
  for (std::size_t m = 0; m < mappings; ++m) {
    MappingRun run;
    run.names = outcome.mix;
    for (std::size_t i = 0; i < mix_size; ++i) {
      // ~10% zeros: a benchmark whose worst time is 0 must contribute 0.
      const bool zero = rng.next_below(10) == 0;
      run.user_cycles.push_back(zero ? 0 : 1 + rng.next_below(1'000'000));
    }
    run.completed = true;
    outcome.mappings.push_back(std::move(run));
  }
  outcome.chosen = static_cast<std::size_t>(rng.next_below(outcome.mappings.size()));
  return outcome;
}

TEST(SummarizeImprovements, MatchesBruteForceReference) {
  const std::vector<std::string> pool = {"a", "b", "c", "d", "e", "f"};
  util::Rng rng(20260806);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<MixOutcome> outcomes;
    const std::size_t count = 1 + static_cast<std::size_t>(rng.next_below(6));
    for (std::size_t i = 0; i < count; ++i) outcomes.push_back(random_outcome(rng, pool, 3));

    const auto summary = summarize_improvements(pool, outcomes);
    ASSERT_EQ(summary.size(), pool.size()) << "one entry per pool benchmark, in pool order";
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(summary[i].name, pool[i]);
      // The reference walks (outcome, slot) pairs in the same order, so the
      // floating-point sums must be EXACTLY equal, not just close.
      EXPECT_EQ(summary[i], reference_summary(pool[i], outcomes)) << "trial " << trial;
    }
  }
}

TEST(SummarizeImprovements, BenchmarkAbsentFromAllMixesIsZeroed) {
  const std::vector<std::string> pool = {"present", "absent"};
  util::Rng rng(7);
  std::vector<MixOutcome> outcomes;
  for (int i = 0; i < 4; ++i) outcomes.push_back(random_outcome(rng, {"present"}, 1));

  const auto summary = summarize_improvements(pool, outcomes);
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[1].name, "absent");
  EXPECT_EQ(summary[1].mixes, 0);
  EXPECT_EQ(summary[1].max_improvement, 0.0);
  EXPECT_EQ(summary[1].sum_improvement, 0.0);
  EXPECT_EQ(summary[1].avg_improvement(), 0.0) << "no division by zero mixes";
  EXPECT_EQ(summary[1].avg_oracle(), 0.0);
}

TEST(SummarizeImprovements, EmptyOutcomesYieldPoolOfZeroEntries) {
  const std::vector<std::string> pool = {"x", "y"};
  const auto summary = summarize_improvements(pool, {});
  ASSERT_EQ(summary.size(), 2u);
  for (const auto& entry : summary) {
    EXPECT_EQ(entry.mixes, 0);
    EXPECT_EQ(entry.max_improvement, 0.0);
  }
}

// --- SYM_ORDER_INSENSITIVE (util/determinism.hpp) --------------------------
// The annotation symdet accepts on unordered traversals must (a) compile to
// nothing and (b) only ever mark accumulations that really are commutative:
// the unordered-order fold has to equal the sorted-order fold.

TEST(OrderInsensitiveAnnotation, CommutativeFoldMatchesSortedTraversal) {
  std::unordered_set<std::uint64_t> pages;
  util::Rng rng(21);
  for (int i = 0; i < 500; ++i) pages.insert(rng.next_below(1u << 20));

  std::uint64_t sum = 0, xr = 0;
  SYM_ORDER_INSENSITIVE("integer sum and xor are commutative");
  for (const auto page : pages) {
    sum += page;
    xr ^= page;
  }

  std::vector<std::uint64_t> sorted(pages.begin(), pages.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t sorted_sum = 0, sorted_xr = 0;
  for (const auto page : sorted) {
    sorted_sum += page;
    sorted_xr ^= page;
  }
  EXPECT_EQ(sum, sorted_sum);
  EXPECT_EQ(xr, sorted_xr);
}

}  // namespace
}  // namespace symbiosis::core

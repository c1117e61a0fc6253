// Failure-injection and boundary tests across the machine and vm layers.
#include <gtest/gtest.h>

#include "core/profile.hpp"
#include "machine/machine.hpp"
#include "sig/filter_unit.hpp"
#include "util/check.hpp"
#include "vm/hypervisor.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis {
namespace {

machine::MachineConfig micro_machine(std::size_t cores = 2) {
  machine::MachineConfig m;
  m.hierarchy.num_cores = cores;
  m.hierarchy.l1 = {1024, 2, 64};
  m.hierarchy.l2 = {16 * 1024, 4, 64};
  m.quantum_cycles = 50'000;
  return m;
}

std::unique_ptr<workload::Workload> one_phase(const std::string& name, std::size_t pid,
                                              std::uint64_t refs,
                                              workload::PatternKind kind =
                                                  workload::PatternKind::Zipf) {
  workload::BenchmarkSpec spec;
  spec.name = name;
  workload::PhaseSpec phase;
  phase.pattern.kind = kind;
  phase.pattern.region_bytes = 8 * 1024;
  phase.compute_gap = 4.0;
  phase.refs = refs;
  spec.phases = {phase};
  spec.total_refs = refs;
  return std::make_unique<workload::Workload>(spec, machine::address_space_base(pid),
                                              util::Rng{pid + 1});
}

TEST(EdgeCases, EmptyMachineRunsAreNoops) {
  machine::Machine m(micro_machine());
  EXPECT_TRUE(m.run_to_all_complete());  // vacuously complete
  m.run_for(1'000'000);                  // must not hang or crash
  EXPECT_EQ(m.stats().steps, 0u);
}

TEST(EdgeCases, OnlyBackgroundTasksCompleteVacuously) {
  machine::Machine m(micro_machine());
  const auto id = m.add_task(one_phase("bg", 0, ~0ull >> 2), 0);
  m.task(id).background = true;
  EXPECT_TRUE(m.run_to_all_complete(10'000'000));
}

TEST(EdgeCases, SingleRefBenchmarkCompletes) {
  machine::Machine m(micro_machine());
  const auto id = m.add_task(one_phase("one", 0, 1), 0);
  EXPECT_TRUE(m.run_to_all_complete());
  EXPECT_GE(m.task(id).completed_runs, 1u);
  EXPECT_GT(m.task(id).first_completion_user_cycles, 0u);
}

TEST(EdgeCases, MoreTasksThanCoresAllComplete) {
  machine::Machine m(micro_machine(2));
  std::vector<machine::TaskId> ids;
  for (std::size_t i = 0; i < 7; ++i) ids.push_back(m.add_task(one_phase("t", i, 5'000)));
  EXPECT_TRUE(m.run_to_all_complete());
  for (const auto id : ids) EXPECT_GE(m.task(id).completed_runs, 1u);
}

TEST(EdgeCases, AllTasksPinnedToOneCoreLeavesOthersIdle) {
  machine::Machine m(micro_machine(4));
  for (std::size_t i = 0; i < 3; ++i) m.add_task(one_phase("t", i, 10'000), 0);
  EXPECT_TRUE(m.run_to_all_complete());
  // Cores 1..3 never ran anything.
  for (std::size_t core = 1; core < 4; ++core) {
    EXPECT_EQ(m.hierarchy().l2_footprint(core), 0u) << core;
  }
}

TEST(EdgeCases, ZeroJitterIsLegal) {
  machine::MachineConfig cfg = micro_machine();
  cfg.quantum_jitter = 0.0;
  machine::Machine m(cfg);
  m.add_task(one_phase("a", 0, 10'000), 0);
  m.add_task(one_phase("b", 1, 10'000), 0);
  EXPECT_TRUE(m.run_to_all_complete());
}

TEST(EdgeCases, ZeroMigrationKeepsInitialPlacement) {
  machine::MachineConfig cfg = micro_machine();
  cfg.migration_prob = 0.0;
  machine::Machine m(cfg);
  const auto a = m.add_task(one_phase("a", 0, 2'000'000));  // defaults to core 0
  const auto b = m.add_task(one_phase("b", 1, 2'000'000));  // defaults to core 1
  m.run_for(2'000'000);
  EXPECT_EQ(m.task(a).signature().last_core(), 0u);
  EXPECT_EQ(m.task(b).signature().last_core(), 1u);
}

TEST(EdgeCases, SignatureDisabledMachineStillSchedules) {
  machine::MachineConfig cfg = micro_machine();
  cfg.hierarchy.signature.enabled = false;
  machine::Machine m(cfg);
  const auto id = m.add_task(one_phase("nosig", 0, 10'000), 0);
  m.add_task(one_phase("peer", 1, 10'000), 0);
  EXPECT_TRUE(m.run_to_all_complete());
  EXPECT_EQ(m.hierarchy().filter(), nullptr);
  // No filter -> no samples, but accounting still works.
  EXPECT_EQ(m.task(id).signature().samples(), 0u);
  EXPECT_GT(m.task(id).first_completion_user_cycles, 0u);
}

TEST(EdgeCases, ProfilesWithoutSamplesAreZeroNotGarbage) {
  machine::MachineConfig cfg = micro_machine();
  cfg.hierarchy.signature.enabled = false;
  machine::Machine m(cfg);
  m.add_task(one_phase("a", 0, 5'000), 0);
  m.run_for(100'000);
  const auto profiles = core::collect_profiles(m);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].occupancy_weight, 0.0);
  EXPECT_EQ(profiles[0].interference_with(1), 1.0);  // clamp, not inf/NaN
}

TEST(EdgeCases, HypervisorWithSingleGuestOnly) {
  vm::VmConfig cfg;
  cfg.dom0_background = false;
  cfg.dom0_region_bytes = 4 * 1024;
  vm::Hypervisor hv(micro_machine(), cfg);
  const auto dom = hv.create_domain(one_phase("guest", 3, 10'000));
  EXPECT_TRUE(hv.run_to_all_complete());
  EXPECT_GT(hv.domain_user_cycles(dom), 0u);
}

TEST(EdgeCases, FilterInvariantsHoldAfterMixedRun) {
  // Regression for the counter/bit-vector bookkeeping the SYM_CHECK wiring
  // now guards: after sustained eviction + quantum-switch traffic, the
  // signature unit's shared counters and per-core filters must still agree.
  const util::ScopedCheckMode guard(util::CheckMode::Throw);
  machine::Machine m(micro_machine());
  m.add_task(one_phase("a", 0, 40'000), 0);
  m.add_task(one_phase("b", 1, 40'000, workload::PatternKind::Stream), 1);
  m.run_for(2'000'000);
  const auto* filter = m.hierarchy().filter();
  ASSERT_NE(filter, nullptr);
  EXPECT_NO_THROW(filter->validate());
  EXPECT_TRUE(m.run_to_all_complete());
  EXPECT_NO_THROW(filter->validate());
  EXPECT_EQ(util::check_violation_total(), 0u);
}

TEST(EdgeCases, FilterUnitStaysConsistentThroughChurn) {
  // Saturating 2-bit counters, k = 3 collisions and evictions of lines that
  // were never filled must never leave a CF bit behind a drained counter or
  // a counter above saturation, which validate() audits. 40 lines fill 64
  // counters only partly: some stick at max, the rest drain back to zero, so
  // the stray evictions meet both the stuck-at-max and the underflow guard.
  const util::ScopedCheckMode guard(util::CheckMode::Throw);
  sig::FilterUnitConfig config;
  config.cache_sets = 16;
  config.cache_ways = 4;  // 64 entries
  config.counter_bits = 2;
  config.hash_functions = 3;
  sig::FilterUnit unit(config);
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::uint64_t key = 0; key < 40; ++key) unit.on_fill(key * 64, key % 2, key % 16, 0);
    EXPECT_GT(unit.saturated_counters(), 0u);
    EXPECT_NO_THROW(unit.validate());
    for (std::uint64_t key = 0; key < 40; ++key) unit.on_evict(key * 64, key % 16, 0);
    EXPECT_LT(unit.saturated_counters(), unit.entries());
    EXPECT_NO_THROW(unit.validate());
    // Evicting lines that were never filled must leave the unit consistent.
    for (std::uint64_t key = 500; key < 520; ++key) unit.on_evict(key * 64, key % 16, 0);
    EXPECT_NO_THROW(unit.validate());
  }
}

TEST(EdgeCases, StreamWorkloadSurvivesQuantumBoundaries) {
  // A pure streamer crossing many quanta must never deadlock the restart
  // logic or the filter's counter maintenance.
  machine::Machine m(micro_machine());
  const auto id =
      m.add_task(one_phase("stream", 0, 30'000, workload::PatternKind::Stream), 0);
  m.add_task(one_phase("peer", 1, 30'000), 0);
  EXPECT_TRUE(m.run_to_all_complete());
  EXPECT_GT(m.task(id).counters().l2_misses, 0u);
}

}  // namespace
}  // namespace symbiosis

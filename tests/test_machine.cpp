#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::machine {
namespace {

MachineConfig tiny_machine() {
  MachineConfig m;
  m.hierarchy.num_cores = 2;
  m.hierarchy.l1 = {1024, 2, 64};
  m.hierarchy.l2 = {16 * 1024, 4, 64};
  m.quantum_cycles = 50'000;
  return m;
}

std::unique_ptr<workload::Workload> tiny_workload(const std::string& name, std::size_t pid,
                                                  std::uint64_t refs = 20'000) {
  workload::BenchmarkSpec spec;
  spec.name = name;
  workload::PhaseSpec phase;
  phase.pattern.kind = workload::PatternKind::Zipf;
  phase.pattern.region_bytes = 8 * 1024;
  phase.compute_gap = 5.0;
  phase.refs = refs;
  spec.phases = {phase};
  spec.total_refs = refs;
  return std::make_unique<workload::Workload>(spec, address_space_base(pid), util::Rng{pid + 1});
}

TEST(Machine, RunsSingleTaskToCompletion) {
  Machine m(tiny_machine());
  const TaskId id = m.add_task(tiny_workload("solo", 0));
  EXPECT_TRUE(m.run_to_all_complete());
  const Task& t = m.task(id);
  EXPECT_EQ(t.completed_runs, 1u);
  EXPECT_GT(t.first_completion_user_cycles, 0u);
  EXPECT_GT(t.counters().instructions, 20'000u);
  // The stream restarts upon completion and the batch may run on briefly,
  // so the counter can slightly exceed one run's reference count.
  EXPECT_GE(t.counters().memory_refs, 20'000u);
  EXPECT_LT(t.counters().memory_refs, 21'000u);
}

TEST(Machine, TimeSharingAccountsUserCyclesSeparately) {
  Machine m(tiny_machine());
  const TaskId a = m.add_task(tiny_workload("a", 0), /*affinity=*/0);
  const TaskId b = m.add_task(tiny_workload("b", 1), /*affinity=*/0);
  EXPECT_TRUE(m.run_to_all_complete());
  // Both ran to completion on one core; wall clock covers both but each
  // task's user time only covers its own execution.
  EXPECT_GT(m.now(), m.task(a).first_completion_user_cycles);
  EXPECT_GT(m.task(a).first_completion_user_cycles, 0u);
  EXPECT_GT(m.task(b).first_completion_user_cycles, 0u);
  EXPECT_GT(m.stats().context_switches, 2u);
}

TEST(Machine, PinnedTasksCollectSignaturesOnTheirCore) {
  Machine m(tiny_machine());
  const TaskId a = m.add_task(tiny_workload("a", 0), 1);
  m.add_task(tiny_workload("b", 1), 1);  // share core 1 so switches happen
  EXPECT_TRUE(m.run_to_all_complete());
  const auto& sig = m.task(a).signature();
  EXPECT_GT(sig.samples(), 0u);
  EXPECT_EQ(sig.last_core(), 1u);
}

TEST(Machine, CompletionTriggersRestart) {
  Machine m(tiny_machine());
  const TaskId fast = m.add_task(tiny_workload("fast", 0, 1'000), 0);
  const TaskId slow = m.add_task(tiny_workload("slow", 1, 100'000), 1);
  EXPECT_TRUE(m.run_to_all_complete());
  // The fast task restarted many times while the slow one finished once.
  EXPECT_GT(m.task(fast).completed_runs, 1u);
  EXPECT_GE(m.task(slow).completed_runs, 1u);
}

TEST(Machine, MaxCyclesCapsRun) {
  Machine m(tiny_machine());
  m.add_task(tiny_workload("long", 0, 10'000'000));
  EXPECT_FALSE(m.run_to_all_complete(/*max_cycles=*/100'000));
  EXPECT_LE(m.now(), 300'000u);  // cap plus one batch of slack
}

TEST(Machine, RunForAdvancesClock) {
  Machine m(tiny_machine());
  m.add_task(tiny_workload("t", 0, 10'000'000));
  m.run_for(200'000);
  EXPECT_GE(m.now(), 200'000u);
}

TEST(Machine, PeriodicHookFires) {
  Machine m(tiny_machine());
  m.add_task(tiny_workload("t", 0, 10'000'000));
  int fired = 0;
  m.set_periodic_hook(100'000, [&](Machine&) { ++fired; });
  m.run_for(1'000'000);
  EXPECT_GE(fired, 9);
  EXPECT_LE(fired, 11);
  EXPECT_EQ(m.stats().hook_invocations, static_cast<std::uint64_t>(fired));
}

TEST(Machine, PageTrackingCountsFirstTouches) {
  MachineConfig cfg = tiny_machine();
  cfg.track_pages = true;
  Machine m(cfg);
  const TaskId id = m.add_task(tiny_workload("pages", 0));
  EXPECT_TRUE(m.run_to_all_complete());
  const Task& t = m.task(id);
  // 8KB region = 2 pages (+ nothing else): exactly 2 first-touch faults.
  EXPECT_EQ(t.counters().page_faults, 2u);
}

TEST(Machine, PageTrackingPins) {
  // Two SPEC models time-sharing a page-tracking machine. The constants were
  // recorded on the implementation that stepped a task one reference at a
  // time through Hierarchy::access; a change that alters them changes the
  // first-touch fault accounting (Fig 2) and must say so.
  MachineConfig cfg = tiny_machine();
  cfg.track_pages = true;
  Machine m(cfg);
  workload::ScaleConfig scale;
  scale.length_scale = 0.02;
  const TaskId mcf =
      m.add_task(workload::make_spec_workload("mcf", address_space_base(0), util::Rng{1}, scale));
  const TaskId lq = m.add_task(
      workload::make_spec_workload("libquantum", address_space_base(1), util::Rng{2}, scale));
  ASSERT_TRUE(m.run_to_all_complete());
  const Task& a = m.task(mcf);
  const Task& b = m.task(lq);
  EXPECT_EQ(a.counters().page_faults, 69u);
  EXPECT_EQ(b.counters().page_faults, 147u);
  EXPECT_EQ(a.counters().instructions, 119'529u);
  EXPECT_EQ(b.counters().instructions, 361'206u);
  EXPECT_EQ(a.first_completion_user_cycles, 3'525'602u);
  EXPECT_EQ(b.first_completion_user_cycles, 1'086'059u);
  EXPECT_EQ(m.stats().steps, 114'312u);
}

TEST(Machine, BackgroundTaskDoesNotBlockCompletion) {
  Machine m(tiny_machine());
  m.add_task(tiny_workload("fg", 0, 5'000), 0);
  const TaskId bg = m.add_task(tiny_workload("bg", 1, ~0ull >> 1), 1);
  m.task(bg).background = true;
  EXPECT_TRUE(m.run_to_all_complete());
}

TEST(Machine, AffinityChangeTakesEffect) {
  Machine m(tiny_machine());
  const TaskId id = m.add_task(tiny_workload("mover", 0, 10'000'000), 0);
  m.run_for(200'000);
  m.set_affinity(id, 1);
  m.run_for(500'000);
  EXPECT_EQ(m.task(id).signature().last_core(), 1u);
}

TEST(Machine, SwitchPollutionTouchesCaches) {
  MachineConfig cfg = tiny_machine();
  cfg.switch_pollution_lines = 64;
  Machine noisy(cfg);
  noisy.add_task(tiny_workload("a", 0), 0);
  noisy.add_task(tiny_workload("b", 1), 0);
  EXPECT_TRUE(noisy.run_to_all_complete());

  Machine clean(tiny_machine());
  clean.add_task(tiny_workload("a", 0), 0);
  clean.add_task(tiny_workload("b", 1), 0);
  EXPECT_TRUE(clean.run_to_all_complete());

  // Pollution consumes wall-clock time beyond the clean machine's.
  EXPECT_GT(noisy.now(), clean.now());
}

TEST(Machine, CountersSplitCacheLevels) {
  Machine m(tiny_machine());
  const TaskId id = m.add_task(tiny_workload("c", 0));
  EXPECT_TRUE(m.run_to_all_complete());
  const auto& counters = m.task(id).counters();
  EXPECT_GT(counters.l1_misses, 0u);
  EXPECT_EQ(counters.l2_accesses, counters.l1_misses);
  EXPECT_LE(counters.l2_misses, counters.l2_accesses);
  EXPECT_GT(counters.tlb_misses, 0u);
}

/// A stream that never completes yet stops yielding steps: a broken
/// generator the machine must report instead of spinning on.
class StalledStream final : public workload::TaskStream {
 public:
  std::size_t next_chunk(cachesim::MemRef*, std::size_t) override { return 0; }
  [[nodiscard]] bool complete() const override { return false; }
  void restart() override {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::uint64_t refs_issued() const override { return 0; }
  [[nodiscard]] std::uint64_t total_refs() const override { return 1; }

 private:
  std::string name_ = "stalled";
};

TEST(Machine, StreamWithoutStepsIsACheckFailure) {
  const util::ScopedCheckMode mode(util::CheckMode::Throw);
  Machine m(tiny_machine());
  m.add_task(std::make_unique<StalledStream>());
  EXPECT_THROW(m.run_to_all_complete(), util::CheckError);
}

TEST(Machine, AddressSpaceBasesDisjoint) {
  EXPECT_NE(address_space_base(0), address_space_base(1));
  EXPECT_EQ(address_space_base(0) % 64, 0u);
  EXPECT_GT(address_space_base(1) - address_space_base(0), std::uint64_t{1} << 39);
}

TEST(Machine, Validation) {
  MachineConfig cfg = tiny_machine();
  cfg.quantum_cycles = 0;
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  cfg = tiny_machine();
  cfg.batch_steps = 0;
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  Machine m(tiny_machine());
  EXPECT_THROW(m.add_process({}), std::invalid_argument);
}

TEST(Machine, QuantumJitterMustLieInZeroToOne) {
  // At 1 or more a dispatch could draw a negative quantum.
  for (const double bad : {1.5, -0.1, std::nan("")}) {
    MachineConfig cfg = tiny_machine();
    cfg.quantum_jitter = bad;
    EXPECT_THROW(Machine{cfg}, std::invalid_argument) << bad;
  }
  for (const double good : {0.0, 0.99}) {
    MachineConfig cfg = tiny_machine();
    cfg.quantum_jitter = good;
    EXPECT_NO_THROW(Machine{cfg}) << good;
  }
}

}  // namespace
}  // namespace symbiosis::machine

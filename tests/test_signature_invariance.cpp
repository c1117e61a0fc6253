// The signature unit observes the shared L2 but never steers it: turning it
// off must leave every simulated time and every cache counter unchanged.
// Phase 2 (core::measure_mapping{,_vm,_mt}) relies on this to run without
// the unit, so each setup here runs to completion with signature.enabled
// true and then false and requires identical per-task first-completion user
// times, machine clock, step count and per-level stats. A change that lets
// the unit touch simulated time fails here instead of silently moving
// phase 2's numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/symbiotic_scheduler.hpp"
#include "machine/config.hpp"
#include "vm/hypervisor.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::core {
namespace {

struct RunSummary {
  bool completed = false;
  std::vector<std::uint64_t> user_cycles;  ///< per task / per domain
  std::uint64_t now = 0;
  std::uint64_t steps = 0;
  std::vector<cachesim::LevelStats> levels;  ///< l1, l2, l3
  std::uint64_t signature_samples = 0;       ///< > 0 only with the unit on
};

void collect_machine_state(const machine::Machine& m, RunSummary& out) {
  out.now = m.now();
  out.steps = m.stats().steps;
  for (const char* level : {"l1", "l2", "l3"}) {
    out.levels.push_back(m.hierarchy().level_stats(level));
  }
  for (machine::TaskId id = 0; id < m.task_count(); ++id) {
    out.signature_samples += m.task(id).signature().samples();
  }
}

void expect_same_simulation(const RunSummary& on, const RunSummary& off) {
  ASSERT_TRUE(on.completed);
  ASSERT_TRUE(off.completed);
  EXPECT_GT(on.signature_samples, 0u) << "the unit must have run with signature.enabled";
  EXPECT_EQ(off.signature_samples, 0u);
  EXPECT_EQ(on.user_cycles, off.user_cycles);
  EXPECT_EQ(on.now, off.now);
  EXPECT_EQ(on.steps, off.steps);
  ASSERT_EQ(on.levels.size(), off.levels.size());
  for (std::size_t i = 0; i < on.levels.size(); ++i) {
    EXPECT_EQ(on.levels[i].accesses, off.levels[i].accesses) << "level " << i;
    EXPECT_EQ(on.levels[i].hits, off.levels[i].hits) << "level " << i;
    EXPECT_EQ(on.levels[i].misses, off.levels[i].misses) << "level " << i;
    EXPECT_EQ(on.levels[i].evictions, off.levels[i].evictions) << "level " << i;
  }
}

/// @p mix pinned per @p group_of on @p config, run to completion.
RunSummary pinned_run(machine::MachineConfig config, bool signature,
                      const std::vector<std::string>& mix,
                      const std::vector<std::size_t>& group_of, double length_scale) {
  config.hierarchy.signature.enabled = signature;
  workload::ScaleConfig scale;
  scale.l2_bytes = config.hierarchy.l2.size_bytes;
  scale.length_scale = length_scale;
  machine::Machine m(config);
  const auto ids = add_mix_tasks(m, mix, scale, 5);
  apply_allocation(m, ids, sched::Allocation{group_of, config.hierarchy.num_cores});
  RunSummary out;
  out.completed = m.run_to_all_complete(2'000'000'000);
  for (const auto id : ids) out.user_cycles.push_back(m.task(id).first_completion_user_cycles);
  collect_machine_state(m, out);
  return out;
}

TEST(SignatureInvariance, PinnedCore2DuoMachine) {
  const std::vector<std::string> mix = {"mcf", "libquantum", "sjeng", "omnetpp"};
  const std::vector<std::size_t> groups = {0, 1, 1, 0};
  const auto run = [&](bool signature) {
    return pinned_run(machine::core2duo_config(), signature, mix, groups, 0.02);
  };
  expect_same_simulation(run(true), run(false));
}

TEST(SignatureInvariance, PinnedClusteredL3Machine) {
  // 8 cores in 4 clusters of 2, one signature unit per cluster L2, a shared
  // SRRIP L3 below; cores 0-3 timeshare two programs each.
  machine::MachineConfig config;
  config.hierarchy.num_cores = 8;
  config.hierarchy.l1 = {1024, 2, 64};
  config.hierarchy.l2 = {8 * 1024, 4, 64};
  config.hierarchy.l2_clusters = 4;
  config.hierarchy.l3 = cachesim::CacheGeometry{64 * 1024, 16, 64};
  config.quantum_cycles = 100'000;
  const std::vector<std::string>& mix = workload::spec2006_pool();
  std::vector<std::size_t> groups;
  for (std::size_t i = 0; i < mix.size(); ++i) groups.push_back(i % 8);
  const auto run = [&](bool signature) { return pinned_run(config, signature, mix, groups, 0.02); };
  expect_same_simulation(run(true), run(false));
}

TEST(SignatureInvariance, Hypervisor) {
  const std::vector<std::string> mix = {"gcc", "libquantum", "sjeng", "hmmer"};
  const std::vector<std::size_t> groups = {0, 0, 1, 1};
  const auto run = [&](bool signature) {
    machine::MachineConfig config = machine::core2duo_config();
    config.hierarchy.signature.enabled = signature;
    workload::ScaleConfig scale;
    scale.l2_bytes = config.hierarchy.l2.size_bytes;
    scale.length_scale = 0.02;
    vm::Hypervisor hv(config, vm::VmConfig{});
    util::Rng rng(9);
    std::vector<vm::DomainId> domains;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      domains.push_back(hv.create_domain(workload::make_spec_workload(
          mix[i], machine::address_space_base(i), rng.split(i + 1), scale)));
      hv.set_domain_affinity(domains.back(), groups[i]);
    }
    RunSummary out;
    out.completed = hv.run_to_all_complete(2'000'000'000);
    for (const auto dom : domains) out.user_cycles.push_back(hv.domain_user_cycles(dom));
    collect_machine_state(hv.machine(), out);
    return out;
  };
  expect_same_simulation(run(true), run(false));
}

}  // namespace
}  // namespace symbiosis::core

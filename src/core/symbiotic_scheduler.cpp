#include "core/symbiotic_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/profile.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sched/policy.hpp"
#include "util/log.hpp"
#include "workload/parsec_model.hpp"

namespace symbiosis::core {

SymbioticScheduler::SymbioticScheduler(PipelineConfig config) : config_(std::move(config)) {
  if (config_.machine.hierarchy.num_cores < 2) {
    throw std::invalid_argument("SymbioticScheduler: need at least 2 cores");
  }
}

std::vector<machine::TaskId> add_mix_tasks(machine::Machine& m,
                                           const std::vector<std::string>& mix,
                                           const workload::ScaleConfig& scale,
                                           std::uint64_t seed) {
  std::vector<machine::TaskId> ids;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    auto workload = workload::make_spec_workload(mix[i], machine::address_space_base(i),
                                                 rng.split(i + 1), scale);
    ids.push_back(m.add_task(std::move(workload)));
  }
  return ids;
}

sched::Allocation SymbioticScheduler::run_phase1(machine::Machine& m,
                                                 const std::string& allocator_name) {
  votes_.clear();
  vote_allocations_.clear();

  auto allocator = sched::make_allocator(allocator_name, config_.seed);
  const std::size_t cores = config_.machine.hierarchy.num_cores;
  const auto ids = profiled_task_ids(m);

  m.set_periodic_hook(config_.allocator_period_cycles, [&](machine::Machine& mm) {
    auto profiles = collect_profiles(mm);
    // Every task must have been context-switched out at least once this
    // window, or its signature is stale noise; skip the vote if not.
    const bool ready = std::all_of(profiles.begin(), profiles.end(), [&](const auto& p) {
      return mm.task(ids[p.task_index]).signature().samples() > 0;
    });
    if (!ready) return;
    const sched::Allocation alloc = allocator->allocate(profiles, cores);
    const std::string key = alloc.key();
    obs::counter("core.phase1.votes").add(1);
    ++votes_[key];
    vote_allocations_.emplace(key, alloc.canonical());
    // §4.1: during emulation the allocator only VOTES — tasks keep running
    // under default OS scheduling (with load-balancer migration), so the
    // signatures sample each process against varied co-runners instead of
    // freezing the initial pairing. The majority pick is applied in
    // phase 2 on the "real" machine.
    clear_signature_windows(mm);
  });

  // Fixed emulation window; finished benchmarks restart and keep feeding
  // signatures (§4.1 fast-forwards then emulates a fixed instruction count).
  SYM_RECORD((obs::PhaseEvent{m.now(), "phase1.emulate"}));
  m.run_for(config_.emulation_cycles);
  SYM_RECORD((obs::PhaseEvent{m.now(), "phase1.vote"}));

  if (votes_.empty()) {
    SYMBIOSIS_LOG_WARN("phase 1 cast no votes (emulation too short?); using default mapping");
    sched::DefaultAllocator fallback;
    return fallback.allocate(collect_profiles(m), cores);
  }
  const auto winner = std::max_element(
      votes_.begin(), votes_.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return vote_allocations_.at(winner->first);
}

sched::Allocation SymbioticScheduler::choose_allocation(const std::vector<std::string>& mix) {
  machine::Machine m(config_.machine);
  (void)add_mix_tasks(m, mix, config_.scale, config_.seed);
  return run_phase1(m, config_.allocator);
}

sched::Allocation SymbioticScheduler::choose_allocation_mt(const std::vector<std::string>& mix) {
  machine::Machine m(config_.machine);
  util::Rng rng(config_.seed);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const auto spec = workload::make_parsec_benchmark(mix[i], config_.scale);
    auto threads = workload::make_parsec_threads(spec, machine::address_space_base(i),
                                                 rng.split(i + 1));
    for (auto& thread : threads) m.add_thread(std::move(thread), /*pid=*/i);
  }
  return run_phase1(m, "multithread");
}

namespace {

/// The phase-2 machine: config.machine with the signature unit off. Nothing
/// in phase 2 reads a signature, and the unit never touches simulated time
/// (pinned by tests/test_signature_invariance.cpp), so the measured run is
/// the same with or without it.
machine::MachineConfig measurement_machine(const PipelineConfig& config) {
  machine::MachineConfig mc = config.machine;
  mc.hierarchy.signature.enabled = false;
  return mc;
}

/// Attach per-level cache counters (schema v2). Degenerate two-level
/// machines skip this so their v1 report stays byte-identical to the
/// pre-graph implementation.
void collect_level_stats(const machine::Machine& m, MappingRun& run) {
  if (m.config().hierarchy.degenerate()) return;
  const cachesim::Hierarchy& h = m.hierarchy();
  run.levels.push_back({"l1", h.level_stats("l1")});
  run.levels.push_back({"l2", h.level_stats("l2")});
  if (h.has_l3()) run.levels.push_back({"l3", h.level_stats("l3")});
}

MappingRun finish_run(machine::Machine& m, const std::vector<machine::TaskId>& ids,
                      const sched::Allocation& allocation, bool completed) {
  MappingRun run;
  run.allocation = allocation;
  run.completed = completed;
  run.wall_cycles = m.now();
  for (const auto id : ids) {
    const machine::Task& task = m.task(id);
    run.names.push_back(task.name());
    run.user_cycles.push_back(task.first_completion_user_cycles);
  }
  collect_level_stats(m, run);
  return run;
}

}  // namespace

MappingRun measure_mapping(const PipelineConfig& config, const std::vector<std::string>& mix,
                           const sched::Allocation& allocation) {
  if (allocation.group_of.size() != mix.size()) {
    throw std::invalid_argument("measure_mapping: allocation size != mix size");
  }
  machine::Machine m(measurement_machine(config));
  const auto ids = add_mix_tasks(m, mix, config.scale, config.seed);
  apply_allocation(m, ids, allocation);
  const bool completed = m.run_to_all_complete(config.measure_max_cycles);
  return finish_run(m, ids, allocation, completed);
}

MappingRun measure_mapping_vm(const PipelineConfig& config, const std::vector<std::string>& mix,
                              const sched::Allocation& allocation) {
  if (allocation.group_of.size() != mix.size()) {
    throw std::invalid_argument("measure_mapping_vm: allocation size != mix size");
  }
  vm::Hypervisor hv(measurement_machine(config), config.vm);

  util::Rng rng(config.seed);
  std::vector<vm::DomainId> domains;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    auto workload = workload::make_spec_workload(mix[i], machine::address_space_base(i),
                                                 rng.split(i + 1), config.scale);
    domains.push_back(hv.create_domain(std::move(workload)));
  }
  for (std::size_t i = 0; i < domains.size(); ++i) {
    hv.set_domain_affinity(domains[i], allocation.group_of[i]);
  }
  const bool completed = hv.run_to_all_complete(config.measure_max_cycles);

  MappingRun run;
  run.allocation = allocation;
  run.completed = completed;
  run.wall_cycles = hv.machine().now();
  for (const auto dom : domains) {
    run.names.push_back(hv.domain_name(dom));
    run.user_cycles.push_back(hv.domain_user_cycles(dom));
  }
  collect_level_stats(hv.machine(), run);
  return run;
}

MappingRun measure_mapping_mt(const PipelineConfig& config, const std::vector<std::string>& mix,
                              const sched::Allocation& allocation) {
  machine::Machine m(measurement_machine(config));
  util::Rng rng(config.seed);
  std::vector<std::vector<machine::TaskId>> process_threads;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const auto spec = workload::make_parsec_benchmark(mix[i], config.scale);
    auto threads = workload::make_parsec_threads(spec, machine::address_space_base(i),
                                                 rng.split(i + 1));
    std::vector<machine::TaskId> ids;
    for (auto& thread : threads) ids.push_back(m.add_thread(std::move(thread), /*pid=*/i));
    process_threads.push_back(std::move(ids));
  }

  const auto flat_ids = profiled_task_ids(m);
  if (allocation.group_of.size() != flat_ids.size()) {
    throw std::invalid_argument("measure_mapping_mt: allocation size != thread count");
  }
  apply_allocation(m, flat_ids, allocation);
  const bool completed = m.run_to_all_complete(config.measure_max_cycles);

  MappingRun run;
  run.allocation = allocation;
  run.completed = completed;
  run.wall_cycles = m.now();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::uint64_t user = 0;
    for (const auto id : process_threads[i]) user += m.task(id).first_completion_user_cycles;
    run.names.push_back(mix[i]);
    run.user_cycles.push_back(user);
  }
  collect_level_stats(m, run);
  return run;
}

}  // namespace symbiosis::core

#include "core/profile.hpp"

#include <stdexcept>

namespace symbiosis::core {

namespace {

sched::TaskProfile profile_of(const machine::Task& task) {
  sched::TaskProfile p;
  p.pid = task.pid();
  p.name = task.name();
  const auto& signature = task.signature();
  p.occupancy_weight = signature.mean_occupancy();
  p.last_core = signature.last_core();
  p.symbiosis_per_core.resize(signature.num_cores());
  for (std::size_t c = 0; c < signature.num_cores(); ++c) {
    p.symbiosis_per_core[c] = signature.mean_symbiosis(c);
  }
  const auto& counters = task.counters();
  p.l2_misses_per_kilo_instr =
      counters.instructions
          ? 1000.0 * static_cast<double>(counters.l2_misses) /
                static_cast<double>(counters.instructions)
          : 0.0;
  return p;
}

}  // namespace

std::vector<sched::TaskProfile> collect_profiles(const machine::Machine& m) {
  std::vector<sched::TaskProfile> profiles;
  for (machine::TaskId id = 0; id < m.task_count(); ++id) {
    const machine::Task& task = m.task(id);
    if (task.background) continue;
    sched::TaskProfile p = profile_of(task);
    p.task_index = profiles.size();
    profiles.push_back(std::move(p));
  }
  return profiles;
}

std::vector<sched::TaskProfile> window_profiles(const machine::Machine& m) {
  for (machine::TaskId id = 0; id < m.task_count(); ++id) {
    const machine::Task& task = m.task(id);
    if (!task.background && task.signature().samples() == 0) return {};
  }
  return collect_profiles(m);
}

void apply_allocation(machine::Machine& m, const std::vector<machine::TaskId>& ids,
                      const sched::Allocation& allocation) {
  if (ids.size() != allocation.group_of.size()) {
    throw std::invalid_argument("apply_allocation: allocation/task count mismatch");
  }
  if (allocation.groups > m.config().hierarchy.num_cores) {
    throw std::invalid_argument("apply_allocation: more groups than cores");
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    m.set_affinity(ids[i], allocation.group_of[i]);
  }
}

void clear_signature_windows(machine::Machine& m) {
  for (machine::TaskId id = 0; id < m.task_count(); ++id) {
    m.task(id).signature().clear_window();
  }
}

}  // namespace symbiosis::core

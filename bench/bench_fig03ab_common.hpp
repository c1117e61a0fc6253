// Shared driver for Figures 3(a) and 3(b): all pairs of the 12-program
// pool, reporting each benchmark's WORST-CASE user-time degradation
// relative to running standalone. The solo and pair machines run on a pool
// sized to the host; the results are folded in pair order afterwards.
#pragma once

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::bench {

struct PairSweepResult {
  std::map<std::string, double> worst_degradation;  // per benchmark
  std::map<std::string, std::string> worst_partner;
};

/// Run every unordered pair of pool programs on @p cfg.
/// @param same_core  true = both pinned to core 0 (the paper's private-L2
///                   P4 experiment); false = one per core (shared-L2 C2D).
[[nodiscard]] inline PairSweepResult run_pair_sweep(const machine::MachineConfig& cfg,
                                                    bool same_core, double length_scale,
                                                    std::uint64_t seed) {
  workload::ScaleConfig scale;
  scale.l2_bytes = cfg.hierarchy.l2.size_bytes;
  scale.length_scale = length_scale;
  const auto& pool = workload::spec2006_pool();

  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) pairs.emplace_back(i, j);
  }
  // Every solo and pair machine is its own task writing its own slot.
  std::vector<std::uint64_t> solo_cycles(pool.size());
  std::vector<std::array<std::uint64_t, 2>> pair_cycles(pairs.size());
  util::ThreadPool workers;
  workers.parallel_for(0, pool.size() + pairs.size(), [&](std::size_t t) {
    machine::Machine m(cfg);
    if (t < pool.size()) {
      const auto id = m.add_task(
          workload::make_spec_workload(pool[t], machine::address_space_base(0), util::Rng{seed},
                                       scale),
          0);
      m.run_to_all_complete(0);
      solo_cycles[t] = m.task(id).first_completion_user_cycles;
      return;
    }
    const auto [i, j] = pairs[t - pool.size()];
    const auto a = m.add_task(workload::make_spec_workload(pool[i], machine::address_space_base(0),
                                                           util::Rng{seed + 1}, scale),
                              0);
    const auto b = m.add_task(workload::make_spec_workload(pool[j], machine::address_space_base(1),
                                                           util::Rng{seed + 2}, scale),
                              same_core ? 0 : 1);
    m.run_to_all_complete(0);
    pair_cycles[t - pool.size()] = {m.task(a).first_completion_user_cycles,
                                     m.task(b).first_completion_user_cycles};
  });

  // Standalone baselines.
  std::map<std::string, double> solo;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    solo[pool[i]] = static_cast<double>(solo_cycles[i]);
  }

  PairSweepResult result;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [i, j] = pairs[p];
    for (const auto& [cycles, name, other] : {std::tuple{pair_cycles[p][0], pool[i], pool[j]},
                                              std::tuple{pair_cycles[p][1], pool[j], pool[i]}}) {
      const double degradation = static_cast<double>(cycles) / solo[name] - 1.0;
      if (degradation > result.worst_degradation[name]) {
        result.worst_degradation[name] = degradation;
        result.worst_partner[name] = other;
      }
    }
  }
  return result;
}

inline void print_pair_sweep(const PairSweepResult& result) {
  util::TextTable table({"benchmark", "worst-case degradation", "worst partner"});
  double peak = 0.0;
  std::string peak_name;
  for (const auto& name : workload::spec2006_pool()) {
    const auto it = result.worst_degradation.find(name);
    const double d = it == result.worst_degradation.end() ? 0.0 : it->second;
    table.add_row({name, util::TextTable::pct(d),
                   result.worst_partner.count(name) ? result.worst_partner.at(name) : "-"});
    if (d > peak) {
      peak = d;
      peak_name = name;
    }
  }
  table.print();
  std::printf("\npeak degradation: %s for %s\n", util::TextTable::pct(peak).c_str(),
              peak_name.c_str());
}

}  // namespace symbiosis::bench

#include "core/symbiotic_scheduler.hpp"

#include "core/experiment.hpp"
#include "workload/parsec_model.hpp"

namespace symbiosis::core {

sched::Allocation SymbioticScheduler::choose_allocation(const std::vector<std::string>& mix) {
  PhaseVote vote = run_vote(VoteTask{config_, mix});
  votes_ = std::move(vote.votes);
  return vote.chosen;
}

MappingRun measure_mapping(const PipelineConfig& config, const std::vector<std::string>& mix,
                           const sched::Allocation& allocation) {
  return run_measurement(MeasureTask{config, mix, allocation});
}

std::vector<workload::StreamGroup> build_mix(const std::vector<std::string>& mix,
                                             const workload::ScaleConfig& scale,
                                             std::uint64_t seed, bool multithreaded) {
  const util::Rng rng(seed);
  std::vector<workload::StreamGroup> groups(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const cachesim::Addr base = machine::address_space_base(i);
    if (!multithreaded) {
      groups[i].push_back(workload::make_spec_workload(mix[i], base, rng.split(i + 1), scale));
      continue;
    }
    const auto spec = workload::make_parsec_benchmark(mix[i], scale);
    for (auto& thread : workload::make_parsec_threads(spec, base, rng.split(i + 1))) {
      groups[i].push_back(std::move(thread));
    }
  }
  return groups;
}

std::vector<machine::TaskId> add_mix_tasks(machine::Machine& m,
                                           const std::vector<std::string>& mix,
                                           const workload::ScaleConfig& scale,
                                           std::uint64_t seed) {
  std::vector<machine::TaskId> ids;
  for (auto& group : build_mix(mix, scale, seed)) {
    ids.push_back(m.add_process(std::move(group)).front());
  }
  return ids;
}

}  // namespace symbiosis::core

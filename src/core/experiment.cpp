#include "core/experiment.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/profile.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sched/policy.hpp"
#include "util/log.hpp"
#include "workload/parsec_model.hpp"

namespace symbiosis::core {

std::uint64_t MixOutcome::worst_user_cycles(std::size_t i) const {
  std::uint64_t worst = 0;
  for (const auto& run : mappings) worst = std::max(worst, run.user_cycles.at(i));
  return worst;
}

std::uint64_t MixOutcome::best_user_cycles(std::size_t i) const {
  std::uint64_t best = ~std::uint64_t{0};
  for (const auto& run : mappings) best = std::min(best, run.user_cycles.at(i));
  return best;
}

double MixOutcome::improvement_vs_worst(std::size_t i) const {
  const auto worst = worst_user_cycles(i);
  if (worst == 0) return 0.0;
  const auto chosen_cycles = mappings.at(chosen).user_cycles.at(i);
  return static_cast<double>(worst - chosen_cycles) / static_cast<double>(worst);
}

double MixOutcome::oracle_improvement(std::size_t i) const {
  const auto worst = worst_user_cycles(i);
  if (worst == 0) return 0.0;
  return static_cast<double>(worst - best_user_cycles(i)) / static_cast<double>(worst);
}

namespace {

/// Random balanced mappings a multithreaded cell samples for its reference
/// set (duplicates are dropped).
constexpr std::size_t kSampledMappings = 6;

/// Phase 1 needs at least two cores to have a mapping to choose.
void require_two_cores(const PipelineConfig& config) {
  if (config.machine.hierarchy.num_cores < 2) {
    throw std::invalid_argument("phase 1: need at least 2 cores");
  }
}

/// The paper measures PARSEC threads natively (Fig 12), never in VMs.
void reject_virtualized_threads(const PipelineConfig& config, bool multithreaded) {
  if (multithreaded && config.virtualized) {
    throw std::invalid_argument(
        "multithreaded with config.virtualized: PARSEC threads are measured natively");
  }
}

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

/// A cell's reference mappings: every balanced mapping, or for a
/// multithreaded mix the default round-robin plus distinct random balanced
/// samples over all of its threads.
std::vector<sched::Allocation> reference_mappings(const ExperimentCell& cell) {
  const std::size_t cores = cell.config.machine.hierarchy.num_cores;
  if (!cell.multithreaded) return sched::enumerate_balanced_allocations(cell.mix.size(), cores);

  std::size_t threads = 0;
  for (const auto& name : cell.mix) {
    threads += workload::make_parsec_benchmark(name, cell.config.scale).threads;
  }
  const std::vector<sched::TaskProfile> dummy(threads);
  std::vector<sched::Allocation> refs;
  sched::DefaultAllocator default_alloc;
  refs.push_back(default_alloc.allocate(dummy, cores));
  std::set<std::string> seen{refs.front().key()};
  for (std::size_t s = 0; s < kSampledMappings; ++s) {
    sched::RandomAllocator random_alloc(cell.config.seed + 7919 * (s + 1));
    sched::Allocation alloc = random_alloc.allocate(dummy, cores);
    if (seen.insert(alloc.key()).second) refs.push_back(std::move(alloc));
  }
  return refs;
}

}  // namespace

PhaseVote run_vote(const VoteTask& task) {
  const PipelineConfig& config = task.config;
  require_two_cores(config);
  machine::Machine m(config.machine);
  for (auto& group : build_mix(task.mix, config.scale, config.seed, task.multithreaded)) {
    (void)m.add_process(std::move(group));
  }
  auto allocator =
      sched::make_allocator(task.multithreaded ? "multithread" : config.allocator, config.seed);
  const std::size_t cores = config.machine.hierarchy.num_cores;
  const auto ids = profiled_task_ids(m);

  PhaseVote vote;
  std::map<std::string, sched::Allocation> voted;
  m.set_periodic_hook(config.allocator_period_cycles, [&](machine::Machine& mm) {
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
    ++vote.votes[key];
    voted.emplace(key, alloc.canonical());
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
  m.run_for(config.emulation_cycles);
  SYM_RECORD((obs::PhaseEvent{m.now(), "phase1.vote"}));

  if (vote.votes.empty()) {
    SYMBIOSIS_LOG_WARN("phase 1 cast no votes (emulation too short?); using default mapping");
    sched::DefaultAllocator fallback;
    vote.chosen = fallback.allocate(collect_profiles(m), cores);
    return vote;
  }
  const auto winner = std::max_element(
      vote.votes.begin(), vote.votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  vote.chosen = voted.at(winner->first);
  return vote;
}

MappingRun run_measurement(const MeasureTask& task) {
  const PipelineConfig& config = task.config;
  reject_virtualized_threads(config, task.multithreaded);
  // A VM is one domain per program on the hypervisor's machine.
  std::optional<vm::Hypervisor> hv;
  std::optional<machine::Machine> native;
  if (config.virtualized) {
    hv.emplace(measurement_machine(config), config.vm);
  } else {
    native.emplace(measurement_machine(config));
  }
  machine::Machine& m = hv ? hv->machine() : *native;
  std::vector<std::vector<machine::TaskId>> programs;
  std::vector<machine::TaskId> tasks;
  for (auto& group : build_mix(task.mix, config.scale, config.seed, task.multithreaded)) {
    programs.push_back(hv ? hv->vcpus_of(hv->create_domain(std::move(group)))
                          : m.add_process(std::move(group)));
    tasks.insert(tasks.end(), programs.back().begin(), programs.back().end());
  }
  apply_allocation(m, tasks, task.allocation);
  const bool completed = hv ? hv->run_to_all_complete(config.measure_max_cycles)
                            : m.run_to_all_complete(config.measure_max_cycles);

  MappingRun run;
  run.allocation = task.allocation;
  run.completed = completed;
  run.wall_cycles = m.now();
  for (std::size_t i = 0; i < task.mix.size(); ++i) {
    std::uint64_t user = 0;
    for (const auto id : programs[i]) user += m.task(id).first_completion_user_cycles;
    run.names.push_back(task.mix[i]);
    run.user_cycles.push_back(user);
  }
  collect_level_stats(m, run);
  return run;
}

PhaseResults run_phase_tasks(const std::vector<VoteTask>& votes,
                             const std::vector<MeasureTask>& measurements,
                             util::ThreadPool* pool) {
  PhaseResults results;
  results.votes.resize(votes.size());
  results.runs.resize(measurements.size());
  // Task t < votes.size() is a vote; parallel_for queues tasks in index
  // order, so every vote is queued before the first measurement.
  const auto run_task = [&](std::size_t t) {
    if (t < votes.size()) {
      results.votes[t] = run_vote(votes[t]);
    } else {
      results.runs[t - votes.size()] = run_measurement(measurements[t - votes.size()]);
    }
  };
  const std::size_t tasks = votes.size() + measurements.size();
  if (pool) {
    pool->parallel_for(0, tasks, run_task);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) run_task(t);
  }
  return results;
}

std::vector<MixOutcome> run_experiment_cells(const std::vector<ExperimentCell>& cells,
                                             util::ThreadPool* pool) {
  // A config the phases reject is reported as they report it, before any
  // mapping is enumerated or any task runs.
  for (const auto& cell : cells) {
    require_two_cores(cell.config);
    reject_virtualized_threads(cell.config, cell.multithreaded);
  }

  // First wave: one vote per cell, then each cell's reference mappings in
  // order; first_ref[c] is where cell c's runs start.
  std::vector<VoteTask> votes;
  std::vector<MeasureTask> refs;
  std::vector<std::size_t> first_ref;
  votes.reserve(cells.size());
  first_ref.reserve(cells.size() + 1);
  for (const auto& cell : cells) {
    votes.push_back(VoteTask{cell.config, cell.mix, cell.multithreaded});
    first_ref.push_back(refs.size());
    for (auto& alloc : reference_mappings(cell)) {
      refs.push_back(MeasureTask{cell.config, cell.mix, std::move(alloc), cell.multithreaded});
    }
  }
  first_ref.push_back(refs.size());
  obs::counter("core.mixes.run").add(cells.size());
  PhaseResults first = run_phase_tasks(votes, refs, pool);

  // Locate each cell's choice among its references. A choice outside them
  // (an unbalanced phase-1 pick, or a multithreaded pick off the sample) is
  // measured in a second wave and appended to that cell's mappings.
  std::vector<MixOutcome> outcomes(cells.size());
  std::vector<MeasureTask> extras;
  std::vector<std::size_t> extra_cell;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    MixOutcome& outcome = outcomes[c];
    outcome.mix = cells[c].mix;
    outcome.votes = std::move(first.votes[c].votes);
    const auto begin = first.runs.begin() + static_cast<std::ptrdiff_t>(first_ref[c]);
    const auto end = first.runs.begin() + static_cast<std::ptrdiff_t>(first_ref[c + 1]);
    outcome.mappings.assign(std::make_move_iterator(begin), std::make_move_iterator(end));
    const sched::Allocation& chosen = first.votes[c].chosen;
    const auto found =
        std::find_if(outcome.mappings.begin(), outcome.mappings.end(),
                     [&](const MappingRun& run) { return run.allocation == chosen; });
    outcome.chosen = static_cast<std::size_t>(found - outcome.mappings.begin());
    if (found == outcome.mappings.end()) {
      extras.push_back(MeasureTask{cells[c].config, cells[c].mix, chosen, cells[c].multithreaded});
      extra_cell.push_back(c);
    }
  }
  PhaseResults second = run_phase_tasks({}, extras, pool);
  for (std::size_t e = 0; e < extras.size(); ++e) {
    outcomes[extra_cell[e]].mappings.push_back(std::move(second.runs[e]));
  }
  return outcomes;
}

std::vector<std::vector<std::string>> sample_mixes(const std::vector<std::string>& pool,
                                                   std::size_t mix_size,
                                                   std::size_t per_benchmark,
                                                   std::uint64_t seed) {
  if (pool.size() < mix_size) throw std::invalid_argument("sample_mixes: pool too small");
  const std::size_t n = pool.size();
  std::vector<std::vector<std::string>> mixes;
  std::set<std::vector<std::size_t>> seen;
  util::Rng rng(seed);
  std::vector<std::size_t> appearances(n, 0);

  // Rotation pass: deterministic coverage with varied partners, then top up
  // any under-covered benchmark with random draws.
  for (std::size_t round = 0; round < per_benchmark + 4; ++round) {
    const bool all_covered = std::all_of(appearances.begin(), appearances.end(),
                                         [&](std::size_t a) { return a >= per_benchmark; });
    if (all_covered) break;
    for (std::size_t i = 0; i < n; ++i) {
      if (appearances[i] >= per_benchmark) continue;
      std::vector<std::size_t> mix{i};
      // Partners: a rotation pattern for early rounds, random later.
      for (std::size_t k = 1; k < mix_size; ++k) {
        std::size_t candidate;
        if (round < 2) {
          candidate = (i + round * 3 + k * (round + 2)) % n;
        } else {
          candidate = rng.next_below(n);
        }
        while (std::find(mix.begin(), mix.end(), candidate) != mix.end()) {
          candidate = (candidate + 1) % n;
        }
        mix.push_back(candidate);
      }
      std::vector<std::size_t> key = mix;
      std::sort(key.begin(), key.end());
      if (!seen.insert(key).second) continue;
      for (const auto idx : mix) ++appearances[idx];
      std::vector<std::string> named;
      named.reserve(mix_size);
      for (const auto idx : key) named.push_back(pool[idx]);
      mixes.push_back(std::move(named));
    }
  }
  return mixes;
}

std::vector<BenchmarkImprovement> summarize_improvements(
    const std::vector<std::string>& pool, const std::vector<MixOutcome>& outcomes) {
  std::vector<BenchmarkImprovement> summary;
  summary.reserve(pool.size());
  for (const auto& name : pool) {
    BenchmarkImprovement agg;
    agg.name = name;
    for (const auto& outcome : outcomes) {
      for (std::size_t i = 0; i < outcome.mix.size(); ++i) {
        if (outcome.mix[i] != name) continue;
        const double improvement = outcome.improvement_vs_worst(i);
        agg.max_improvement = std::max(agg.max_improvement, improvement);
        agg.sum_improvement += improvement;
        const double oracle = outcome.oracle_improvement(i);
        agg.max_oracle = std::max(agg.max_oracle, oracle);
        agg.sum_oracle += oracle;
        ++agg.mixes;
      }
    }
    summary.push_back(std::move(agg));
  }
  return summary;
}

SweepGridResult run_sweep_grid(const PipelineConfig& config, const std::vector<std::string>& pool,
                               std::size_t mix_size, std::size_t per_benchmark,
                               const std::vector<std::string>& algorithms,
                               std::size_t seed_replicates, bool multithreaded,
                               util::ThreadPool* pool_threads) {
  if (algorithms.empty()) throw std::invalid_argument("run_sweep_grid: no algorithms");
  if (seed_replicates == 0) throw std::invalid_argument("run_sweep_grid: zero replicates");
  SweepGridResult result;
  result.mixes = sample_mixes(pool, mix_size, per_benchmark, config.seed);
  result.cells.reserve(result.mixes.size() * algorithms.size() * seed_replicates);
  for (std::size_t m = 0; m < result.mixes.size(); ++m) {
    for (const auto& algorithm : algorithms) {
      for (std::size_t r = 0; r < seed_replicates; ++r) {
        result.cells.push_back(SweepCell{m, algorithm, r, config.seed});
      }
    }
  }
  SYMBIOSIS_LOG_INFO("run_sweep_grid: %zu cells (%zu mixes x %zu algorithms x %zu replicates)",
                     result.cells.size(), result.mixes.size(), algorithms.size(),
                     seed_replicates);

  // Replicate seeds come from per-cell substreams of `base` (only the const
  // .split() is called), so a cell's config depends on its index alone.
  const util::Rng base(config.seed);
  std::vector<ExperimentCell> cells;
  cells.reserve(result.cells.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    SweepCell& cell = result.cells[i];
    PipelineConfig cell_config = config;
    cell_config.allocator = cell.allocator;
    if (cell.replicate != 0) {
      util::Rng cell_rng = base.split(static_cast<std::uint64_t>(i));
      cell_config.seed = cell_rng();
      cell.seed = cell_config.seed;
    }
    cells.push_back(
        ExperimentCell{std::move(cell_config), result.mixes[cell.mix_index], multithreaded});
  }
  result.outcomes = run_experiment_cells(cells, pool_threads);
  return result;
}

}  // namespace symbiosis::core

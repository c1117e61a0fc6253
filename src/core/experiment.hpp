// experiment.hpp — the paper's measurement harness (§4.2, Table 1, Figs
// 10–13): run EVERY possible mapping of a mix, find which one phase 1
// chose, and report per-benchmark improvements of the chosen mapping over
// the worst mapping.
//
// Everything here runs on one phase-task engine: each phase-1 emulation
// and each phase-2 measurement is its own util::ThreadPool task that
// builds its own machine and writes one fixed result slot, so every result
// is bit-identical at any worker count (tests/test_determinism.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/symbiotic_scheduler.hpp"
#include "util/threadpool.hpp"

namespace symbiosis::core {

/// Full outcome of one mix: all mappings measured + the phase-1 choice.
struct MixOutcome {
  std::vector<std::string> mix;
  std::vector<MappingRun> mappings;  ///< every enumerated balanced mapping
  std::size_t chosen = 0;            ///< index into mappings of the phase-1 pick
  std::map<std::string, int> votes;  ///< the phase-1 vote table

  /// Worst (max) user time of entity @p i across all mappings.
  [[nodiscard]] std::uint64_t worst_user_cycles(std::size_t i) const;
  /// Best (min) user time of entity @p i across all mappings.
  [[nodiscard]] std::uint64_t best_user_cycles(std::size_t i) const;
  /// Improvement of the CHOSEN mapping over the worst for entity @p i, as
  /// the paper reports it: (worst - chosen) / worst.
  [[nodiscard]] double improvement_vs_worst(std::size_t i) const;
  /// Headroom: improvement of the best possible mapping over the worst.
  [[nodiscard]] double oracle_improvement(std::size_t i) const;

  /// Field-wise equality: the determinism suite asserts serial and
  /// thread-pool sweeps produce BIT-IDENTICAL outcomes for one seed.
  [[nodiscard]] bool operator==(const MixOutcome&) const = default;
};

// --- the phase-task engine ------------------------------------------------

/// One phase-1 emulation: @p mix votes under @p config (SPEC processes and
/// config.allocator, or PARSEC threads and the two-phase algorithm).
struct VoteTask {
  PipelineConfig config;
  std::vector<std::string> mix;
  bool multithreaded = false;
};

/// What one phase-1 emulation decided.
struct PhaseVote {
  sched::Allocation chosen;          ///< the majority allocation
  std::map<std::string, int> votes;  ///< the vote table behind it

  [[nodiscard]] bool operator==(const PhaseVote&) const = default;
};

/// One phase-2 measurement: @p mix pinned per @p allocation, natively, in
/// VMs (config.virtualized) or as PARSEC threads (@p multithreaded).
struct MeasureTask {
  PipelineConfig config;
  std::vector<std::string> mix;
  sched::Allocation allocation;
  bool multithreaded = false;
};

/// Results slot for slot: votes[i] answers the i-th VoteTask, runs[j] the
/// j-th MeasureTask.
struct PhaseResults {
  std::vector<PhaseVote> votes;
  std::vector<MappingRun> runs;
};

/// Run every task as its own @p pool task (in order on the calling thread
/// when null). Votes are queued before measurements because they are the
/// longest; the first exception is rethrown once every queued task has
/// finished.
[[nodiscard]] PhaseResults run_phase_tasks(const std::vector<VoteTask>& votes,
                                           const std::vector<MeasureTask>& measurements,
                                           util::ThreadPool* pool = nullptr);

/// One experiment cell: phase 1 of @p mix under @p config, then its
/// reference mappings — every balanced mapping, or for @p multithreaded
/// mixes {default, @p sampled_mappings random balanced mappings} — and the
/// chosen mapping when it falls outside that set.
struct ExperimentCell {
  PipelineConfig config;
  std::vector<std::string> mix;
  bool multithreaded = false;
  std::size_t sampled_mappings = 6;
};

/// Run @p cells on the engine: every phase 1 and every reference mapping
/// is one task, then, once every vote is in, one task per chosen mapping
/// outside its cell's reference set. outcomes[i] is cells[i]'s. No work is
/// shared between cells.
[[nodiscard]] std::vector<MixOutcome> run_experiment_cells(
    const std::vector<ExperimentCell>& cells, util::ThreadPool* pool = nullptr);

/// Run the full experiment for one single-threaded mix. When
/// config.virtualized is set, phase 2 measures inside VMs (phase 1 stays
/// process-based, as in the paper — Simics could not run Xen). @p pool
/// spreads the cell's phase runs; the outcome does not depend on it.
[[nodiscard]] MixOutcome run_mix_experiment(const PipelineConfig& config,
                                            const std::vector<std::string>& mix,
                                            util::ThreadPool* pool = nullptr);

/// Multi-threaded variant: thread-level mappings cannot be enumerated
/// exhaustively (C(16,8) for four 4-thread apps), so the reference set is
/// {default, chosen, @p sampled_mappings random balanced mappings} and
/// improvements are relative to the worst of that set. This substitution
/// is recorded in DESIGN.md.
[[nodiscard]] MixOutcome run_mix_experiment_mt(const PipelineConfig& config,
                                               const std::vector<std::string>& mix,
                                               std::size_t sampled_mappings = 6,
                                               util::ThreadPool* pool = nullptr);

/// Deterministic sample of distinct mixes of @p mix_size from @p pool such
/// that every pool entry appears in at least @p per_benchmark mixes.
[[nodiscard]] std::vector<std::vector<std::string>> sample_mixes(
    const std::vector<std::string>& pool, std::size_t mix_size, std::size_t per_benchmark,
    std::uint64_t seed);

/// Per-benchmark aggregate across many mix outcomes (a Fig 10/11/12 bar).
struct BenchmarkImprovement {
  std::string name;
  double max_improvement = 0.0;
  double sum_improvement = 0.0;
  double max_oracle = 0.0;   ///< best-mapping headroom (diagnostic)
  double sum_oracle = 0.0;
  int mixes = 0;

  [[nodiscard]] double avg_improvement() const noexcept {
    return mixes ? sum_improvement / mixes : 0.0;
  }
  [[nodiscard]] double avg_oracle() const noexcept { return mixes ? sum_oracle / mixes : 0.0; }

  [[nodiscard]] bool operator==(const BenchmarkImprovement&) const = default;
};

/// Fold outcomes into per-benchmark max/avg improvements, ordered by @p pool.
[[nodiscard]] std::vector<BenchmarkImprovement> summarize_improvements(
    const std::vector<std::string>& pool, const std::vector<MixOutcome>& outcomes);

/// One (mix, allocator, seed-replicate) cell of a sweep grid.
struct SweepCell {
  std::size_t mix_index = 0;   ///< into SweepGridResult::mixes
  std::string allocator;       ///< sched::make_allocator name
  std::size_t replicate = 0;   ///< 0 = the configured seed, >0 = derived
  std::uint64_t seed = 0;      ///< pipeline seed this cell ran with

  [[nodiscard]] bool operator==(const SweepCell&) const = default;
};

/// Everything a grid sweep produced; outcomes[i] is cells[i]'s result.
struct SweepGridResult {
  std::vector<std::vector<std::string>> mixes;
  std::vector<SweepCell> cells;
  std::vector<MixOutcome> outcomes;

  [[nodiscard]] bool operator==(const SweepGridResult&) const = default;
};

/// Sweep the full (mix × allocator × seed-replicate) grid: every cell is an
/// independent experiment whose phase runs spread across @p pool_threads
/// when non-null (run_experiment_cells). Results land at their cell index
/// and replicate r > 0 derives its pipeline seed from a per-cell substream
/// of config.seed (util::Rng .split(cell), the sanctioned per-shard
/// pattern), so the result is BIT-IDENTICAL for any worker count — the
/// determinism suite pins this at 1/2/8 workers. Replicate 0 keeps
/// config.seed itself, so a grid over
/// {config.allocator} with one replicate is the plain Figs 10–12 sweep:
/// outcomes[i] is mixes[i]'s experiment, and summarize_improvements folds
/// it into the per-benchmark bars.
[[nodiscard]] SweepGridResult run_sweep_grid(const PipelineConfig& config,
                                             const std::vector<std::string>& pool,
                                             std::size_t mix_size, std::size_t per_benchmark,
                                             const std::vector<std::string>& algorithms,
                                             std::size_t seed_replicates = 1,
                                             bool multithreaded = false,
                                             util::ThreadPool* pool_threads = nullptr);

}  // namespace symbiosis::core

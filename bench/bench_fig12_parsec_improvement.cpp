// Figure 12 — multi-threaded PARSEC improvements (two-phase allocation).
//
// Mixes of four 4-thread PARSEC-like programs, scheduled with the §3.3.4
// two-phase algorithm (weight-sort threads within a process, weighted
// interference graph across processes with pinned intra-process edges).
// The paper reports modest gains topping out at 10.1% (ferret), smaller
// than SPEC because PARSEC working sets are more compute-bound.
//
// Thread-level mappings cannot be enumerated exhaustively (C(16,8) = 12870
// per mix), so improvements are measured against the worst of {default,
// chosen, N random balanced mappings} — see DESIGN.md.
#include <cstdio>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/threadpool.hpp"
#include "workload/parsec_model.hpp"

int main(int argc, char** argv) {
  using namespace symbiosis;
  util::ArgParser args("bench_fig12", "Figure 12: PARSEC multi-threaded improvements");
  auto& per_benchmark = args.add_u64("per-benchmark", "mixes each benchmark appears in", 2);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return 1;

  std::printf("=== Figure 12: max/avg improvement per PARSEC program (4 threads each) ===\n\n");
  core::PipelineConfig config = bench::default_pipeline(seed);
  config.scale.length_scale = 0.6;  // 16 schedulable threads per mix
  const auto& pool = workload::parsec_pool();
  util::ThreadPool workers;
  const auto sweep =
      core::run_sweep_grid(config, pool, 4, static_cast<std::size_t>(per_benchmark),
                           {config.allocator}, 1, /*multithreaded=*/true, &workers);
  const auto summary = core::summarize_improvements(pool, sweep.outcomes);
  bench::print_improvements("two-phase multithreaded allocation, chosen-vs-worst-of-sample:",
                            summary);
  std::printf(
      "Expected shape (paper): modest improvements overall (working sets are smaller\n"
      "and more compute-bound than SPEC), with ferret at the top (~10%%).\n");
  return 0;
}

// Figure 11 — per-benchmark improvement when each benchmark runs inside a
// Xen VM.
//
// Same sweep as Figure 10, but phase 2 executes every benchmark in its own
// domain on the hypervisor (per-VM signatures, world-switch costs, Dom0
// pollution, nested-TLB penalty). The paper finds the SAME TREND at lower
// magnitude: max 26% (vs 54% native), average 9.5% (vs 22%).
#include <cstdio>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/threadpool.hpp"

int main(int argc, char** argv) {
  using namespace symbiosis;
  util::ArgParser args("bench_fig11", "Figure 11: VM per-benchmark improvements");
  auto& per_benchmark = args.add_u64("per-benchmark", "mixes each benchmark appears in", 2);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return 1;

  std::printf("=== Figure 11: max/avg improvement per benchmark (inside Xen-like VMs) ===\n\n");
  core::PipelineConfig config = bench::default_pipeline(seed);
  config.virtualized = true;
  const auto& pool = workload::spec2006_pool();
  util::ThreadPool workers;
  const auto sweep = core::run_sweep_grid(config, pool, 4,
                                          static_cast<std::size_t>(per_benchmark),
                                          {config.allocator}, 1, false, &workers);
  const auto summary = core::summarize_improvements(pool, sweep.outcomes);
  bench::print_improvements("weighted interference graph, chosen-vs-worst, VM phase 2:", summary);
  std::printf(
      "Expected shape (paper): the same ordering as Figure 10 but diluted by\n"
      "virtualization overhead — max ~half the native figure, average ~9.5%%.\n");
  return 0;
}

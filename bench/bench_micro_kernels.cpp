// Micro-benchmarks of the runtime-dispatched SIMD kernel layer
// (sig/kernels.hpp): bulk popcount, fused XOR-popcount (the symbiosis
// metric) and the batched all-cores evaluation. Every backend compiled
// into this binary is registered under its own name
// (BM_KernelX/<backend>/...), so one run on AVX2 hardware yields the
// scalar-vs-avx2 speedup the perf gate tracks.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sig/kernels.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace symbiosis;

std::vector<std::uint64_t> random_words(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& word : words) word = rng();
  return words;
}

void bm_popcount(benchmark::State& state, const sig::kernels::KernelOps& ops, std::size_t n) {
  const auto words = random_words(1, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.popcount(words.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}

void bm_symbiosis_eval(benchmark::State& state, const sig::kernels::KernelOps& ops,
                       std::size_t n) {
  // One symbiosis evaluation: popcount(RBV XOR CF) over n 64-bit words.
  const auto rbv = random_words(2, n);
  const auto cf = random_words(3, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.xor_popcount(rbv.data(), cf.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_symbiosis_batch(benchmark::State& state, const sig::kernels::KernelOps& ops,
                        std::size_t cores, std::size_t n) {
  // The FilterUnit::symbiosis_all shape: one RBV against every core's CF.
  const auto rbv = random_words(4, n);
  std::vector<std::vector<std::uint64_t>> filters;
  std::vector<const std::uint64_t*> ptrs;
  for (std::size_t c = 0; c < cores; ++c) {
    filters.push_back(random_words(10 + c, n));
    ptrs.push_back(filters.back().data());
  }
  std::vector<std::size_t> out(cores);
  for (auto _ : state) {
    ops.xor_popcount_many(rbv.data(), ptrs.data(), cores, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * cores));
}

void register_backend(util::SimdBackend backend) {
  const sig::kernels::KernelOps& ops = sig::kernels::kernel_ops(backend);
  const std::string tag(util::simd_backend_name(backend));

  benchmark::RegisterBenchmark(("BM_KernelPopcount/" + tag + "/1024").c_str(),
                               [&ops](benchmark::State& s) { bm_popcount(s, ops, 1024); });
  // 64 words = the paper's 4096-bit signature; 1024 words bounds big filters.
  benchmark::RegisterBenchmark(("BM_KernelSymbiosisEval/" + tag + "/64").c_str(),
                               [&ops](benchmark::State& s) { bm_symbiosis_eval(s, ops, 64); });
  benchmark::RegisterBenchmark(("BM_KernelSymbiosisEval/" + tag + "/1024").c_str(),
                               [&ops](benchmark::State& s) { bm_symbiosis_eval(s, ops, 1024); });
  benchmark::RegisterBenchmark(
      ("BM_KernelSymbiosisBatch/" + tag + "/8x64").c_str(),
      [&ops](benchmark::State& s) { bm_symbiosis_batch(s, ops, 8, 64); });
}

struct KernelBenchRegistrar {
  KernelBenchRegistrar() {
    for (const util::SimdBackend backend : util::available_simd_backends()) {
      register_backend(backend);
    }
  }
};
const KernelBenchRegistrar kRegistrar;

}  // namespace

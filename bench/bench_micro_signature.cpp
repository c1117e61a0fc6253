// Micro-benchmarks of the signature hardware model: hash functions,
// filter-unit event handling, RBV derivation, symbiosis. These bound the
// simulation's per-event cost (and, loosely, argue the hardware operations
// are trivially cheap — §5.4).
#include <benchmark/benchmark.h>

#include "sig/filter_unit.hpp"
#include "util/rng.hpp"

namespace {

using namespace symbiosis;

void BM_HashIndex(benchmark::State& state) {
  const auto kind = static_cast<sig::HashKind>(state.range(0));
  const sig::IndexHash hash(kind, 4096);
  util::Rng rng(1);
  sig::LineAddr line = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.index(line));
    line += 0x9e37;
  }
}
BENCHMARK(BM_HashIndex)
    ->Arg(static_cast<int>(sig::HashKind::Xor))
    ->Arg(static_cast<int>(sig::HashKind::XorInverseReverse))
    ->Arg(static_cast<int>(sig::HashKind::Modulo))
    ->Arg(static_cast<int>(sig::HashKind::Multiply));

void BM_FilterUnitFillEvict(benchmark::State& state) {
  sig::FilterUnitConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_sets = 256;
  cfg.cache_ways = 16;
  cfg.sample_shift = static_cast<unsigned>(state.range(0));
  sig::FilterUnit fu(cfg);
  util::Rng rng(3);
  sig::LineAddr line = 0;
  for (auto _ : state) {
    const std::size_t set = line & 255;
    fu.on_fill(line, line & 1, set, 0);
    fu.on_evict(line, set, 0);
    ++line;
  }
}
BENCHMARK(BM_FilterUnitFillEvict)->Arg(0)->Arg(2);

void BM_RbvDerivation(benchmark::State& state) {
  sig::FilterUnitConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_sets = static_cast<std::size_t>(state.range(0));
  cfg.cache_ways = 16;
  sig::FilterUnit fu(cfg);
  util::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const sig::LineAddr line = rng();
    fu.on_fill(line, 0, line & (cfg.cache_sets - 1), 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fu.compute_rbv(0));
  }
}
BENCHMARK(BM_RbvDerivation)->Arg(256)->Arg(4096);

void BM_Symbiosis(benchmark::State& state) {
  sig::FilterUnitConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_sets = static_cast<std::size_t>(state.range(0));
  cfg.cache_ways = 16;
  sig::FilterUnit fu(cfg);
  util::Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const sig::LineAddr line = rng();
    fu.on_fill(line, line & 1, line & (cfg.cache_sets - 1), 0);
  }
  const auto rbv = fu.compute_rbv(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fu.symbiosis(rbv, 1));
  }
}
BENCHMARK(BM_Symbiosis)->Arg(256)->Arg(4096);

}  // namespace

// Micro-benchmarks of the cache/machine substrate: raw cache and TLB
// accesses, Zipf sampling, hierarchy walks with and without the signature
// unit, and full simulated machine steps — the numbers that determine how
// long the figure benches take per simulated reference.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "cachesim/tlb.hpp"
#include "machine/machine.hpp"
#include "util/rng.hpp"
#include "workload/benchmark_model.hpp"

namespace {

using namespace symbiosis;

void BM_CacheAccess(benchmark::State& state) {
  cachesim::Cache cache({256 * 1024, 16, 64},
                        static_cast<cachesim::ReplacementKind>(state.range(0)));
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_below(1 << 16), false, 0));
  }
}
BENCHMARK(BM_CacheAccess)
    ->Arg(static_cast<int>(cachesim::ReplacementKind::Lru))
    ->Arg(static_cast<int>(cachesim::ReplacementKind::TreePlru))
    ->Arg(static_cast<int>(cachesim::ReplacementKind::Random))
    ->Arg(static_cast<int>(cachesim::ReplacementKind::Srrip));

void BM_TlbAccess(benchmark::State& state) {
  // A pregenerated ring of addresses: mostly a 48-page hot set that fits
  // the 64-entry TLB (hint hits), plus a cold tail of 4096 pages that
  // misses, scans and evicts.
  cachesim::Tlb tlb(64, 4096);
  util::Rng rng(5);
  constexpr std::size_t kRing = 1 << 16;
  std::vector<std::uint64_t> addrs(kRing);
  for (auto& addr : addrs) {
    const std::uint64_t page = rng.next_bool(0.9) ? rng.next_below(48) : rng.next_below(4096);
    addr = page * 4096 + rng.next_below(4096);
  }
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access(addrs[pos]));
    pos = (pos + 1) & (kRing - 1);
  }
}
BENCHMARK(BM_TlbAccess);

void BM_ZipfSample(benchmark::State& state) {
  // The shape of the benchmark's util.zipf probe: n 4096, skew 0.99.
  const util::ZipfSampler zipf(4096, 0.99);
  util::Rng rng(6);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_ZipfConstruct(benchmark::State& state) {
  // The 14 samplers one native-grid setup builds (17,975 CDF entries): the
  // bulk of that workload's setup time, which sampling speedups must not
  // grow.
  constexpr std::pair<std::size_t, double> kSamplers[] = {
      {1638, 0.9}, {1024, 0.8}, {737, 0.9},  {1228, 0.7}, {1228, 1.0},
      {327, 0.9},  {1638, 0.9}, {1024, 0.8}, {491, 1.0},  {1024, 0.8},
      {1228, 0.7}, {1228, 1.0}, {4915, 0.9}, {245, 1.1}};
  for (auto _ : state) {
    for (const auto& [n, skew] : kSamplers) {
      const util::ZipfSampler zipf(n, skew);
      benchmark::DoNotOptimize(zipf);
    }
  }
}
BENCHMARK(BM_ZipfConstruct)->Unit(benchmark::kMicrosecond);

void BM_HierarchyAccess(benchmark::State& state) {
  cachesim::HierarchyConfig cfg;
  cfg.signature.enabled = state.range(0) != 0;
  cachesim::Hierarchy h(cfg);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.access(0, rng.next_below(1 << 22), false));
  }
}
BENCHMARK(BM_HierarchyAccess)->Arg(0)->Arg(1);

void BM_HierarchyAccessBatch(benchmark::State& state) {
  // The batched trace-replay path. A pregenerated ring of random references
  // keeps RNG cost out of the timed region; one iteration replays one batch,
  // so items_per_second (accesses/s) is the headline throughput number.
  cachesim::HierarchyConfig cfg;
  cfg.signature.enabled = true;
  cachesim::Hierarchy h(cfg);
  util::Rng rng(2);
  constexpr std::size_t kRing = 1 << 16;
  std::vector<cachesim::MemRef> refs(kRing);
  for (auto& ref : refs) ref = {rng.next_below(1 << 22), rng.next_bool(0.3)};
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t pos = 0;
  for (auto _ : state) {
    if (pos + batch > kRing) pos = 0;
    benchmark::DoNotOptimize(h.access_batch(0, refs.data() + pos, batch));
    pos += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_HierarchyAccessBatch)->Arg(64)->Arg(1024);

void BM_ClusteredHierarchyBatch(benchmark::State& state) {
  // The 3-level composable graph on the same batched replay path: the
  // 32-core clustered machine (4x512KB cluster L2s + 2MB SRRIP L3), one
  // core per cluster issuing in rotation so every batch crosses cluster
  // boundaries and touches the shared L3.
  cachesim::HierarchyConfig cfg = machine::clustered32_config().hierarchy;
  cachesim::Hierarchy h(cfg);
  util::Rng rng(2);
  constexpr std::size_t kRing = 1 << 16;
  std::vector<cachesim::MemRef> refs(kRing);
  for (auto& ref : refs) ref = {rng.next_below(1 << 22), rng.next_bool(0.3)};
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::size_t cores_per_cluster = h.num_cores() / h.num_clusters();
  std::size_t pos = 0;
  std::size_t cluster = 0;
  for (auto _ : state) {
    if (pos + batch > kRing) pos = 0;
    benchmark::DoNotOptimize(h.access_batch(cluster * cores_per_cluster, refs.data() + pos,
                                            batch));
    pos += batch;
    cluster = (cluster + 1) % h.num_clusters();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ClusteredHierarchyBatch)->Arg(64)->Arg(1024);

void BM_PartitionedL3Batch(benchmark::State& state) {
  // Trace replay's machine (perfbench's replay_hierarchy): 8 cores in 4
  // clusters of 256 KiB L2s over a 1 MiB SRRIP L3 way-partitioned 4 ways
  // per cluster. Each core replays its own ring in a disjoint address range
  // and the cores take turns, so every L3 line has one sharer cluster.
  cachesim::HierarchyConfig cfg;
  cfg.num_cores = 8;
  cfg.l1 = {8 * 1024, 8, 64};
  cfg.l2 = {256 * 1024, 16, 64};
  cfg.l2_clusters = 4;
  cfg.l3 = cachesim::CacheGeometry{1024 * 1024, 16, 64};
  cfg.l3_replacement = cachesim::ReplacementKind::Srrip;
  cfg.l3_way_partition.ways_per_group = {4, 4, 4, 4};
  cachesim::Hierarchy h(cfg);
  util::Rng rng(2);
  constexpr std::size_t kRing = 1 << 14;
  std::vector<std::vector<cachesim::MemRef>> refs(cfg.num_cores);
  for (std::size_t core = 0; core < refs.size(); ++core) {
    refs[core].resize(kRing);
    const cachesim::Addr base = static_cast<cachesim::Addr>(core + 1) << 40;
    for (auto& ref : refs[core]) ref = {base + rng.next_below(1 << 22), rng.next_bool(0.3)};
  }
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t pos = 0;
  std::size_t core = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.access_batch(core, refs[core].data() + pos, batch));
    core = (core + 1) % cfg.num_cores;
    if (core == 0) pos = pos + 2 * batch > kRing ? 0 : pos + batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PartitionedL3Batch)->Arg(64);

void BM_MachineStep(benchmark::State& state) {
  machine::MachineConfig cfg = machine::core2duo_config();
  machine::Machine m(cfg);
  workload::ScaleConfig scale;
  util::Rng rng(3);
  m.add_task(workload::make_spec_workload("mcf", machine::address_space_base(0), rng.split(1),
                                          scale));
  m.add_task(workload::make_spec_workload("libquantum", machine::address_space_base(1),
                                          rng.split(2), scale));
  std::uint64_t simulated = 0;
  for (auto _ : state) {
    m.run_for(100'000);
    simulated += 100'000;
  }
  state.counters["sim_cycles_per_s"] =
      benchmark::Counter(static_cast<double>(simulated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineStep)->Unit(benchmark::kMillisecond);

void BM_WorkloadNext(benchmark::State& state) {
  workload::ScaleConfig scale;
  auto w = workload::make_spec_workload(state.range(0) == 0 ? "mcf" : "libquantum", 0,
                                        util::Rng{4}, scale);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w->next());
    if (w->complete()) w->restart();
  }
}
BENCHMARK(BM_WorkloadNext)->Arg(0)->Arg(1);

// The machine's way of pulling steps: one 64-step next_chunk refills a
// buffer that the iterations then drain one step each, so the reported time
// is per step, comparable with BM_WorkloadNext.
void BM_WorkloadChunk(benchmark::State& state) {
  workload::ScaleConfig scale;
  auto w = workload::make_spec_workload(state.range(0) == 0 ? "mcf" : "libquantum", 0,
                                        util::Rng{4}, scale);
  cachesim::MemRef chunk[64];
  std::size_t left = 0;
  for (auto _ : state) {
    if (left == 0) {
      if (w->complete()) w->restart();
      left = w->next_chunk(chunk, 64);
    }
    benchmark::DoNotOptimize(chunk[--left]);
  }
}
BENCHMARK(BM_WorkloadChunk)->Arg(0)->Arg(1);

}  // namespace

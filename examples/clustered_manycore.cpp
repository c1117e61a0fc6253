// clustered_manycore — the composable hierarchy graph beyond two levels.
//
// Builds the 32-core clustered CMP (4 clusters of 8 cores, each cluster
// sharing a 512KB L2 with its own signature unit, all under one 2MB SRRIP
// L3), drops the full SPEC pool onto it under default OS scheduling, runs a
// fixed window, and prints the topology, per-level traffic and hit rates,
// per-cluster L2 occupancy and signature weights, and a cross-cluster
// symbiosis estimate (disjoint clusters -> maximal symbiosis by
// construction).
//
//   ./clustered_manycore [--manycore] [--l3-partition] [--cycles 20000000]
//                        [--seed 42] [--scale 0.2]
//
//   --manycore      64 cores in 8 clusters (4MB/32-way L3) instead of 32/4
//   --l3-partition  give each cluster an equal contiguous slice of L3 ways
#include <cstdio>
#include <exception>
#include <vector>

#include "core/symbiotic_scheduler.hpp"
#include "machine/config.hpp"
#include "sig/filter_unit.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run_cli(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("clustered_manycore", "clustered L2s + shared L3, end to end");
  auto& manycore = args.add_flag("manycore", "64 cores / 8 clusters instead of 32 / 4");
  auto& partition = args.add_flag("l3-partition", "one contiguous L3 way slice per cluster");
  auto& cycles = args.add_u64("cycles", "simulated cycles to run", 20'000'000);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  auto& scale = args.add_double("scale", "benchmark length multiplier", 0.2);
  if (!args.parse(argc, argv)) return 1;

  machine::MachineConfig config =
      manycore ? machine::manycore64_config() : machine::clustered32_config();
  config.seed = seed;
  if (partition) {
    config.hierarchy.l3_way_partition.ways_per_group.assign(
        config.hierarchy.clusters(), config.hierarchy.l3->ways / config.hierarchy.clusters());
  }

  machine::Machine m(config);
  const cachesim::HierarchyConfig& shape = m.hierarchy().config();
  std::printf("topology: %s\n", shape.describe().c_str());

  // One copy of every pool program, round-robin across the machine; the OS
  // scheduler (with migration) spreads them over the clusters.
  workload::ScaleConfig ws;
  ws.length_scale = scale;
  const auto& pool = workload::spec2006_pool();
  (void)core::add_mix_tasks(m, pool, ws, seed);
  std::printf("tasks: %zu (full SPEC pool) on %zu cores, running %llu cycles\n\n", pool.size(),
              m.hierarchy().num_cores(), static_cast<unsigned long long>(cycles));
  m.run_for(cycles);

  // Per-level traffic: the flow-conservation view (L2 accesses == L1
  // misses, L3 accesses == L2 misses).
  cachesim::Hierarchy& h = m.hierarchy();
  util::TextTable levels;
  levels.set_header({"level", "accesses", "hits", "misses", "hit rate"});
  for (const char* level : {"l1", "l2", "l3"}) {
    if (level[1] == '3' && !h.has_l3()) continue;
    const cachesim::LevelStats s = h.level_stats(level);
    levels.add_row({level, std::to_string(s.accesses), std::to_string(s.hits),
                    std::to_string(s.misses),
                    util::TextTable::fmt(
                        s.accesses ? 100.0 * static_cast<double>(s.hits) /
                                         static_cast<double>(s.accesses)
                                   : 0.0,
                        1) +
                        "%"});
  }
  std::printf("per-level traffic:\n%s\n", levels.str().c_str());

  // Per-cluster view: L2 miss rate, occupancy, and the signature unit's
  // aggregate core-filter weight (the hardware's footprint estimate).
  util::TextTable clusters;
  clusters.set_header({"cluster", "l2 miss rate", "l2 occupancy", "sig weight"});
  for (std::size_t cl = 0; cl < shape.clusters(); ++cl) {
    const cachesim::Cache& l2 = h.cluster_l2(cl);
    const sig::FilterUnit* fu = h.filter_for_core(cl * shape.cores_per_cluster());
    std::size_t weight = 0;
    if (fu != nullptr) {
      for (std::size_t c = 0; c < fu->num_cores(); ++c) weight += fu->core_filter_weight(c);
    }
    clusters.add_row({std::to_string(cl),
                      util::TextTable::fmt(100.0 * l2.stats().miss_rate(), 1) + "%",
                      std::to_string(l2.occupancy()), std::to_string(weight)});
  }
  std::printf("per-cluster L2s:\n%s\n", clusters.str().c_str());

  // Cross-cluster symbiosis: a core's RBV scored against a core behind a
  // DIFFERENT filter is popcount(RBV) + weight — disjoint caches cannot
  // contend, so moving heavy co-runners apart maximizes this.
  if (h.filter_for_core(0) != nullptr && shape.clusters() > 1) {
    const sig::FilterUnit& a = *h.filter_for_core(0);
    const sig::FilterUnit& b = *h.filter_for_core(shape.cores_per_cluster());
    const std::size_t score =
        sig::disjoint_symbiosis(a.compute_rbv(0).popcount(), b.core_filter_weight(0));
    std::printf("cross-cluster symbiosis (core 0 vs first core of cluster 1): %zu\n", score);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clustered_manycore: %s\n", e.what());
    return 1;
  }
}

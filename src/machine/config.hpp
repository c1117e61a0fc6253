// config.hpp — simulated machine configurations.
//
// Presets mirror the paper's three testbeds (§2.3, §4), scaled to keep a
// full run-to-completion simulation in the milliseconds-to-seconds range
// (see DESIGN.md §5): L2 capacities are divided by 16 (4 MB -> 256 KB,
// 2 MB -> 128 KB) and the 32 KB L1 by 4, associativities and line sizes
// kept, and cycle-denominated OS parameters chosen so the
// quantum : allocator-period : benchmark-length ratios match the paper's
// (tens of context switches per allocator invocation, several allocator
// invocations per run).
#pragma once

#include <cstdint>

#include "cachesim/hierarchy.hpp"

namespace symbiosis::machine {

struct MachineConfig {
  cachesim::HierarchyConfig hierarchy{};
  /// OS timeslice in core cycles. Must dwarf a full L2 refill
  /// (lines × memory latency) or every quantum starts cold and schedule
  /// sensitivity vanishes — the real machine's 10–100 ms quanta are 10–100×
  /// the ~20 M-cycle refill of a 4 MB L2, and the presets keep that ratio.
  std::uint64_t quantum_cycles = 3'000'000;
  /// Per-dispatch quantum jitter as a fraction of quantum_cycles. Equal
  /// quanta on every core would phase-LOCK the cross-core pairings for a
  /// whole run (a task would face the same concurrent partner forever,
  /// decided by initial alignment); real timer/interrupt noise rotates
  /// pairings, and this jitter models that. Must lie in [0, 1).
  double quantum_jitter = 0.2;
  /// Direct cost charged to the incoming task at each context switch.
  std::uint64_t context_switch_cycles = 2'000;
  /// Cost of a first-touch (minor) page fault, when page tracking is on.
  std::uint64_t page_fault_cycles = 3'000;
  /// Track first-touch pages per task (the Fig 2 page-fault counter).
  bool track_pages = false;
  /// Steps executed per core before re-evaluating the global interleave.
  std::uint32_t batch_steps = 64;
  /// Cache lines the context-switch path itself touches (hypervisor/Dom0
  /// pollution under virtualization; ~0 for a native OS). The lines come
  /// from a reserved address region no workload can alias.
  std::uint32_t switch_pollution_lines = 0;
  /// Probability that an UNPINNED task migrates to the least-loaded queue
  /// at a quantum boundary (Linux's balancer moves tasks occasionally, not
  /// every slice). Core populations must stay quasi-stable within one
  /// allocator window or the per-core symbiosis means lose their pairwise
  /// information — see scheduler.hpp.
  double migration_prob = 0.15;
  std::uint64_t seed = 1;
};

/// Intel Core 2 Duo-like: 2 cores, shared L2 (paper: 4MB/16-way; scaled
/// 16× to 256KB/16-way with the L1 scaled along) — the primary machine.
[[nodiscard]] inline MachineConfig core2duo_config() {
  MachineConfig m;
  m.hierarchy.num_cores = 2;
  m.hierarchy.l1 = {8 * 1024, 8, 64};
  m.hierarchy.l2 = {256 * 1024, 16, 64};
  m.hierarchy.shared_l2 = true;
  return m;
}

/// P4 Xeon SMP-like: 2 processors with PRIVATE L2s (paper: 2MB/8-way;
/// scaled to 128KB/8-way) — the Fig 3(a) contrast machine.
[[nodiscard]] inline MachineConfig p4smp_config() {
  MachineConfig m;
  m.hierarchy.num_cores = 2;
  m.hierarchy.l1 = {8 * 1024, 8, 64};
  m.hierarchy.l2 = {128 * 1024, 8, 64};
  m.hierarchy.shared_l2 = false;
  m.hierarchy.signature.enabled = false;  // no shared cache to monitor
  return m;
}

/// Quad-core sharing one L2 (the §3.1 illustration machine; used by the
/// hierarchical MIN-CUT tests and scaling studies).
[[nodiscard]] inline MachineConfig quadcore_config() {
  MachineConfig m;
  m.hierarchy.num_cores = 4;
  m.hierarchy.l1 = {8 * 1024, 8, 64};
  m.hierarchy.l2 = {512 * 1024, 16, 64};
  m.hierarchy.shared_l2 = true;
  return m;
}

/// 32-core clustered CMP: 4 clusters of 8 cores, each cluster sharing one
/// 512KB/16-way L2 (with its own signature unit), all clusters below one
/// 2MB/16-way SRRIP L3 — the ROADMAP's many-core scheduling substrate,
/// where allocation decides WHICH cluster a process contends in.
[[nodiscard]] inline MachineConfig clustered32_config() {
  MachineConfig m;
  m.hierarchy.num_cores = 32;
  m.hierarchy.l1 = {8 * 1024, 8, 64};
  m.hierarchy.l2 = {512 * 1024, 16, 64};
  m.hierarchy.shared_l2 = true;
  m.hierarchy.l2_clusters = 4;
  m.hierarchy.l3 = cachesim::CacheGeometry{2 * 1024 * 1024, 16, 64};
  return m;
}

/// 64-core clustered CMP: 8 clusters of 8, 4MB/32-way SRRIP L3 — the
/// topology-matrix stress configuration.
[[nodiscard]] inline MachineConfig manycore64_config() {
  MachineConfig m;
  m.hierarchy.num_cores = 64;
  m.hierarchy.l1 = {8 * 1024, 8, 64};
  m.hierarchy.l2 = {512 * 1024, 16, 64};
  m.hierarchy.shared_l2 = true;
  m.hierarchy.l2_clusters = 8;
  m.hierarchy.l3 = cachesim::CacheGeometry{4 * 1024 * 1024, 32, 64};
  return m;
}

}  // namespace symbiosis::machine

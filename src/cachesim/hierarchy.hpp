// hierarchy.hpp — the memory system as a composable cache graph.
//
// This is the substrate standing in for Simics + g-cache: it decides
// hit/miss at each level, charges a simple additive latency, enforces
// inclusion downward, and drives the per-cluster sig::FilterUnits on every
// L2 fill and replacement. A HierarchyConfig describes the graph: per-core
// L1s feed per-cluster shared L2s, which optionally feed a single shared L3
// (per-core L1 → cluster L2 → L3 → memory). The paper's two testbeds are
// its DEGENERATE instances and stay bit-identical to the pre-graph
// two-level implementation (tests/test_differential_hierarchy.cpp pins this
// down against the naive reference models):
//   * shared L2  — Intel Core 2 Duo (4MB 16-way shared), the main machine:
//     1 cluster, no L3;
//   * private L2 — P4 Xeon SMP (2MB 8-way per processor), Fig 3(a):
//     num_cores clusters of 1 core, no L3.
// The generalized graph is what 32–64-core scheduling studies need:
// allocation algorithms then PLACE processes across clusters (which shared
// cache they contend in) and can additionally CONSTRAIN them with a
// CAT-style way partition per shared level (LFOC-style clustering).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cachesim/addr.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/tlb.hpp"
#include "sig/filter_unit.hpp"

namespace symbiosis::cachesim {

/// Additive access latencies in core cycles.
struct LatencyModel {
  std::uint32_t l1_hit = 3;
  std::uint32_t l2_hit = 14;
  /// Charged per L3 lookup; only topologies with an L3 ever pay it.
  std::uint32_t l3_hit = 40;
  std::uint32_t memory = 200;
  /// Effective cost of a last-level miss inside a detected stream: the
  /// stride prefetcher / MLP overlaps most of the memory latency, which is
  /// what lets real streaming programs (libquantum, hmmer) churn the shared
  /// cache fast enough to hurt co-runners.
  std::uint32_t stream_miss = 22;
  std::uint32_t tlb_miss = 30;
};

/// Signature-hardware knobs (geometry comes from the L2).
struct SignatureConfig {
  bool enabled = true;
  unsigned counter_bits = 3;
  unsigned hash_functions = 1;
  sig::HashKind hash = sig::HashKind::Xor;
  unsigned sample_shift = 0;  ///< 2 = the paper's 25% set sampling
};

/// The shape and parameters of one machine's cache graph. Hierarchy
/// validates it at construction.
struct HierarchyConfig {
  std::size_t num_cores = 2;
  CacheGeometry l1{8 * 1024, 8, 64};
  CacheGeometry l2{256 * 1024, 16, 64};
  /// Private L2s (false) are the same graph as shared ones with num_cores
  /// clusters of one core; the shape accessors below normalize.
  bool shared_l2 = true;
  ReplacementKind l1_replacement = ReplacementKind::Lru;
  ReplacementKind l2_replacement = ReplacementKind::Lru;
  LatencyModel latency{};
  SignatureConfig signature{};
  std::size_t tlb_entries = 64;
  std::uint64_t seed = 1;

  // --- graph extensions (defaults keep the legacy two-level shape) ---

  /// Shared-L2 cluster count: cores split into equal groups, each sharing
  /// one L2 (1 = the legacy single shared L2). Must stay 1 when !shared_l2.
  std::size_t l2_clusters = 1;
  /// Optional shared last-level cache below every cluster L2 (inclusive:
  /// an L3 eviction back-invalidates the line from every L2 and L1 above).
  std::optional<CacheGeometry> l3;
  ReplacementKind l3_replacement = ReplacementKind::Srrip;
  /// CAT-style way partitions of the shared levels (empty = unpartitioned):
  /// L2 groups are cluster-LOCAL cores, L3 groups are clusters.
  CachePartition l2_way_partition;
  CachePartition l3_way_partition;

  // --- normalized shape ---

  /// Number of distinct L2 caches (clusters of the sharing graph).
  [[nodiscard]] std::size_t clusters() const noexcept {
    return shared_l2 ? l2_clusters : num_cores;
  }
  [[nodiscard]] std::size_t cores_per_cluster() const noexcept {
    const std::size_t n = clusters();
    return n ? num_cores / n : 0;
  }
  /// Cluster that owns @p core's L2.
  [[nodiscard]] std::size_t cluster_of(std::size_t core) const noexcept {
    return core / cores_per_cluster();
  }
  /// @p core's slot within its cluster (signature hardware is per cluster
  /// and indexes cores locally).
  [[nodiscard]] std::size_t local_core(std::size_t core) const noexcept {
    return core % cores_per_cluster();
  }

  /// True when this shape is expressible by the pre-graph two-level
  /// implementation: one shared L2 (or all-private L2s), no L3, no way
  /// partitions. Degenerate shapes keep run-report schema v1 and are
  /// proven bit-identical to the legacy path.
  [[nodiscard]] bool degenerate() const noexcept {
    return !l3.has_value() && (!shared_l2 || l2_clusters == 1) && !l2_way_partition.enabled() &&
           !l3_way_partition.enabled();
  }

  /// Check every structural invariant via SYM_CHECK (category
  /// "cachesim.topology" / "cachesim.partition"): cluster count divides the
  /// core count, line sizes agree across levels, partitions fit the
  /// associativity. Honors the ambient CheckMode (tests use
  /// ScopedCheckMode(Throw) to observe CheckError).
  void validate() const;

  /// "32 cores / 4x512KiB L2 / 2MiB L3" style summary for logs and reports.
  [[nodiscard]] std::string describe() const;
};

/// Result of one memory access through the hierarchy.
struct MemAccessResult {
  std::uint32_t cycles = 0;
  bool l1_hit = false;
  bool l2_hit = false;
  bool l3_hit = false;  ///< always false on topologies without an L3
  bool tlb_hit = false;
  bool stream_prefetched = false;  ///< last-level miss served at stream_miss cost

  [[nodiscard]] bool operator==(const MemAccessResult&) const noexcept = default;
};

/// Aggregate outcome of one access_batch() call.
struct BatchSummary {
  std::uint64_t accesses = 0;  ///< references consumed
  std::uint64_t cycles = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t stream_prefetched = 0;

  [[nodiscard]] bool operator==(const BatchSummary&) const noexcept = default;

  /// Accumulate another batch (trace replay sums per-chunk summaries).
  BatchSummary& operator+=(const BatchSummary& other) noexcept {
    accesses += other.accesses;
    cycles += other.cycles;
    l1_hits += other.l1_hits;
    l2_hits += other.l2_hits;
    l3_hits += other.l3_hits;
    tlb_hits += other.tlb_hits;
    stream_prefetched += other.stream_prefetched;
    return *this;
  }
};

/// Aggregate counters of one cache level (all caches of that level summed);
/// the per-level run-report payload (schema v2).
struct LevelStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] bool operator==(const LevelStats&) const noexcept = default;
};

/// The memory hierarchy of one simulated machine.
class Hierarchy {
 public:
  explicit Hierarchy(HierarchyConfig config);

  /// One load/store by @p core at byte address @p addr.
  MemAccessResult access(std::size_t core, Addr addr, bool is_write);

  /// Batched access, the one path the machine and the trace replayer take:
  /// process up to @p n references for @p core exactly as successive
  /// access() calls would (bit-identical results, stats, filter and
  /// replacement state — the differential suite pins this down), but with
  /// the per-access overhead (core-indexed lookups, cluster/L2/filter
  /// resolution, bounds checks) hoisted out of the loop. When @p results is
  /// non-null it receives one MemAccessResult per consumed reference.
  ///
  /// With a @p budget the batch stops after the first reference at which
  /// the running sum of MemRef::gap plus access cycles reaches it (the
  /// machine's quantum); BatchSummary::accesses says how many references
  /// that consumed. Without one every reference is consumed.
  BatchSummary access_batch(std::size_t core, const MemRef* refs, std::size_t n,
                            MemAccessResult* results = nullptr,
                            std::optional<std::uint64_t> budget = std::nullopt);

  /// Context-switch hooks forwarded to TLB and signature hardware.
  void on_context_switch_in(std::size_t core);
  void flush_tlb(std::size_t core);

  [[nodiscard]] const HierarchyConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_cores() const noexcept { return config_.num_cores; }

  // --- graph shape ---

  [[nodiscard]] std::size_t num_clusters() const noexcept { return clusters_; }
  [[nodiscard]] std::size_t cluster_of(std::size_t core) const noexcept {
    return core / cores_per_cluster_;
  }
  [[nodiscard]] std::size_t local_core(std::size_t core) const noexcept {
    return core % cores_per_cluster_;
  }
  [[nodiscard]] bool has_l3() const noexcept { return l3_ != nullptr; }

  /// Cluster 0's signature unit (the only one on degenerate topologies);
  /// nullptr when disabled or when the L2 is private.
  [[nodiscard]] sig::FilterUnit* filter() noexcept {
    return filters_.empty() ? nullptr : filters_.front().get();
  }
  [[nodiscard]] const sig::FilterUnit* filter() const noexcept {
    return filters_.empty() ? nullptr : filters_.front().get();
  }
  /// The signature unit shadowing @p core's cluster L2 (nullptr when
  /// disabled). Its core slots are CLUSTER-LOCAL: pass local_core(core).
  [[nodiscard]] sig::FilterUnit* filter_for_core(std::size_t core) noexcept {
    return filters_.empty() ? nullptr : filters_[cluster_of(core)].get();
  }

  [[nodiscard]] Cache& l1(std::size_t core) { return *l1_.at(core); }
  /// @p core's L2: the cluster's shared L2, or its private L2.
  [[nodiscard]] Cache& l2(std::size_t core = 0) { return *l2_.at(cluster_of(core)); }
  [[nodiscard]] const Cache& l2(std::size_t core = 0) const { return *l2_.at(cluster_of(core)); }
  /// Cluster @p cluster's L2 directly (cluster index, not core index).
  [[nodiscard]] Cache& cluster_l2(std::size_t cluster) { return *l2_.at(cluster); }
  /// The shared L3; only valid when has_l3().
  [[nodiscard]] Cache& l3() { return *l3_; }
  [[nodiscard]] const Cache& l3() const { return *l3_; }
  [[nodiscard]] Tlb& tlb(std::size_t core) { return *tlb_.at(core); }

  /// Ground-truth L2 footprint of @p core (valid lines it owns); the
  /// Fig 2/5 reference series.
  [[nodiscard]] std::size_t l2_footprint(std::size_t core) const;

  /// Summed counters of one level across all its caches, keyed "l1", "l2",
  /// "l3" (empty stats for "l3" on topologies without one).
  [[nodiscard]] LevelStats level_stats(std::string_view level) const;

  /// Publish cache/TLB counter DELTAS since the last publish into the global
  /// obs::MetricRegistry ("cachesim.l1.hit", "cachesim.l2.miss", ...; L3
  /// counters only exist on topologies with an L3). The per-access hot path
  /// stays free of atomics; the Machine calls this at cold boundaries (hook
  /// firings and end of run).
  void publish_metrics();

  /// Clear ONLY counters — every cache's total and per-requestor CacheStats
  /// at every level, TLB hit/miss counts — and re-baseline the obs delta
  /// publisher, all in one place. Tag arrays, filters and stream state are
  /// untouched, so this is safe mid-run (e.g. to discard a warm-up phase).
  /// Resetting individual caches via l1()/l2()/l3() instead leaves the
  /// publisher baseline stale and makes the next publish_metrics() delta
  /// wrap around; use this.
  void reset_stats() noexcept;

  /// Clear all caches, TLBs, filters and stats.
  void reset();

 private:
  struct StreamState;

  /// Shared per-access body: access() and access_batch() both funnel here so
  /// the batched path cannot drift from the canonical one. @p cluster is
  /// @p core's cluster (hoisted by the callers); @p l2 and @p filter are the
  /// cluster's. Forced inline into both callers, with the Cache::access calls
  /// inlined into it: an out-of-line call returns the MemAccessResult through
  /// memory, stored a byte at a time and reloaded as one word, which stalls
  /// store forwarding on every reference.
  [[gnu::always_inline]] inline MemAccessResult access_one(std::size_t core, std::size_t cluster,
                                                           Addr addr, bool is_write, Cache& l1,
                                                           Cache& l2, Tlb& tlb,
                                                           sig::FilterUnit* filter,
                                                           StreamState& ss);

  /// Flight-recorder emission for an L2 eviction. A SYM_COLD sink: the
  /// recorder's enabled() check, the event construction (a std::variant
  /// whose cleanup statically reaches operator delete) and the guarded
  /// global() accessor all live behind this noinline boundary so the
  /// symhot purity proof of access_one() stays allocation- and lock-free.
  void record_l2_eviction(LineAddr victim_line, std::size_t set, std::size_t way,
                          std::size_t core);

  /// Inclusive-L3 back-invalidation of @p victim from the clusters named by
  /// @p sharers (the victim's sharer mask, see l3_sharers_): each such L2
  /// drops the line and its filter observes the kill; a cluster's L1s are
  /// probed only when its L2 held the line, since every L1 stays a subset
  /// of its cluster's L2. Kept out of line so the L1/L2 path of
  /// access_one() compiles the same with or without an L3.
  [[gnu::noinline]] void back_invalidate(LineAddr victim, std::uint64_t sharers);

  HierarchyConfig config_;
  std::size_t clusters_ = 1;
  std::size_t cores_per_cluster_ = 1;
  /// log2 of the line size, decoded once like Cache's geometry.
  unsigned line_bits_ = 0;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;  // one per cluster
  std::unique_ptr<Cache> l3_;               // null on topologies without an L3
  /// One sharer mask per L3 line (index set * ways + way): bit c & 63 is
  /// set when cluster c may hold the line in its L2. A fill by c sets it to
  /// bit c, a hit by c ORs bit c in, and a silent L2 eviction leaves it, so
  /// the mask is a superset of the L2s holding the line (a shape with more
  /// than 64 clusters aliases cluster c onto c + 64, c + 128, ...). Sized
  /// once at construction; empty without an L3.
  std::vector<std::uint64_t> l3_sharers_;
  std::vector<std::unique_ptr<Tlb>> tlb_;
  std::vector<std::unique_ptr<sig::FilterUnit>> filters_;  // one per cluster; empty = disabled

  /// Per-core stream detector state (last line + last stride, in lines).
  struct StreamState {
    LineAddr last_line = 0;
    std::int64_t last_stride = 0;
    bool valid = false;
  };
  std::vector<StreamState> stream_;

  /// Counter totals as of the last publish_metrics() (delta baseline).
  struct PublishedStats {
    std::uint64_t l1_hits = 0, l1_misses = 0;
    std::uint64_t l2_hits = 0, l2_misses = 0, l2_evictions = 0;
    std::uint64_t l3_hits = 0, l3_misses = 0, l3_evictions = 0;
    std::uint64_t tlb_misses = 0;
  };
  PublishedStats published_;
};

}  // namespace symbiosis::cachesim

// filter_unit.hpp — the paper's split counting-Bloom-filter signature unit.
//
// §3.1: the classic CBF is split into ONE shared counter array (complete
// information about the L2's contents) plus one bit-vector per core, the
// Core Filter (CF), tracking which filter indices were touched by fills
// originating from that core. A second per-core bit-vector, the Last
// Filter (LF), snapshots the CF at context-switch-in; at switch-out the
// Running Bit Vector
//
//     RBV = ¬(CF → LF) = CF ∧ ¬LF
//
// is the outgoing process's cache-footprint signature. From the RBV:
//   * occupancy weight          = popcount(RBV)
//   * symbiosis with core c     = popcount(RBV XOR CF[c])
// High symbiosis = disjoint footprints = low interference.
//
// The unit is driven by the L2 via two events:
//   * on_fill(line, core, set, way)  — an L2 miss fill for @p core
//   * on_evict(line, set, way)      — a line replaced out of the L2
// and supports §5.4 set-sampling (track only every 2^s-th cache set) and
// the §5.3 "presence bits" variant (a positional 1:1 bit per cache line,
// no hash, no counters).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sig/bitvector.hpp"
#include "sig/hash.hpp"

namespace symbiosis::sig {

/// Static configuration of the signature hardware.
struct FilterUnitConfig {
  std::size_t num_cores = 2;
  std::size_t cache_sets = 1024;   ///< L2 sets (power of two)
  std::size_t cache_ways = 16;     ///< L2 associativity
  unsigned counter_bits = 3;       ///< L, per §5.4
  unsigned hash_functions = 1;     ///< k; the paper argues k = 1
  HashKind hash = HashKind::Xor;
  /// Set-sampling shift s: only sets with (set & (2^s - 1)) == 0 are
  /// tracked. 0 = unsampled; 2 = the paper's 25% sampling.
  unsigned sample_shift = 0;

  /// Filter entries = sampled lines = (sets >> sample_shift) * ways.
  [[nodiscard]] std::size_t entries() const noexcept {
    return (cache_sets >> sample_shift) * cache_ways;
  }
  /// Total cache lines covered by the L2.
  [[nodiscard]] std::size_t cache_lines() const noexcept { return cache_sets * cache_ways; }
  /// True when @p set falls inside the sample.
  [[nodiscard]] bool sampled(std::size_t set) const noexcept {
    return (set & ((std::size_t{1} << sample_shift) - 1)) == 0;
  }
};

/// The split-CBF signature unit attached to a shared L2.
class FilterUnit {
 public:
  /// Throws std::invalid_argument for a malformed config.
  explicit FilterUnit(FilterUnitConfig config);

  [[nodiscard]] const FilterUnitConfig& config() const noexcept { return config_; }

  /// L2 fill event: increment the shared counter and set the CF bit of the
  /// requesting core. (set, way) locate the filled line for presence mode.
  void on_fill(LineAddr line, std::size_t core, std::size_t set, std::size_t way) noexcept;

  /// L2 replacement event: decrement the shared counter; when it reaches
  /// zero, the corresponding bit is cleared in EVERY core filter (§3.1's
  /// acknowledged source of slight inaccuracy).
  void on_evict(LineAddr line, std::size_t set, std::size_t way) noexcept;

  /// Context-switch-in hook: LF[core] = CF[core]. Must be called before the
  /// incoming process issues its first access.
  void snapshot(std::size_t core) noexcept;

  /// Context-switch-out hook: derive the outgoing process's RBV.
  [[nodiscard]] BitVector compute_rbv(std::size_t core) const;

  /// popcount(rbv XOR CF[other_core]) — the symbiosis metric.
  [[nodiscard]] std::size_t symbiosis(const BitVector& rbv, std::size_t other_core) const noexcept;

  /// Symbiosis of an outgoing process with its OWN core: popcount(rbv XOR
  /// LF[core]). The CF at switch-out trivially contains every RBV bit (the
  /// process set them), so XOR against the CF would measure nothing but the
  /// process's own footprint; the Last Filter — the snapshot taken just
  /// before the process ran — is the co-residents' footprint, which is the
  /// quantity the §3.3.2 interference edges need. (The paper is silent on
  /// the self-core case; see DESIGN.md.)
  [[nodiscard]] std::size_t self_symbiosis(const BitVector& rbv, std::size_t core) const noexcept;

  /// Every core's symbiosis in one call per context switch. @p out (length
  /// num_cores()) receives self_symbiosis(rbv, c) at c == @p self_core (the
  /// LF comparison — the co-residents' footprint) and symbiosis(rbv, c)
  /// everywhere else.
  void symbiosis_all(const BitVector& rbv, std::size_t self_core,
                     std::size_t* out) const noexcept;
  /// Vector-returning convenience form (tests / diagnostics).
  [[nodiscard]] std::vector<std::size_t> symbiosis_all(const BitVector& rbv,
                                                       std::size_t self_core) const;

  /// Occupancy weight of a core's CURRENT core filter (used by the Fig 2/5
  /// footprint-tracking experiment, which monitors CF ones over time).
  [[nodiscard]] std::size_t core_filter_weight(std::size_t core) const noexcept;

  /// Number of cores this unit monitors (cluster-LOCAL on clustered
  /// machines, where each shared L2 carries its own FilterUnit).
  [[nodiscard]] std::size_t num_cores() const noexcept { return config_.num_cores; }

  /// Clear all counters and filters (e.g. between experiment repetitions).
  void reset() noexcept;

  // --- inspection (tests / diagnostics) ---
  [[nodiscard]] const BitVector& core_filter(std::size_t core) const { return cf_.at(core); }
  [[nodiscard]] const BitVector& last_filter(std::size_t core) const { return lf_.at(core); }
  [[nodiscard]] std::uint16_t counter_at(std::size_t i) const { return counters_.at(i); }
  [[nodiscard]] std::size_t entries() const noexcept { return counters_.size(); }
  [[nodiscard]] std::size_t saturated_counters() const noexcept;
  /// Fraction of CF bits set, per core — the presence-bits saturation metric.
  [[nodiscard]] double core_filter_fill(std::size_t core) const { return cf_.at(core).fill_ratio(); }

  /// Full O(cores * entries) consistency audit via SYM_CHECK: every set CF
  /// bit is backed by a live shared counter (on_evict clears CF bits when a
  /// counter drains), all widths agree, and no counter exceeds saturation.
  /// LF bits are exempt — snapshots legitimately go stale (§3.1).
  void validate() const;

  /// Hard ceiling on hash_functions (the paper uses 1; >1 exists only for
  /// the Fig 14 saturation ablation).
  static constexpr unsigned kMaxHashFunctions = 8;

 private:
  /// Map an event to its distinct filter indices (none when the event falls
  /// outside the sampled sets); returns the index count (<= hash_functions).
  [[nodiscard]] unsigned indices_of(LineAddr line, std::size_t set, std::size_t way,
                                    std::size_t* out) const noexcept;

  /// Single distinct index per event: presence mode (positional) or k = 1
  /// (the paper's configuration). Lets the hot event handlers skip the
  /// index-array + dedup pass entirely.
  [[nodiscard]] std::size_t single_index_of(LineAddr line, std::size_t set,
                                            std::size_t way) const noexcept {
    return presence_mode_ ? (set >> config_.sample_shift) * config_.cache_ways + way
                          : hash_->index(line);
  }

  FilterUnitConfig config_;
  std::optional<IndexHash> hash_;        // engaged unless in presence mode
  bool presence_mode_;
  bool single_index_;                    // presence mode or hash_functions == 1
  std::uint16_t counter_max_;
  std::vector<std::uint16_t> counters_;  // shared counter array
  std::vector<BitVector> cf_;            // per-core Core Filters
  std::vector<BitVector> lf_;            // per-core Last Filters
};

/// Symbiosis of an RBV against a core monitored by a DIFFERENT FilterUnit
/// (another L2 cluster). The two filters index disjoint caches, so the
/// footprints cannot overlap by construction and popcount(RBV XOR CF)
/// reduces to popcount(RBV) + popcount(CF) — maximal symbiosis, which is
/// exactly right: processes in different clusters do not contend for cache
/// space at all. @p other_weight is the other unit's core_filter_weight().
[[nodiscard]] inline std::size_t disjoint_symbiosis(const BitVector& rbv,
                                                    std::size_t other_weight) noexcept {
  return rbv.popcount() + other_weight;
}

/// disjoint_symbiosis() for a caller that already holds popcount(RBV) —
/// e.g. as the signature sample's occupancy weight — so a loop over N
/// remote cores pays for the RBV popcount once, not N times.
[[nodiscard]] inline std::size_t disjoint_symbiosis_from_weights(
    std::size_t rbv_weight, std::size_t other_weight) noexcept {
  return rbv_weight + other_weight;
}

}  // namespace symbiosis::sig

// replacement.hpp — victim-selection policies for set-associative caches.
//
// The paper's L2 is modelled after the Core 2 Duo's (effectively LRU-like);
// the other policies exist for tests and sensitivity studies, and because
// the signature hardware must be replacement-agnostic (§6 stresses that the
// scheme does not modify the cache's normal operation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace symbiosis::cachesim {

enum class ReplacementKind { Lru, Fifo, Random, TreePlru, Srrip };

[[nodiscard]] std::string to_string(ReplacementKind kind);
[[nodiscard]] ReplacementKind parse_replacement(const std::string& name);

/// Replacement state of every set of one cache. The kind is fixed at
/// construction and each call dispatches on it with a switch: no virtual
/// table, and the per-hit/per-fill updates inline into Cache::access.
///
///   Lru      — monotone 64-bit stamp per line, refreshed on every touch;
///   Fifo     — the same stamps, written only on fill;
///   Random   — one seeded next_below draw per victim;
///   TreePlru — a (ways-1)-node decision tree per set (power-of-two ways);
///   Srrip    — SRRIP-HP (Jaleel et al. ISCA'10), a 2-bit RRPV per line.
class Replacement {
 public:
  /// @p seed only matters for Random. Throws std::invalid_argument for
  /// tree-PLRU over a non-power-of-two associativity.
  Replacement(ReplacementKind kind, std::size_t sets, std::size_t ways, std::uint64_t seed = 1);

  /// Called on every hit of (set, way).
  void on_touch(std::size_t set, std::size_t way) noexcept {
    switch (kind_) {
      case ReplacementKind::Lru: stamp_[set * ways_ + way] = ++clock_; return;
      case ReplacementKind::Srrip: bits_[set * ways_ + way] = 0; return;  // near-immediate
      case ReplacementKind::TreePlru: point_away(set, way); return;
      case ReplacementKind::Fifo:  // hits do not refresh a FIFO
      case ReplacementKind::Random: return;
    }
  }

  /// Called when (set, way) receives a brand-new line.
  void on_fill(std::size_t set, std::size_t way) noexcept {
    switch (kind_) {
      case ReplacementKind::Lru:
      case ReplacementKind::Fifo: stamp_[set * ways_ + way] = ++clock_; return;
      case ReplacementKind::Srrip: bits_[set * ways_ + way] = kRrpvMax - 1; return;  // long
      case ReplacementKind::TreePlru: point_away(set, way); return;
      case ReplacementKind::Random: return;
    }
  }

  /// Choose the victim within ways [@p begin, @p end) of @p set (all of
  /// them valid) — the whole set when unpartitioned, the requestor's way
  /// range under a CAT-style partition (cachesim/cache.hpp). May mutate
  /// state: Random advances its RNG, SRRIP ages the range.
  [[nodiscard]] std::size_t victim_in(std::size_t set, std::size_t begin,
                                      std::size_t end) noexcept;

  /// False for tree-PLRU, whose decision tree spans the whole set and so
  /// cannot confine victims to a way range; Cache::set_partition rejects it.
  [[nodiscard]] bool supports_partitioning() const noexcept {
    return kind_ != ReplacementKind::TreePlru;
  }

  /// Drop all state (Random's RNG stream continues).
  void reset() noexcept;

 private:
  static constexpr std::uint8_t kRrpvMax = 3;  // 2-bit RRPV

  /// Tree-PLRU touch: point every node on the root-to-leaf path AWAY from way.
  void point_away(std::size_t set, std::size_t way) noexcept;

  ReplacementKind kind_;
  std::size_t ways_;
  std::vector<std::uint64_t> stamp_;  ///< Lru/Fifo: per line
  std::vector<std::uint8_t> bits_;    ///< Srrip: RRPV per line; TreePlru: ways-1 nodes per set
  std::uint64_t clock_ = 0;
  util::Rng rng_;                     ///< Random only
};

}  // namespace symbiosis::cachesim

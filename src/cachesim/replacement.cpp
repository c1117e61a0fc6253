#include "cachesim/replacement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::cachesim {

std::string to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::Lru: return "lru";
    case ReplacementKind::Fifo: return "fifo";
    case ReplacementKind::Random: return "random";
    case ReplacementKind::TreePlru: return "tree-plru";
    case ReplacementKind::Srrip: return "srrip";
  }
  return "?";
}

ReplacementKind parse_replacement(const std::string& name) {
  if (name == "lru") return ReplacementKind::Lru;
  if (name == "fifo") return ReplacementKind::Fifo;
  if (name == "random") return ReplacementKind::Random;
  if (name == "tree-plru") return ReplacementKind::TreePlru;
  if (name == "srrip") return ReplacementKind::Srrip;
  throw std::invalid_argument("unknown replacement policy: " + name);
}

Replacement::Replacement(ReplacementKind kind, std::size_t sets, std::size_t ways,
                         std::uint64_t seed)
    : kind_(kind), ways_(ways), seed_(seed), rng_(seed) {
  switch (kind) {
    case ReplacementKind::Lru:
    case ReplacementKind::Fifo: stamp_.assign(sets * ways, 0); break;
    case ReplacementKind::Srrip: bits_.assign(sets * ways, kRrpvMax); break;
    case ReplacementKind::TreePlru:
      if (ways == 0 || (ways & (ways - 1)) != 0) {
        throw std::invalid_argument("TreePlru requires power-of-two associativity");
      }
      bits_.assign(sets * (ways > 1 ? ways - 1 : 1), 0);
      break;
    case ReplacementKind::Random: break;
  }
}

void Replacement::point_away(std::size_t set, std::size_t way) noexcept {
  // Walk from the root toward the leaf, pointing each node AWAY from way.
  std::uint8_t* nodes = &bits_[set * (ways_ - 1)];
  std::size_t node = 0;
  std::size_t lo = 0, hi = ways_;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      nodes[node] = 1;  // next victim search goes right
      node = 2 * node + 1;
      hi = mid;
    } else {
      nodes[node] = 0;  // next victim search goes left
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

SYM_HOT std::size_t Replacement::victim_in(std::size_t set, std::size_t begin,
                                           std::size_t end) noexcept {
  switch (kind_) {
    case ReplacementKind::Lru:
    case ReplacementKind::Fifo: {
      // Oldest stamp, lowest way on ties. Every way of a full range was
      // filled at least once, so its stamps are distinct and the minimum
      // is unique. Written as selects: which way holds the minimum is data
      // dependent, so a branch here would mispredict.
      const std::uint64_t* const row = &stamp_[set * ways_];
      std::size_t best = begin;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t w = begin; w < end; ++w) {
        const bool older = row[w] < oldest;
        oldest = older ? row[w] : oldest;
        best = older ? w : best;
      }
      return best;
    }
    case ReplacementKind::Random:
      // One draw whatever the range, so a partitioned and an unpartitioned
      // cache consume the stream at the same rate.
      return begin + static_cast<std::size_t>(rng_.next_below(end - begin));
    case ReplacementKind::Srrip: {
      // The lowest way whose RRPV is distant (kRrpvMax); while none is, age
      // the range. Terminates because every round raises some RRPV (all are
      // <= kRrpvMax and the range is non-empty).
      std::uint8_t* const row = &bits_[set * ways_];
      for (;;) {
        for (std::size_t w = begin; w < end; ++w) {
          if (row[w] == kRrpvMax) return w;
        }
        for (std::size_t w = begin; w < end; ++w) ++row[w];
      }
    }
    case ReplacementKind::TreePlru: break;
  }

  // Tree-PLRU: follow the decision bits from the root. The tree spans the
  // whole set, so Cache::set_partition refuses it and only the full range
  // can reach here.
  SYM_DCHECK(begin == 0 && end == ways_, "cachesim.replacement")
      << "tree-PLRU cannot confine victims to a way range";
  const std::uint8_t* nodes = &bits_[set * (ways_ - 1)];
  std::size_t node = 0;
  std::size_t lo = 0, hi = ways_;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (nodes[node] == 0) {
      node = 2 * node + 1;
      hi = mid;
    } else {
      node = 2 * node + 2;
      lo = mid;
    }
  }
  // Replacement-stack integrity: the walk must land on a real leaf and
  // never read past this set's (ways - 1) tree nodes.
  SYM_DCHECK_LT(lo, ways_, "cachesim.replacement") << "tree-PLRU walk escaped the set";
  SYM_DCHECK_LT(node, 2 * ways_ - 1, "cachesim.replacement");
  return lo;
}

void Replacement::reset() noexcept {
  std::fill(stamp_.begin(), stamp_.end(), std::uint64_t{0});
  clock_ = 0;
  std::fill(bits_.begin(), bits_.end(),
            kind_ == ReplacementKind::Srrip ? kRrpvMax : std::uint8_t{0});
  rng_.reseed(seed_);
}

}  // namespace symbiosis::cachesim

// cache.hpp — a single set-associative cache level.
//
// Models tags only (no data), in the style of Simics' g-cache: enough to
// decide hits, choose victims, and notify listeners of fills/evictions so
// the signature hardware (sig::FilterUnit) can shadow the cache's state.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "cachesim/addr.hpp"
#include "cachesim/replacement.hpp"
#include "util/check.hpp"

namespace symbiosis::cachesim {

/// CAT-style contiguous way partition of one shared cache: group g may only
/// FILL (and therefore evict) within its own way range; lookups still search
/// every way, so partition changes never lose cached data. An empty
/// ways_per_group means "unpartitioned" (every group fills anywhere).
struct CachePartition {
  std::vector<std::size_t> ways_per_group;

  [[nodiscard]] bool enabled() const noexcept { return !ways_per_group.empty(); }
  [[nodiscard]] std::size_t groups() const noexcept { return ways_per_group.size(); }
  [[nodiscard]] std::size_t total_ways() const noexcept {
    std::size_t sum = 0;
    for (const std::size_t w : ways_per_group) sum += w;
    return sum;
  }

  [[nodiscard]] bool operator==(const CachePartition&) const = default;
};

/// Outcome of one cache access.
struct AccessResult {
  bool hit = false;
  std::size_t set = 0;
  std::size_t way = 0;          ///< way hit or filled
  bool evicted = false;         ///< a valid line was displaced by the fill
  LineAddr victim_line = 0;     ///< line address of the displaced line
  bool victim_dirty = false;
};

/// Aggregate counters for one cache, overall and per requestor.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] double miss_rate() const noexcept {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
  void reset() noexcept { *this = CacheStats{}; }
};

/// Tag-array set-associative cache with pluggable replacement.
class Cache {
 public:
  /// @param requestors number of distinct requestor ids (cores) for stats
  /// Throws std::invalid_argument for a malformed geometry (validated
  /// before anything is derived from it).
  Cache(CacheGeometry geometry, ReplacementKind replacement, std::size_t requestors = 1,
        std::uint64_t seed = 1);

  /// Access one line. On a miss the line is filled immediately (allocate on
  /// read AND write) and any displaced victim is reported in the result.
  /// Defined below the class and forced inline, so the hierarchy walk never
  /// returns an AccessResult through memory.
  [[gnu::always_inline]] inline AccessResult access(LineAddr line, bool is_write,
                                                    std::size_t requestor = 0);

  /// Tag lookup without perturbing replacement state or stats.
  [[nodiscard]] bool probe(LineAddr line) const noexcept;

  /// Invalidate a line if present; returns true if it was found.
  /// Does not count as an eviction (used for inclusion enforcement).
  bool invalidate(LineAddr line) noexcept;

  /// Invalidate and report WHERE the line sat, so callers mirroring this
  /// cache's contents (the signature FilterUnit during L3 back-invalidation)
  /// can retire the same (set, way). Outputs are untouched on a miss.
  bool invalidate(LineAddr line, std::size_t& set_out, std::size_t& way_out) noexcept;

  /// Apply a CAT-style way partition (CachePartition above): requestor r
  /// belongs to group @p group_of_requestor[r] and may FILL only within its
  /// group's contiguous way range; lookups still search the whole set, so
  /// no cached line is lost. Validated with SYM_CHECK ("cachesim.partition"):
  /// one group per requestor-group, every group at least one way, the sum
  /// within the associativity, and a partition-capable replacement policy.
  void set_partition(const CachePartition& partition,
                     const std::vector<std::size_t>& group_of_requestor);
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }

  /// Occupied lines (valid entries) — true footprint ground truth for the
  /// Fig 2/5 experiment, counted per requestor when @p requestor != npos.
  [[nodiscard]] std::size_t occupancy(std::size_t requestor = kAnyRequestor) const noexcept;

  void reset() noexcept;

  [[nodiscard]] const CacheGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return total_; }
  [[nodiscard]] const CacheStats& stats_for(std::size_t requestor) const {
    return per_requestor_.at(requestor);
  }
  void reset_stats() noexcept;

  static constexpr std::size_t kAnyRequestor = static_cast<std::size_t>(-1);

 private:
  /// Tag of an invalid way. A real tag equals it only in a 1-set cache at
  /// line ~0; that one line is tracked by alias_way_ instead.
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  /// Fill/victim way range of one requestor ([0, ways) when unpartitioned).
  struct WayRange {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Match mask of the ways @p w... of @p row: bit w set when row[w] ==
  /// @p tag. The fold unrolls the compares at compile time.
  template <std::size_t... w>
  [[nodiscard, gnu::always_inline]] static std::uint64_t match_mask(
      const std::uint64_t* row, std::uint64_t tag, std::index_sequence<w...>) noexcept {
    return ((std::uint64_t{row[w] == tag} << w) | ...);
  }

  /// Lowest way of a @p ways-way set whose tag in @p row is @p tag, or
  /// @p ways when none is. The set is matched kLanes ways at a time, each
  /// block one match_mask, and countr_zero picks the lowest match, so
  /// nothing inside a block branches on where the tag sits. find() runs the
  /// 8- and 16-way geometries every preset uses as one block, and any other
  /// associativity as 1-lane blocks (an early-exit scan).
  template <std::size_t kLanes>
  [[nodiscard, gnu::always_inline]] static std::size_t match_way(const std::uint64_t* row,
                                                                 std::uint64_t tag,
                                                                 std::size_t ways) noexcept {
    for (std::size_t base = 0; base < ways; base += kLanes) {
      const std::uint64_t mask = match_mask(row + base, tag, std::make_index_sequence<kLanes>{});
      if (mask != 0) return base + static_cast<std::size_t>(std::countr_zero(mask));
    }
    return ways;
  }

  /// Way of @p set holding @p tag, or ways_ when absent.
  [[nodiscard, gnu::always_inline]] std::size_t find(std::size_t set,
                                                     std::uint64_t tag) const noexcept {
    // The sentinel also marks every invalid way, so it cannot be searched for.
    if (tag == kNoTag) [[unlikely]] return alias_way_ == kNoWay ? ways_ : alias_way_;
    const std::uint64_t* const row = &tags_[set * ways_];
    switch (ways_) {
      case 8: return match_way<8>(row, tag, 8);
      case 16: return match_way<16>(row, tag, 16);
      default: return match_way<1>(row, tag, ways_);
    }
  }

  CacheGeometry geom_;
  // Geometry decode cached at construction: CacheGeometry recomputes
  // sets()/set_bits() with integer divisions on every call, which dominates
  // the tag-lookup hot path. These never change after construction.
  std::size_t ways_;
  std::size_t sets_;
  std::uint64_t set_mask_;   ///< sets_ - 1 (sets is a power of two)
  unsigned set_bits_;
  // Per-line state in parallel arrays indexed set * ways_ + way, so a
  // lookup scans one contiguous run of tags.
  std::vector<std::uint64_t> tags_;    ///< kNoTag marks an invalid way
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint32_t> owner_;   ///< requestor that last filled the line
  /// The way holding line ~0 of a 1-set cache (whose tag is kNoTag), or
  /// kNoWay; always kNoWay in caches with more than one set.
  std::size_t alias_way_ = kNoWay;
  /// Invalid lines in the whole cache; once warm this is usually 0 and a
  /// miss skips the search for a free way.
  std::size_t free_lines_;
  Replacement replacement_;
  CacheStats total_;
  std::vector<CacheStats> per_requestor_;
  /// Per-requestor fill range, pre-resolved so the access hot path is one
  /// indexed load with no partition branch. Defaults to the full set.
  std::vector<WayRange> fill_range_;
  bool partitioned_ = false;
};

AccessResult Cache::access(LineAddr line, bool is_write, std::size_t requestor) {
  SYM_DCHECK_BOUNDS(requestor, per_requestor_.size(), "cachesim.bounds");
  AccessResult result;
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> set_bits_;
  SYM_DCHECK_BOUNDS(set, sets_, "cachesim.bounds") << "set index from line decode";
  result.set = set;

  CacheStats& mine = per_requestor_[requestor];
  ++total_.accesses;
  ++mine.accesses;

  // Hit path.
  const std::size_t base = set * ways_;
  const std::size_t hit_way = find(set, tag);
  if (hit_way < ways_) {
    result.hit = true;
    result.way = hit_way;
    dirty_[base + hit_way] |= static_cast<std::uint8_t>(is_write);
    replacement_.on_touch(set, hit_way);
    ++total_.hits;
    ++mine.hits;
    return result;
  }

  // Miss: fill into an invalid way of the requestor's range if any, else
  // evict the policy's victim from that range. Unpartitioned caches have
  // every range pre-resolved to [0, ways), making this path identical to
  // the pre-partition scan.
  ++total_.misses;
  ++mine.misses;

  std::uint64_t* const row = &tags_[base];
  const WayRange range = fill_range_[requestor];
  std::size_t way = range.begin;
  if (free_lines_ == 0) way = range.end;  // nothing to find: skip the scan
  while (way < range.end && (row[way] != kNoTag || way == alias_way_)) ++way;
  if (way < range.end) {
    --free_lines_;
  } else {
    way = replacement_.victim_in(set, range.begin, range.end);
    SYM_DCHECK(way >= range.begin && way < range.end, "cachesim.replacement")
        << "replacement policy chose a victim outside the requestor's way range";
    SYM_DCHECK(row[way] != kNoTag || way == alias_way_, "cachesim.replacement")
        << "victim way " << way << " of full set " << set << " is invalid";
    const std::size_t victim_owner = owner_[base + way];
    SYM_DCHECK_BOUNDS(victim_owner, per_requestor_.size(), "cachesim.bounds");
    result.evicted = true;
    result.victim_line = (row[way] << set_bits_) | set;
    result.victim_dirty = dirty_[base + way] != 0;
    ++total_.evictions;
    ++per_requestor_[victim_owner].evictions;
    if (result.victim_dirty) {
      ++total_.writebacks;
      ++per_requestor_[victim_owner].writebacks;
    }
  }

  row[way] = tag;
  dirty_[base + way] = static_cast<std::uint8_t>(is_write);
  owner_[base + way] = static_cast<std::uint32_t>(requestor);
  if (tag == kNoTag || way == alias_way_) [[unlikely]] alias_way_ = tag == kNoTag ? way : kNoWay;
  replacement_.on_fill(set, way);
  result.way = way;
  return result;
}

}  // namespace symbiosis::cachesim

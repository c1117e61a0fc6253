#include "cachesim/cache.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace symbiosis::cachesim {

namespace {

/// Validate before anything is derived from the geometry: sets() divides by
/// ways and lines() by line_bytes.
const CacheGeometry& validated(const CacheGeometry& geometry) {
  geometry.validate();
  return geometry;
}

}  // namespace

Cache::Cache(CacheGeometry geometry, ReplacementKind replacement, std::size_t requestors,
             std::uint64_t seed)
    : geom_(validated(geometry)),
      ways_(geom_.ways),
      sets_(geom_.sets()),
      set_mask_(geom_.sets() - 1),
      set_bits_(geom_.set_bits()),
      tags_(geom_.lines(), kNoTag),
      dirty_(geom_.lines(), 0),
      owner_(geom_.lines(), 0),
      free_lines_(geom_.lines()),
      replacement_(replacement, geom_.sets(), geom_.ways, seed),
      per_requestor_(requestors),
      fill_range_(requestors, WayRange{0, geom_.ways}) {
  SYM_CHECK_LE(requestors, std::size_t{std::numeric_limits<std::uint32_t>::max()},
               "cachesim.bounds")
      << "requestor ids are stored as 32-bit line owners";
}

void Cache::set_partition(const CachePartition& partition,
                          const std::vector<std::size_t>& group_of_requestor) {
  SYM_CHECK(partition.enabled(), "cachesim.partition")
      << "set_partition with an empty partition (use the default full range)";
  SYM_CHECK(replacement_.supports_partitioning(), "cachesim.partition")
      << "replacement policy cannot confine victims to a way range";
  SYM_CHECK_EQ(group_of_requestor.size(), per_requestor_.size(), "cachesim.partition")
      << "need one group id per requestor";
  for (const std::size_t w : partition.ways_per_group) {
    SYM_CHECK(w >= 1, "cachesim.partition") << "a zero-way group could never fill a line";
  }
  SYM_CHECK_LE(partition.total_ways(), ways_, "cachesim.partition")
      << "partition claims " << partition.total_ways() << " ways of " << ways_;

  // Contiguous CAT-style ranges: group g owns [prefix(g), prefix(g) + ways).
  std::vector<WayRange> group_range(partition.groups());
  std::size_t next = 0;
  for (std::size_t g = 0; g < partition.groups(); ++g) {
    group_range[g] = WayRange{next, next + partition.ways_per_group[g]};
    next += partition.ways_per_group[g];
  }
  for (std::size_t r = 0; r < group_of_requestor.size(); ++r) {
    SYM_CHECK_BOUNDS(group_of_requestor[r], group_range.size(), "cachesim.partition")
        << "requestor " << r << " mapped to a group the partition does not define";
    fill_range_[r] = group_range[group_of_requestor[r]];
  }
  partitioned_ = true;
}

bool Cache::probe(LineAddr line) const noexcept {
  return find(static_cast<std::size_t>(line & set_mask_), line >> set_bits_) < ways_;
}

bool Cache::invalidate(LineAddr line) noexcept {
  std::size_t set = 0;
  std::size_t way = 0;
  return invalidate(line, set, way);
}

bool Cache::invalidate(LineAddr line, std::size_t& set_out, std::size_t& way_out) noexcept {
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::size_t way = find(set, line >> set_bits_);
  if (way == ways_) return false;
  ++free_lines_;
  tags_[set * ways_ + way] = kNoTag;
  dirty_[set * ways_ + way] = 0;
  if (way == alias_way_) alias_way_ = kNoWay;
  set_out = set;
  way_out = way;
  return true;
}

std::size_t Cache::occupancy(std::size_t requestor) const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    // A 1-set cache indexes lines by way, so alias_way_ is also a line index.
    const bool valid = tags_[i] != kNoTag || i == alias_way_;
    if (valid && (requestor == kAnyRequestor || owner_[i] == requestor)) ++count;
  }
  return count;
}

void Cache::reset() noexcept {
  std::fill(tags_.begin(), tags_.end(), kNoTag);
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  std::fill(owner_.begin(), owner_.end(), std::uint32_t{0});
  alias_way_ = kNoWay;
  free_lines_ = tags_.size();
  replacement_.reset();
  reset_stats();
}

void Cache::reset_stats() noexcept {
  total_.reset();
  for (auto& s : per_requestor_) s.reset();
}

}  // namespace symbiosis::cachesim

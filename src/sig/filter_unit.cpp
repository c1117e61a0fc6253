#include "sig/filter_unit.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "sig/kernels.hpp"
#include "util/check.hpp"
#include "util/hotpath.hpp"

#include "util/bitops.hpp"

namespace symbiosis::sig {

namespace {

/// Validate before anything is derived from the config: counter_max_ shifts
/// by counter_bits, and entries() and sampled() shift by sample_shift.
const FilterUnitConfig& validated(const FilterUnitConfig& config) {
  if (config.num_cores == 0) throw std::invalid_argument("FilterUnit: num_cores must be > 0");
  if (!util::is_pow2(config.cache_sets)) {
    throw std::invalid_argument("FilterUnit: cache_sets must be a power of two");
  }
  if (config.counter_bits == 0 || config.counter_bits > 16) {
    throw std::invalid_argument("FilterUnit: counter_bits must be in [1, 16]");
  }
  if (config.sample_shift > util::floor_log2(config.cache_sets)) {
    throw std::invalid_argument("FilterUnit: sample_shift " +
                                std::to_string(config.sample_shift) +
                                " leaves no sampled sets (must be <= log2(cache_sets) = " +
                                std::to_string(util::floor_log2(config.cache_sets)) + ")");
  }
  if (config.hash_functions == 0 || config.hash_functions > FilterUnit::kMaxHashFunctions) {
    throw std::invalid_argument("FilterUnit: hash_functions must be in [1, 8]");
  }
  return config;
}

}  // namespace

FilterUnit::FilterUnit(FilterUnitConfig config)
    : config_(validated(config)),
      presence_mode_(config_.hash == HashKind::Presence),
      single_index_(presence_mode_ || config_.hash_functions == 1),
      counter_max_(static_cast<std::uint16_t>((1u << config_.counter_bits) - 1)),
      counters_(config_.entries(), 0) {
  if (!presence_mode_) {
    hash_.emplace(config_.hash, config_.entries());
  }
  cf_.assign(config_.num_cores, BitVector(config_.entries()));
  lf_.assign(config_.num_cores, BitVector(config_.entries()));
}

SYM_HOT unsigned FilterUnit::indices_of(LineAddr line, std::size_t set, std::size_t way,
                                std::size_t* out) const noexcept {
  if (!config_.sampled(set)) return 0;
  if (presence_mode_) {
    // Positional: one bit per sampled physical cache line.
    out[0] = (set >> config_.sample_shift) * config_.cache_ways + way;
    return 1;
  }
  // k derived hashes; duplicates are collapsed so a counter moves at most
  // once per event (§2.4's rule). The paper uses k = 1; larger k exists for
  // the Fig 14 saturation ablation.
  unsigned n = 0;
  for (unsigned k = 0; k < config_.hash_functions; ++k) {
    const std::size_t idx = hash_->index_k(line, k);
    bool duplicate = false;
    for (unsigned j = 0; j < n; ++j) {
      if (out[j] == idx) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out[n++] = idx;
  }
  return n;
}

SYM_HOT void FilterUnit::on_fill(LineAddr line, std::size_t core, std::size_t set,
                         std::size_t way) noexcept {
  SYM_DCHECK_BOUNDS(core, cf_.size(), "sig.filter");
  SYM_DCHECK_LT(way, config_.cache_ways, "sig.filter") << "fill way out of range";
  if (single_index_) {
    // Hot path (presence mode or the paper's k = 1): one index, no dedup.
    if (!config_.sampled(set)) return;
    const std::size_t idx = single_index_of(line, set, way);
    SYM_DCHECK_BOUNDS(idx, counters_.size(), "sig.filter") << "filter index out of range";
    auto& counter = counters_[idx];
    if (counter < counter_max_) ++counter;  // saturate, never wrap
    cf_[core].set(idx);
    return;
  }
  std::size_t idx[kMaxHashFunctions];
  const unsigned n = indices_of(line, set, way, idx);
  for (unsigned i = 0; i < n; ++i) {
    SYM_DCHECK_BOUNDS(idx[i], counters_.size(), "sig.filter") << "filter index out of range";
    auto& counter = counters_[idx[i]];
    if (counter < counter_max_) ++counter;  // saturate, never wrap
    cf_[core].set(idx[i]);
  }
}

SYM_HOT void FilterUnit::on_evict(LineAddr line, std::size_t set, std::size_t way) noexcept {
  if (single_index_) {
    if (!config_.sampled(set)) return;
    const std::size_t idx = single_index_of(line, set, way);
    SYM_DCHECK_BOUNDS(idx, counters_.size(), "sig.filter") << "filter index out of range";
    auto& counter = counters_[idx];
    if (counter == 0 || counter == counter_max_) return;  // underflow / stuck-at-max
    if (--counter == 0) {
      for (auto& cf : cf_) cf.clear(idx);
    }
    return;
  }
  std::size_t idx[kMaxHashFunctions];
  const unsigned n = indices_of(line, set, way, idx);
  for (unsigned i = 0; i < n; ++i) {
    SYM_DCHECK_BOUNDS(idx[i], counters_.size(), "sig.filter") << "filter index out of range";
    auto& counter = counters_[idx[i]];
    if (counter == 0 || counter == counter_max_) continue;  // underflow / stuck-at-max
    if (--counter == 0) {
      // §3.1: when the shared counter drains, the index is cleared in EVERY
      // core filter — the line(s) that set those bits are all gone.
      for (auto& cf : cf_) cf.clear(idx[i]);
    }
  }
}

void FilterUnit::snapshot(std::size_t core) noexcept {
  SYM_DCHECK_BOUNDS(core, cf_.size(), "sig.filter");
  lf_[core].assign(cf_[core]);
  static obs::Counter& snapshots = obs::counter("sig.filter.snapshots");
  snapshots.add(1);
}

BitVector FilterUnit::compute_rbv(std::size_t core) const {
  BitVector rbv(counters_.size());
  rbv.assign_and_not(cf_.at(core), lf_.at(core));
  return rbv;
}

std::size_t FilterUnit::symbiosis(const BitVector& rbv, std::size_t other_core) const noexcept {
  SYM_DCHECK_BOUNDS(other_core, cf_.size(), "sig.filter");
  SYM_DCHECK_EQ(rbv.size(), counters_.size(), "sig.filter") << "RBV width != filter entries";
  return rbv.xor_popcount(cf_[other_core]);
}

std::size_t FilterUnit::self_symbiosis(const BitVector& rbv, std::size_t core) const noexcept {
  SYM_DCHECK_BOUNDS(core, lf_.size(), "sig.filter");
  SYM_DCHECK_EQ(rbv.size(), counters_.size(), "sig.filter") << "RBV width != filter entries";
  return rbv.xor_popcount(lf_[core]);
}

SYM_HOT void FilterUnit::symbiosis_all(const BitVector& rbv, std::size_t self_core,
                                       std::size_t* out) const noexcept {
  SYM_DCHECK_BOUNDS(self_core, cf_.size(), "sig.filter");
  SYM_DCHECK_EQ(rbv.size(), counters_.size(), "sig.filter") << "RBV width != filter entries";
  // Gather the per-core filter word pointers (LF for the self core, CF for
  // the rest) in fixed-size chunks so the pointer table stays on the stack
  // for any cluster width.
  constexpr std::size_t kChunk = 64;
  const std::uint64_t* ptrs[kChunk];
  const std::uint64_t* rbv_words = rbv.words().data();
  const std::size_t words = rbv.words().size();
  for (std::size_t base = 0; base < cf_.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, cf_.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t core = base + i;
      ptrs[i] = (core == self_core ? lf_[core] : cf_[core]).words().data();
    }
    // symhot: indirect(SIMD kernel table dispatch; the bound backend's kernels are SYM_HOT roots)
    kernels::ops().xor_popcount_many(rbv_words, ptrs, n, words, out + base);
  }
}

std::vector<std::size_t> FilterUnit::symbiosis_all(const BitVector& rbv,
                                                   std::size_t self_core) const {
  std::vector<std::size_t> out(cf_.size());
  symbiosis_all(rbv, self_core, out.data());
  return out;
}

std::size_t FilterUnit::core_filter_weight(std::size_t core) const noexcept {
  SYM_DCHECK_BOUNDS(core, cf_.size(), "sig.filter");
  return cf_[core].popcount();
}

void FilterUnit::reset() noexcept {
  std::fill(counters_.begin(), counters_.end(), std::uint16_t{0});
  for (auto& cf : cf_) cf.reset();
  for (auto& lf : lf_) lf.reset();
}

void FilterUnit::validate() const {
  for (std::size_t c = 0; c < cf_.size(); ++c) {
    SYM_CHECK_EQ(cf_[c].size(), counters_.size(), "sig.filter") << "CF width != entries";
    SYM_CHECK_EQ(lf_[c].size(), counters_.size(), "sig.filter") << "LF width != entries";
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    SYM_CHECK_LE(counters_[i], counter_max_, "sig.filter") << "counter exceeds saturation";
    if (counters_[i] != 0) continue;
    for (std::size_t c = 0; c < cf_.size(); ++c) {
      SYM_CHECK(!cf_[c].test(i), "sig.filter")
          << "CF bit " << i << " set for core " << c << " with a drained counter";
    }
  }
}

std::size_t FilterUnit::saturated_counters() const noexcept {
  return static_cast<std::size_t>(
      std::count(counters_.begin(), counters_.end(), counter_max_));
}

}  // namespace symbiosis::sig

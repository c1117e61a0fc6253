// tlb.hpp — small fully-associative TLB model.
//
// Exists for the §2.2 motivation experiment: TLB misses are one of the
// event-based performance counters the paper shows do NOT track cache
// footprint. Flushed on context switch (no ASIDs, like the era's x86).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace symbiosis::cachesim {

/// Fully-associative, true-LRU TLB over virtual page numbers.
///
/// Storage is structure-of-arrays: the hit check is a tight scan over a
/// dense page-number array (the translation CAM) with validity encoded as a
/// sentinel page plus an invalid-prefix counter, and recency is an intrusive
/// doubly-linked list over the slots so the LRU victim is O(1) instead of a
/// stamp scan. Because the reference semantics ("first slot with the
/// minimum stamp") assigns a distinct stamp on every touch, the minimum is
/// always unique and equals the list tail — the victim choice is
/// bit-identical to the classic scan. This sits on the per-access hot path
/// of every Hierarchy walk, so a direct-mapped page-to-slot hint is checked
/// before the scan; a hint is only ever a guess confirmed against pages_,
/// and a valid page sits in exactly one slot, so the hint finds the same
/// slot the scan would.
class Tlb {
 public:
  /// @param entries    TLB capacity
  /// @param page_bytes page size (power of two), default 4 KiB
  explicit Tlb(std::size_t entries = 64, std::size_t page_bytes = 4096);

  /// Translate the page containing @p addr; returns true on a TLB hit.
  bool access(std::uint64_t addr) noexcept;

  /// Context-switch flush.
  void flush() noexcept;

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  void reset_stats() noexcept { hits_ = misses_ = 0; }

  [[nodiscard]] std::size_t capacity() const noexcept { return pages_.size(); }
  [[nodiscard]] std::size_t page_bytes() const noexcept { return page_bytes_; }

 private:
  /// Sentinel marking an empty slot. Real pages collide with it only when
  /// page_bytes == 1 and addr == ~0; access() handles that case explicitly.
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
  /// Null link for the recency list.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Hint slots, indexed by the low page-number bits.
  static constexpr std::size_t kHintSlots = 64;

  void detach(std::uint32_t i) noexcept;
  void push_front(std::uint32_t i) noexcept;
  void touch(std::uint32_t i) noexcept;

  std::size_t page_bytes_;
  unsigned page_bits_;
  std::vector<std::uint64_t> pages_;  ///< kNoPage in the invalid prefix
  std::vector<std::uint32_t> prev_;   ///< recency list toward MRU
  std::vector<std::uint32_t> next_;   ///< recency list toward LRU
  std::uint32_t head_ = kNil;         ///< MRU valid slot
  std::uint32_t tail_ = kNil;         ///< LRU valid slot — the full-TLB victim
  /// Invalid slots are exactly [0, invalid_count_): fills consume the prefix
  /// from the top down, which reproduces the classic scan's victim choice
  /// (the last invalid slot in iteration order).
  std::size_t invalid_count_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Last slot seen holding a page with these low bits; every entry is a
  /// valid slot index, possibly stale.
  std::array<std::uint32_t, kHintSlots> hint_{};
};

}  // namespace symbiosis::cachesim

#include "cachesim/tlb.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bitops.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::cachesim {

Tlb::Tlb(std::size_t entries, std::size_t page_bytes)
    : page_bytes_(page_bytes),
      page_bits_(util::floor_log2(page_bytes)),
      pages_(entries, kNoPage),
      prev_(entries, kNil),
      next_(entries, kNil),
      invalid_count_(entries) {
  if (entries == 0) throw std::invalid_argument("Tlb: entries must be > 0");
  if (entries >= kNil) throw std::invalid_argument("Tlb: entries too large");
  if (!util::is_pow2(page_bytes)) throw std::invalid_argument("Tlb: page size must be pow2");
}

void Tlb::detach(std::uint32_t i) noexcept {
  if (prev_[i] != kNil) {
    next_[prev_[i]] = next_[i];
  } else {
    head_ = next_[i];
  }
  if (next_[i] != kNil) {
    prev_[next_[i]] = prev_[i];
  } else {
    tail_ = prev_[i];
  }
}

void Tlb::push_front(std::uint32_t i) noexcept {
  prev_[i] = kNil;
  next_[i] = head_;
  if (head_ != kNil) {
    prev_[head_] = i;
  } else {
    tail_ = i;
  }
  head_ = i;
}

void Tlb::touch(std::uint32_t i) noexcept {
  if (i == head_) return;
  detach(i);
  push_front(i);
}

SYM_HOT bool Tlb::access(std::uint64_t addr) noexcept {
  const std::uint64_t page = addr >> page_bits_;
  std::uint32_t& hint = hint_[page & (kHintSlots - 1)];
  // Invalid slots hold kNoPage too, so the hint is never trusted for it.
  if (pages_[hint] == page && page != kNoPage) [[likely]] {
    ++hits_;
    touch(hint);
    return true;
  }

  // One compare per slot decides the hit. If the page collides with the
  // sentinel (page_bytes == 1 and addr == ~0), restrict the scan to the
  // valid suffix.
  const std::size_t n = pages_.size();
  std::size_t i = (page != kNoPage) ? 0 : invalid_count_;
  for (; i < n; ++i) {
    if (pages_[i] == page) break;
  }
  if (i < n) {
    ++hits_;
    hint = static_cast<std::uint32_t>(i);
    touch(hint);
    return true;
  }

  ++misses_;
  std::uint32_t victim;
  if (invalid_count_ > 0) {
    victim = static_cast<std::uint32_t>(--invalid_count_);  // top of the prefix
    push_front(victim);
  } else {
    victim = tail_;  // unique LRU == the classic scan's first-min-stamp slot
    touch(victim);
  }
  pages_[victim] = page;
  hint = victim;
  return false;
}

void Tlb::flush() noexcept {
  std::fill(pages_.begin(), pages_.end(), kNoPage);
  invalid_count_ = pages_.size();
  head_ = tail_ = kNil;
}

}  // namespace symbiosis::cachesim

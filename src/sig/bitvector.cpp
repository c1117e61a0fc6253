#include "sig/bitvector.hpp"

#include <bit>

#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::sig {

namespace {
constexpr std::size_t kWordBits = 64;
}

BitVector::BitVector(std::size_t bits) : bits_(bits), words_((bits + kWordBits - 1) / kWordBits, 0) {}

void BitVector::set(std::size_t i) noexcept {
  SYM_DCHECK_BOUNDS(i, bits_, "sig.bitvector");
  words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

void BitVector::clear(std::size_t i) noexcept {
  SYM_DCHECK_BOUNDS(i, bits_, "sig.bitvector");
  words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

bool BitVector::test(std::size_t i) const noexcept {
  SYM_DCHECK_BOUNDS(i, bits_, "sig.bitvector");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::reset() noexcept {
  for (auto& w : words_) w = 0;
}

SYM_HOT std::size_t BitVector::popcount() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

SYM_HOT std::size_t BitVector::xor_popcount(const BitVector& other) const noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return total;
}

SYM_HOT void BitVector::assign_and_not(const BitVector& a, const BitVector& b) noexcept {
  SYM_DCHECK_EQ(bits_, a.bits_, "sig.bitvector") << "bit-vector width mismatch";
  SYM_DCHECK_EQ(bits_, b.bits_, "sig.bitvector") << "bit-vector width mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] = a.words_[i] & ~b.words_[i];
}

void BitVector::assign(const BitVector& other) noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  words_ = other.words_;
}

double BitVector::fill_ratio() const noexcept {
  if (bits_ == 0) return 0.0;
  return static_cast<double>(popcount()) / static_cast<double>(bits_);
}

}  // namespace symbiosis::sig

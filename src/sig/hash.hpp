// hash.hpp — the Bloom-filter index hash functions evaluated in the paper.
//
// §5.3 compares four hardware-friendly hash functions for mapping a cache
// block address to a Bloom-filter index:
//   * XOR            — fold the block address into index-width chunks, XOR.
//   * XOR inv/rev    — XOR fold, then bitwise invert and bit-reverse.
//   * Modulo         — block address mod filter size.
//   * Presence bits  — no hash at all: a 1:1 bit per physical cache line
//                      (handled by the signature unit via (set, way), see
//                      sig/filter_unit.hpp), included here only as an enum.
// A multiplicative mixer is included as a software-quality reference point
// for tests (it is NOT hardware-cheap and the paper does not use it).
#pragma once

#include <cstdint>
#include <string>

#include "util/bitops.hpp"

namespace symbiosis::sig {

/// Cache-line (block) address: byte address >> line_bits.
using LineAddr = std::uint64_t;

enum class HashKind {
  Xor,                ///< XOR-fold of index-width chunks (paper default)
  XorInverseReverse,  ///< XOR-fold, then invert + bit-reverse
  Modulo,             ///< line address modulo filter entries
  Presence,           ///< 1:1 presence bit per cache line (positional, no hash)
  Multiply,           ///< Fibonacci multiplicative mixing (software reference)
};

/// Human-readable name ("xor", "xor-inv-rev", "modulo", "presence", "multiply").
[[nodiscard]] std::string to_string(HashKind kind);

/// Parse a hash name; throws std::invalid_argument on unknown names.
[[nodiscard]] HashKind parse_hash_kind(const std::string& name);

/// Stateless Bloom index hash over line addresses.
///
/// `entries` must be a power of two for Xor/XorInverseReverse/Multiply
/// (the fold width is log2(entries)); Modulo accepts any entries > 0.
class IndexHash {
 public:
  IndexHash(HashKind kind, std::size_t entries);

  /// Map a line address to an index in [0, entries).
  ///
  /// Defined inline: this is the innermost kernel of every Bloom update on
  /// the simulation hot path, and its call site (FilterUnit) lives in
  /// another translation unit.
  [[nodiscard]] std::size_t index(LineAddr line) const noexcept {
    switch (kind_) {
      case HashKind::Xor:
        return static_cast<std::size_t>(xor_fold(line) & util::low_mask(index_bits_));
      case HashKind::XorInverseReverse: {
        const std::uint64_t acc = ~xor_fold(line) & util::low_mask(index_bits_);
        return static_cast<std::size_t>(util::reverse_bits(acc, index_bits_));
      }
      case HashKind::Modulo:
        return static_cast<std::size_t>(line % entries_);
      case HashKind::Multiply: {
        const std::uint64_t mixed = line * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(mixed >> (64 - index_bits_));
      }
      case HashKind::Presence:
        return 0;  // unreachable: rejected in the constructor
    }
    return 0;
  }

  /// Derive the i-th independent hash (for multi-hash Bloom filters):
  /// the line address is pre-mixed with a per-function odd constant.
  [[nodiscard]] std::size_t index_k(LineAddr line, unsigned k) const noexcept {
    if (k == 0) return index(line);
    // Pre-mix with a per-function odd constant so the k functions differ;
    // the mixing is cheap XOR/shift only, keeping the hardware-cost
    // argument valid.
    const std::uint64_t salt = 0x9e3779b97f4a7c15ull * (2ull * k + 1ull);
    const LineAddr mixed = line ^ (salt >> 13) ^ (line << (k % 7 + 1));
    return index(mixed);
  }

  [[nodiscard]] HashKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }
  [[nodiscard]] unsigned index_bits() const noexcept { return index_bits_; }

 private:
  /// Fold the 64-bit line address into index_bits_-wide chunks and XOR them.
  [[nodiscard]] std::uint64_t xor_fold(LineAddr line) const noexcept {
    std::uint64_t acc = 0;
    for (unsigned lo = 0; lo < 64; lo += index_bits_) {
      acc ^= util::bits(line, lo, index_bits_);
    }
    return acc;
  }

  HashKind kind_;
  std::size_t entries_;
  unsigned index_bits_;
};

}  // namespace symbiosis::sig

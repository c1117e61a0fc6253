// addr.hpp — address types and cache geometry arithmetic.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace symbiosis::cachesim {

/// Byte address in the simulated physical address space.
using Addr = std::uint64_t;
/// Cache-line address: byte address >> line_bits.
using LineAddr = std::uint64_t;

/// One memory reference of a task or a trace: the unit Hierarchy::access_batch
/// consumes and TaskStream::next_chunk produces. @p gap is the number of
/// compute instructions (one cycle each) the core retires before the
/// reference; it sits in what was padding, so the struct stays 16 bytes.
struct MemRef {
  Addr addr = 0;
  bool is_write = false;
  std::uint32_t gap = 0;
};
static_assert(sizeof(MemRef) == 16, "MemRef must stay two words");

/// Geometry of one set-associative cache level.
struct CacheGeometry {
  std::size_t size_bytes = 4 * 1024 * 1024;
  std::size_t ways = 16;
  std::size_t line_bytes = 64;

  [[nodiscard]] std::size_t lines() const noexcept { return size_bytes / line_bytes; }
  [[nodiscard]] std::size_t sets() const noexcept { return lines() / ways; }
  [[nodiscard]] unsigned line_bits() const noexcept { return util::floor_log2(line_bytes); }
  [[nodiscard]] unsigned set_bits() const noexcept { return util::floor_log2(sets()); }

  [[nodiscard]] LineAddr line_of(Addr addr) const noexcept { return addr >> line_bits(); }
  [[nodiscard]] std::size_t set_of(LineAddr line) const noexcept {
    return static_cast<std::size_t>(line & (sets() - 1));
  }
  [[nodiscard]] std::uint64_t tag_of(LineAddr line) const noexcept { return line >> set_bits(); }

  /// Validate power-of-two invariants; throws std::invalid_argument.
  void validate() const {
    if (line_bytes == 0 || !util::is_pow2(line_bytes)) {
      throw std::invalid_argument("CacheGeometry: line_bytes must be a power of two");
    }
    if (ways == 0 || size_bytes % (ways * line_bytes) != 0) {
      throw std::invalid_argument("CacheGeometry: size must be a multiple of ways*line");
    }
    if (!util::is_pow2(sets())) {
      throw std::invalid_argument("CacheGeometry: set count must be a power of two");
    }
  }

  [[nodiscard]] std::string describe() const {
    return std::to_string(size_bytes / 1024) + "KB/" + std::to_string(ways) + "way/" +
           std::to_string(line_bytes) + "B";
  }
};

}  // namespace symbiosis::cachesim

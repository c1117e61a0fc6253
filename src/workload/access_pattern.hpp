// access_pattern.hpp — composable synthetic memory-reference generators.
//
// We do not have SPEC CPU2006 / PARSEC binaries or traces, so workloads are
// synthesised from a small algebra of address patterns whose cache behaviour
// classes match the programs the paper uses: strided scans, uniform random,
// Zipf-skewed hot sets, dependent pointer chases, pure streams, and a
// stack-distance-driven generator for tunable temporal locality. A pattern
// produces LINE-granular addresses inside [base, base + region); the
// benchmark layer adds compute gaps and write ratios (benchmark_model.hpp),
// and AccessPattern::fill does both at once for a run of one phase.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cachesim/addr.hpp"
#include "util/rng.hpp"

namespace symbiosis::workload {

using cachesim::Addr;
using cachesim::MemRef;

enum class PatternKind {
  Sequential,    ///< byte-sequential scan, wraps at region end
  Strided,       ///< fixed stride scan, wraps (Fig 1's conjured patterns)
  Random,        ///< uniform random line within the region
  Zipf,          ///< Zipf-skewed line popularity (hot working set)
  PointerChase,  ///< dependent walk of a random Hamiltonian cycle (mcf-like)
  Stream,        ///< sequential with negligible reuse (libquantum/hmmer-like)
  StackDistance, ///< reuse distances drawn from a geometric distribution
};

[[nodiscard]] std::string to_string(PatternKind kind);
[[nodiscard]] PatternKind parse_pattern(const std::string& name);

/// Declarative description of one pattern (value type, cheap to copy).
struct PatternSpec {
  PatternKind kind = PatternKind::Random;
  std::uint64_t region_bytes = 64 * 1024;
  std::uint64_t stride_bytes = 64;   ///< Strided only
  double zipf_skew = 0.9;            ///< Zipf only
  double locality = 0.9;             ///< StackDistance: P(reuse) per access
  std::uint64_t line_bytes = 64;
};

/// The per-step draw order every generator shares: the compute gap (an
/// exponential draw around @p compute_gap, clamped at 8x so one draw cannot
/// stall a core for a whole quantum; no draw when @p compute_gap is 0), then
/// @p draw_addr's address draws, then the write draw. Writes @p n steps.
template <typename DrawAddr>
inline void draw_steps(util::Rng& rng, double compute_gap, double write_ratio, MemRef* out,
                       std::size_t n, DrawAddr&& draw_addr) {
  const bool has_gap = compute_gap > 0.0;
  const double rate = has_gap ? 1.0 / compute_gap : 0.0;
  const double cap = compute_gap * 8.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t gap = 0;
    if (has_gap) gap = static_cast<std::uint32_t>(std::min(rng.next_exponential(rate), cap));
    out[i].addr = draw_addr(rng, i);
    out[i].is_write = rng.next_bool(write_ratio);
    out[i].gap = gap;
  }
}

/// A live pattern instance bound to a base address and an RNG stream.
class AccessPattern {
 public:
  virtual ~AccessPattern() = default;
  /// Next byte address (line-aligned): one step's address draw alone.
  [[nodiscard]] virtual Addr next(util::Rng& rng) = 0;
  /// @p n whole steps in draw_steps' order with this pattern's address draw
  /// (the same draws as n next() calls between the gap and write draws).
  virtual void fill(util::Rng& rng, double compute_gap, double write_ratio, MemRef* out,
                    std::size_t n) = 0;
  /// Restart from the initial state.
  virtual void reset() = 0;
  [[nodiscard]] virtual const PatternSpec& spec() const = 0;
};

/// Instantiate a pattern at @p base (line-aligned). @p rng seeds any
/// internal randomized construction (e.g. the pointer-chase permutation).
[[nodiscard]] std::unique_ptr<AccessPattern> make_pattern(const PatternSpec& spec, Addr base,
                                                          util::Rng& rng);

}  // namespace symbiosis::workload

#include "workload/access_pattern.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "util/check.hpp"

namespace symbiosis::workload {

std::string to_string(PatternKind kind) {
  switch (kind) {
    case PatternKind::Sequential: return "sequential";
    case PatternKind::Strided: return "strided";
    case PatternKind::Random: return "random";
    case PatternKind::Zipf: return "zipf";
    case PatternKind::PointerChase: return "pointer-chase";
    case PatternKind::Stream: return "stream";
    case PatternKind::StackDistance: return "stack-distance";
  }
  return "?";
}

PatternKind parse_pattern(const std::string& name) {
  if (name == "sequential") return PatternKind::Sequential;
  if (name == "strided") return PatternKind::Strided;
  if (name == "random") return PatternKind::Random;
  if (name == "zipf") return PatternKind::Zipf;
  if (name == "pointer-chase") return PatternKind::PointerChase;
  if (name == "stream") return PatternKind::Stream;
  if (name == "stack-distance") return PatternKind::StackDistance;
  throw std::invalid_argument("unknown pattern: " + name);
}

namespace {

/// Common plumbing: region in lines, base address, spec storage.
class PatternBase : public AccessPattern {
 public:
  PatternBase(const PatternSpec& spec, Addr base) : spec_(spec), base_(base) {
    if (spec.region_bytes < spec.line_bytes) {
      throw std::invalid_argument("pattern region smaller than one line");
    }
    if (spec.line_bytes == 0 || (spec.line_bytes & (spec.line_bytes - 1)) != 0) {
      throw std::invalid_argument("pattern line size must be a power of two");
    }
    lines_ = spec.region_bytes / spec.line_bytes;
  }

  [[nodiscard]] const PatternSpec& spec() const override { return spec_; }

 protected:
  [[nodiscard]] Addr addr_of_line(std::uint64_t line_index) const noexcept {
    return base_ + line_index * spec_.line_bytes;
  }

  PatternSpec spec_;
  Addr base_;
  std::uint64_t lines_ = 0;
};

/// next() and fill() of a pattern whose one-step address draw is the inline
/// Derived::draw: fill() runs draw_steps with it, so a phase run is one
/// virtual call and one inlined loop.
template <typename Derived>
class DrawnPattern : public PatternBase {
 public:
  using PatternBase::PatternBase;

  Addr next(util::Rng& rng) final { return self().draw(rng); }
  void fill(util::Rng& rng, double compute_gap, double write_ratio, MemRef* out,
            std::size_t n) override {
    draw_steps(rng, compute_gap, write_ratio, out, n,
               [this](util::Rng& r, std::size_t) { return self().draw(r); });
  }

 private:
  Derived& self() noexcept { return static_cast<Derived&>(*this); }
};

/// Sequential scan of the region, one line per step, wrapping at its end.
/// Both PatternKind::Sequential and PatternKind::Stream build it: a stream
/// is the same scan over a region so large relative to the cache that lines
/// are evicted before reuse (a pure bandwidth stream); only the spec's
/// kind, and so its name, tells them apart.
class SequentialPattern final : public DrawnPattern<SequentialPattern> {
 public:
  using DrawnPattern::DrawnPattern;
  Addr draw(util::Rng&) {
    const Addr a = addr_of_line(pos_);
    pos_ = (pos_ + 1) % lines_;
    return a;
  }
  void reset() override { pos_ = 0; }

 private:
  std::uint64_t pos_ = 0;
};

class StridedPattern final : public DrawnPattern<StridedPattern> {
 public:
  StridedPattern(const PatternSpec& spec, Addr base) : DrawnPattern(spec, base) {
    stride_lines_ = std::max<std::uint64_t>(1, spec.stride_bytes / spec.line_bytes);
  }
  Addr draw(util::Rng&) {
    const Addr a = addr_of_line(pos_);
    pos_ += stride_lines_;
    if (pos_ >= lines_) pos_ %= lines_;  // wrap, revisiting the same line set
    return a;
  }
  void reset() override { pos_ = 0; }

 private:
  std::uint64_t stride_lines_ = 1;
  std::uint64_t pos_ = 0;
};

class RandomPattern final : public DrawnPattern<RandomPattern> {
 public:
  using DrawnPattern::DrawnPattern;
  Addr draw(util::Rng& rng) { return addr_of_line(rng.next_below(lines_)); }
  void reset() override {}
};

class ZipfPattern final : public DrawnPattern<ZipfPattern> {
 public:
  ZipfPattern(const PatternSpec& spec, Addr base, util::Rng& rng)
      : DrawnPattern(spec, base), sampler_(lines_, spec.zipf_skew) {
    // Scatter popularity ranks over the region so the hot lines are not
    // physically contiguous (they would otherwise map to few cache sets).
    perm_.resize(lines_);
    std::iota(perm_.begin(), perm_.end(), std::uint64_t{0});
    rng.shuffle(perm_);
  }
  Addr draw(util::Rng& rng) { return addr_of_line(perm_[sampler_.sample(rng)]); }

  /// Blocks of up to kBlock steps: the draw pass keeps each step's uniform
  /// draw, then one lockstep search resolves the whole block, so the
  /// searches' dependent loads overlap instead of serializing.
  void fill(util::Rng& rng, double compute_gap, double write_ratio, MemRef* out,
            std::size_t n) override {
    double u[kBlock];
    std::size_t rank[kBlock];
    for (std::size_t at = 0; at < n; at += kBlock) {
      const std::size_t m = std::min(kBlock, n - at);
      MemRef* const block = out + at;
      draw_steps(rng, compute_gap, write_ratio, block, m, [&u](util::Rng& r, std::size_t i) {
        u[i] = r.next_double();
        return Addr{0};
      });
      sampler_.index_of_batch(u, rank, m);
      for (std::size_t i = 0; i < m; ++i) block[i].addr = addr_of_line(perm_[rank[i]]);
    }
  }
  void reset() override {}

 private:
  static constexpr std::size_t kBlock = 64;

  util::ZipfSampler sampler_;
  std::vector<std::uint64_t> perm_;
};

/// Dependent walk of one random Hamiltonian cycle over the region's lines.
/// Every line is visited once per lap (full footprint) but in an order that
/// defeats spatial prefetch-like locality — the mcf access class.
class PointerChasePattern final : public DrawnPattern<PointerChasePattern> {
 public:
  PointerChasePattern(const PatternSpec& spec, Addr base, util::Rng& rng)
      : DrawnPattern(spec, base) {
    // Sattolo's algorithm: a uniform random single-cycle permutation.
    next_.resize(lines_);
    std::vector<std::uint64_t> order(lines_);
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    rng.shuffle(order);
    for (std::uint64_t i = 0; i + 1 < lines_; ++i) next_[order[i]] = order[i + 1];
    if (lines_ > 0) next_[order[lines_ - 1]] = order[0];
    pos_ = order.empty() ? 0 : order[0];
    start_ = pos_;
  }
  Addr draw(util::Rng&) {
    const Addr a = addr_of_line(pos_);
    pos_ = next_[pos_];
    return a;
  }
  void reset() override { pos_ = start_; }

 private:
  std::vector<std::uint64_t> next_;
  std::uint64_t pos_ = 0;
  std::uint64_t start_ = 0;
};

/// Temporal-locality generator: with probability `locality` reuse a recent
/// line (LRU-stack depth drawn geometrically), otherwise touch the next new
/// line. Gives a smooth knob between cache-friendly and cache-hostile.
///
/// The move-to-top LRU stack (bounded at kMaxDepth entries) lives in
/// buf_[bottom_, top_) with the hot end at top_ - 1: a reuse moves the entry
/// at the depth it drew straight to the top, an overflow advances bottom_,
/// and the live entries slide back to buf_[0] only when top_ hits the end
/// of the buffer. A new line asks the membership bitmap instead of scanning
/// the stack. The stack's contents, and so the draw sequence, are those of
/// a plain vector with find/erase (tests/reference/reference_stack_distance.hpp).
class StackDistancePattern final : public DrawnPattern<StackDistancePattern> {
 public:
  StackDistancePattern(const PatternSpec& spec, Addr base)
      : DrawnPattern(spec, base),
        capacity_(static_cast<std::size_t>(std::min<std::uint64_t>(lines_, 4096))),
        buf_(std::make_unique_for_overwrite<std::uint64_t[]>(capacity_)),
        member_((lines_ + 63) / 64, 0) {}

  Addr draw(util::Rng& rng) {
    const std::size_t size = top_ - bottom_;
    if (size != 0 && rng.next_bool(spec_.locality)) {
      // Geometric depth: depth k with P ~ (1-p)^k; mean controlled by the
      // stack fraction we want hot. Use p = 8/stack size for a hot head.
      const double p = std::min(1.0, 8.0 / static_cast<double>(size));
      auto depth = static_cast<std::size_t>(rng.next_exponential(p));
      depth = std::min(depth, size - 1);
      const std::uint64_t line = buf_[top_ - 1 - depth];
      move_to_top(top_ - 1 - depth);
      return addr_of_line(line);
    }
    const std::uint64_t line = frontier_;
    frontier_ = (frontier_ + 1) % lines_;
    if (is_member(line)) {
      // Still on the stack (small regions, or a hot line the frontier came
      // back to): find it from the hot end, as the vector scan would.
      std::size_t pos = top_ - 1;
      while (buf_[pos] != line) {
        SYM_DCHECK(pos > bottom_, "workload.pattern") << "member line missing from the stack";
        --pos;
      }
      move_to_top(pos);
    } else {
      push(line);
    }
    return addr_of_line(line);
  }

  void reset() override {
    for (std::size_t i = bottom_; i < top_; ++i) set_member(buf_[i], false);
    bottom_ = top_ = 0;
    frontier_ = 0;
  }

 private:
  static constexpr std::size_t kMaxDepth = 512;

  [[nodiscard]] bool is_member(std::uint64_t line) const noexcept {
    return (member_[line >> 6] >> (line & 63)) & 1u;
  }
  void set_member(std::uint64_t line, bool on) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (line & 63);
    member_[line >> 6] = on ? member_[line >> 6] | bit : member_[line >> 6] & ~bit;
  }

  /// Move buf_[pos] to the top, shifting the entries above it down one.
  void move_to_top(std::size_t pos) noexcept {
    std::uint64_t* const stack = buf_.get();
    const std::uint64_t line = stack[pos];
    std::copy(stack + pos + 1, stack + top_, stack + pos);
    stack[top_ - 1] = line;
  }

  /// Push a line that is not on the stack, dropping the bottom entry past
  /// kMaxDepth.
  void push(std::uint64_t line) noexcept {
    if (top_ == capacity_) {
      std::copy(buf_.get() + bottom_, buf_.get() + top_, buf_.get());
      top_ -= bottom_;
      bottom_ = 0;
    }
    buf_[top_++] = line;
    set_member(line, true);
    if (top_ - bottom_ > kMaxDepth) set_member(buf_[bottom_++], false);
  }

  std::size_t capacity_;
  std::unique_ptr<std::uint64_t[]> buf_;
  std::vector<std::uint64_t> member_;  ///< one bit per region line
  std::size_t bottom_ = 0;
  std::size_t top_ = 0;
  std::uint64_t frontier_ = 0;
};

}  // namespace

std::unique_ptr<AccessPattern> make_pattern(const PatternSpec& spec, Addr base, util::Rng& rng) {
  SYM_CHECK_EQ(base % spec.line_bytes, Addr{0}, "workload.pattern")
      << "pattern base must be line-aligned";
  switch (spec.kind) {
    case PatternKind::Sequential:
    case PatternKind::Stream: return std::make_unique<SequentialPattern>(spec, base);
    case PatternKind::Strided: return std::make_unique<StridedPattern>(spec, base);
    case PatternKind::Random: return std::make_unique<RandomPattern>(spec, base);
    case PatternKind::Zipf: return std::make_unique<ZipfPattern>(spec, base, rng);
    case PatternKind::PointerChase: return std::make_unique<PointerChasePattern>(spec, base, rng);
    case PatternKind::StackDistance: return std::make_unique<StackDistancePattern>(spec, base);
  }
  throw std::invalid_argument("make_pattern: bad kind");
}

}  // namespace symbiosis::workload

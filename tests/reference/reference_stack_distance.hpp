// reference_stack_distance.hpp — the plain vector LRU stack that
// workload::StackDistancePattern must reproduce draw for draw.
//
// A new line scans the whole stack with std::find and, past 512 entries,
// erases the vector's front; a reuse finds its line again from the hot end
// and erases it before pushing it back on top. The differential suite runs
// this against make_pattern(StackDistance) on the same RNG stream and
// requires identical addresses at every step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "util/rng.hpp"
#include "workload/access_pattern.hpp"

namespace symbiosis::testing_support {

class ReferenceStackDistance {
 public:
  ReferenceStackDistance(const workload::PatternSpec& spec, workload::Addr base)
      : spec_(spec), base_(base), lines_(spec.region_bytes / spec.line_bytes) {
    stack_.reserve(std::min<std::uint64_t>(lines_, 4096));
  }

  workload::Addr next(util::Rng& rng) {
    if (!stack_.empty() && rng.next_bool(spec_.locality)) {
      const double p = std::min(1.0, 8.0 / static_cast<double>(stack_.size()));
      auto depth = static_cast<std::size_t>(rng.next_exponential(p));
      depth = std::min(depth, stack_.size() - 1);
      const std::uint64_t line = stack_[stack_.size() - 1 - depth];
      touch(line);
      return base_ + line * spec_.line_bytes;
    }
    const std::uint64_t line = frontier_;
    frontier_ = (frontier_ + 1) % lines_;
    touch(line);
    return base_ + line * spec_.line_bytes;
  }

  void reset() {
    stack_.clear();
    frontier_ = 0;
  }

 private:
  void touch(std::uint64_t line) {
    const auto rit = std::find(stack_.rbegin(), stack_.rend(), line);
    if (rit != stack_.rend()) stack_.erase(std::next(rit).base());
    stack_.push_back(line);
    if (stack_.size() > 512) stack_.erase(stack_.begin());
  }

  workload::PatternSpec spec_;
  workload::Addr base_;
  std::uint64_t lines_;
  std::vector<std::uint64_t> stack_;
  std::uint64_t frontier_ = 0;
};

}  // namespace symbiosis::testing_support

// Differential suite for the stack-distance generator: make_pattern's
// StackDistance (moving-bottom buffer, membership bitmap) against the plain
// vector stack in tests/reference/reference_stack_distance.hpp, on one RNG
// stream each seeded alike, over 1M steps per region size. Regions below,
// at and above the 512-entry stack bound take different paths (a frontier
// line still on the stack, no bottom drop, bottom drops and buffer slides),
// and reset() is called mid-run.
#include <gtest/gtest.h>

#include <cstdint>

#include "reference/reference_stack_distance.hpp"
#include "workload/access_pattern.hpp"

namespace symbiosis::workload {
namespace {

void expect_same_draws(std::uint64_t lines, double locality, std::uint64_t seed) {
  PatternSpec spec;
  spec.kind = PatternKind::StackDistance;
  spec.line_bytes = 64;
  spec.region_bytes = lines * spec.line_bytes;
  spec.locality = locality;
  const Addr base = Addr{3} << 40;

  util::Rng build_rng(seed);
  auto pattern = make_pattern(spec, base, build_rng);
  testing_support::ReferenceStackDistance reference(spec, base);
  util::Rng fast_rng(seed + 1), ref_rng(seed + 1);

  constexpr int kSteps = 1'000'000;
  for (int i = 0; i < kSteps; ++i) {
    if (i == 400'000 || i == 400'001 || i == 750'000) {
      pattern->reset();
      reference.reset();
    }
    const Addr got = pattern->next(fast_rng);
    const Addr want = reference.next(ref_rng);
    ASSERT_EQ(got, want) << "step " << i << ", " << lines << " lines, locality " << locality;
  }
  EXPECT_EQ(fast_rng(), ref_rng()) << "both consumed the same number of draws";
}

TEST(DifferentialStackDistance, RegionSmallerThanTheStack) {
  expect_same_draws(300, 0.85, 11);
}

TEST(DifferentialStackDistance, RegionExactlyTheStackBound) {
  expect_same_draws(512, 0.85, 12);
}

TEST(DifferentialStackDistance, RegionLargerThanTheStack) {
  // sjeng's region at the default scale (0.3 x 256 KB = 1200 lines), and a
  // low locality so the frontier laps the region with hot lines still on
  // the stack.
  expect_same_draws(1200, 0.85, 13);
  expect_same_draws(1200, 0.3, 14);
}

TEST(DifferentialStackDistance, RegionLargerThanTheBuffer) {
  // 5000 lines: the buffer holds 4096 entries, so the live stack slides
  // back to the start every 3584 new lines.
  expect_same_draws(5000, 0.5, 15);
}

}  // namespace
}  // namespace symbiosis::workload

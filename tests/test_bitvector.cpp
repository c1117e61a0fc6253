#include "sig/bitvector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace symbiosis::sig {
namespace {

TEST(BitVector, SetClearTest) {
  BitVector v(130);  // crosses word boundaries
  EXPECT_EQ(v.size(), 130u);
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
    EXPECT_FALSE(v.test(i));
    v.set(i);
    EXPECT_TRUE(v.test(i));
  }
  EXPECT_EQ(v.popcount(), 6u);
  v.clear(64);
  EXPECT_FALSE(v.test(64));
  EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVector, ResetZeroes) {
  BitVector v(100);
  for (std::size_t i = 0; i < 100; i += 3) v.set(i);
  v.reset();
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, RbvIdentity) {
  // RBV = CF ∧ ¬LF must equal ¬(CF → LF) (the paper's implication form).
  BitVector cf(8), lf(8), rbv(8);
  // CF = {0,1,2,5}; LF = {1,5,6}.
  for (const std::size_t i : {0u, 1u, 2u, 5u}) cf.set(i);
  for (const std::size_t i : {1u, 5u, 6u}) lf.set(i);
  rbv.assign_and_not(cf, lf);
  EXPECT_TRUE(rbv.test(0));
  EXPECT_FALSE(rbv.test(1));
  EXPECT_TRUE(rbv.test(2));
  EXPECT_FALSE(rbv.test(5));
  EXPECT_FALSE(rbv.test(6));
  EXPECT_EQ(rbv.popcount(), 2u);
}

TEST(BitVector, XorPopcountMatchesMaterialized) {
  util::Rng rng(3);
  BitVector a(257), b(257);
  for (int i = 0; i < 120; ++i) {
    a.set(rng.next_below(257));
    b.set(rng.next_below(257));
  }
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differing += a.test(i) != b.test(i);
  EXPECT_EQ(a.xor_popcount(b), differing);
  EXPECT_EQ(a.xor_popcount(b), b.xor_popcount(a));  // symmetry
  EXPECT_EQ(a.xor_popcount(a), 0u);
}

TEST(BitVector, AssignSnapshots) {
  BitVector cf(32), lf(32);
  cf.set(7);
  lf.assign(cf);
  EXPECT_TRUE(lf.test(7));
  cf.set(8);  // later CF changes must not leak into the snapshot
  EXPECT_FALSE(lf.test(8));
}

TEST(BitVector, FillRatio) {
  BitVector v(100);
  EXPECT_DOUBLE_EQ(v.fill_ratio(), 0.0);
  for (std::size_t i = 0; i < 25; ++i) v.set(i);
  EXPECT_DOUBLE_EQ(v.fill_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(BitVector{}.fill_ratio(), 0.0);
}

/// Property check against a std::vector<bool> reference model.
TEST(BitVector, RandomOpsMatchReference) {
  util::Rng rng(11);
  const std::size_t n = 300;
  BitVector v(n);
  std::vector<bool> ref(n, false);
  for (int step = 0; step < 5000; ++step) {
    const std::size_t i = rng.next_below(n);
    if (rng.next_bool(0.5)) {
      v.set(i);
      ref[i] = true;
    } else {
      v.clear(i);
      ref[i] = false;
    }
  }
  std::size_t ref_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(v.test(i), ref[i]) << i;
    ref_count += ref[i];
  }
  EXPECT_EQ(v.popcount(), ref_count);
}

TEST(BitVector, Equality) {
  BitVector a(64), b(64);
  EXPECT_EQ(a, b);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

// --- awkward-width property tests -----------------------------------------
// The word loops count whole words, so the final partial word must hold no
// stray bits; every width class around the 64-bit boundary gets a randomized
// workout against a std::vector<bool> model. Width 0 is ops-free (set/clear
// on an empty vector are out of bounds by contract) but must still compare
// and count cleanly.

TEST(BitVector, ZeroWidthIsWellBehaved) {
  BitVector a(0), b(0);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.popcount(), 0u);
  EXPECT_EQ(a.xor_popcount(b), 0u);
  EXPECT_EQ(a, b);
  a.reset();
  EXPECT_EQ(a.popcount(), 0u);
  BitVector rbv(0);
  rbv.assign_and_not(a, b);
  EXPECT_EQ(rbv.popcount(), 0u);
}

TEST(BitVector, AwkwardWidthsMatchBoolVectorModel) {
  util::Rng rng(17);
  for (const std::size_t n : {1ul, 63ul, 64ul, 65ul, 4095ul}) {
    BitVector v(n), w(n);
    std::vector<bool> ref_v(n, false), ref_w(n, false);
    const int steps = 2000;
    for (int step = 0; step < steps; ++step) {
      const std::size_t i = rng.next_below(n);
      const bool set = rng.next_bool(0.6);
      if (rng.next_bool(0.5)) {
        set ? v.set(i) : v.clear(i);
        ref_v[i] = set;
      } else {
        set ? w.set(i) : w.clear(i);
        ref_w[i] = set;
      }
      if (step % 250 != 0) continue;
      std::size_t pc = 0, xp = 0, an = 0;
      for (std::size_t j = 0; j < n; ++j) {
        pc += ref_v[j];
        xp += ref_v[j] != ref_w[j];
        an += ref_v[j] && !ref_w[j];
      }
      ASSERT_EQ(v.popcount(), pc) << "width " << n;
      ASSERT_EQ(v.xor_popcount(w), xp) << "width " << n;
      BitVector rbv(n);
      rbv.assign_and_not(v, w);
      ASSERT_EQ(rbv.popcount(), an) << "width " << n;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(v.test(j), static_cast<bool>(ref_v[j])) << "width " << n << " bit " << j;
      }
    }
    // The last partial word must hold no stray bits beyond size(): saturate
    // the vector, then count.
    for (std::size_t j = 0; j < n; ++j) v.set(j);
    EXPECT_EQ(v.popcount(), n);
    EXPECT_DOUBLE_EQ(v.fill_ratio(), 1.0);
    BitVector full(n);
    full.assign(v);
    EXPECT_EQ(full, v);
  }
}

}  // namespace
}  // namespace symbiosis::sig

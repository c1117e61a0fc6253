#include "sig/signature.hpp"

#include <gtest/gtest.h>

namespace symbiosis::sig {
namespace {

SignatureSample sample(std::size_t core, std::size_t occupancy,
                       std::vector<std::size_t> symbiosis) {
  SignatureSample s;
  s.core = core;
  s.occupancy_weight = occupancy;
  s.symbiosis = std::move(symbiosis);
  return s;
}

TEST(ProcessSignature, LatestValuesTrackLastSample) {
  ProcessSignature sig(2);
  sig.record(sample(0, 100, {10, 50}));
  sig.record(sample(1, 200, {60, 20}));
  EXPECT_EQ(sig.last_core(), 1u);
  EXPECT_EQ(sig.latest_occupancy(), 200u);
}

TEST(ProcessSignature, WindowMeans) {
  ProcessSignature sig(2);
  sig.record(sample(0, 100, {10, 40}));
  sig.record(sample(0, 300, {30, 80}));
  EXPECT_EQ(sig.samples(), 2u);
  EXPECT_DOUBLE_EQ(sig.mean_occupancy(), 200.0);
  EXPECT_DOUBLE_EQ(sig.mean_symbiosis(0), 20.0);
  EXPECT_DOUBLE_EQ(sig.mean_symbiosis(1), 60.0);
}

TEST(ProcessSignature, ClearWindowKeepsLatest) {
  ProcessSignature sig(2);
  sig.record(sample(1, 77, {12, 34}));
  sig.clear_window();
  EXPECT_EQ(sig.samples(), 0u);
  EXPECT_DOUBLE_EQ(sig.mean_occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(sig.mean_symbiosis(0), 0.0);
  EXPECT_EQ(sig.latest_occupancy(), 77u);  // the (2+N) structure survives
  EXPECT_EQ(sig.last_core(), 1u);
}

TEST(ProcessSignature, ResizeResetsState) {
  ProcessSignature sig(2);
  sig.record(sample(0, 9, {1, 2}));
  sig.resize(4);
  EXPECT_EQ(sig.num_cores(), 4u);
  EXPECT_EQ(sig.samples(), 0u);
  EXPECT_EQ(sig.latest_occupancy(), 0u);
}

}  // namespace
}  // namespace symbiosis::sig

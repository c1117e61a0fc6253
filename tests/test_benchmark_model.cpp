#include "workload/benchmark_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "workload/parsec_model.hpp"

namespace symbiosis::workload {
namespace {

TEST(Spec2006Pool, HasTwelveDistinctPrograms) {
  const auto& pool = spec2006_pool();
  EXPECT_EQ(pool.size(), 12u);
  const std::set<std::string> unique(pool.begin(), pool.end());
  EXPECT_EQ(unique.size(), 12u);
  // The programs the paper names explicitly must be present.
  for (const char* name : {"mcf", "libquantum", "omnetpp", "povray", "gobmk", "hmmer",
                           "perlbench"}) {
    EXPECT_TRUE(unique.count(name)) << name;
  }
}

class SpecModelTest : public testing::TestWithParam<std::string> {};

TEST_P(SpecModelTest, SpecIsWellFormed) {
  const BenchmarkSpec spec = make_spec_benchmark(GetParam());
  EXPECT_EQ(spec.name, GetParam());
  ASSERT_FALSE(spec.phases.empty());
  EXPECT_GT(spec.total_refs, 0u);
  for (const auto& phase : spec.phases) {
    EXPECT_GE(phase.pattern.region_bytes, phase.pattern.line_bytes);
    EXPECT_GE(phase.compute_gap, 0.0);
    EXPECT_GE(phase.write_ratio, 0.0);
    EXPECT_LE(phase.write_ratio, 1.0);
    EXPECT_GT(phase.refs, 0u);
  }
  EXPECT_EQ(spec.footprint_bytes() % 64, 0u);
}

TEST_P(SpecModelTest, WorkloadStaysInAddressSpace) {
  const Addr base = Addr{3} << 40;
  auto w = make_spec_workload(GetParam(), base, util::Rng{1});
  for (int i = 0; i < 5000; ++i) {
    const Step step = w->next();
    ASSERT_GE(step.addr, base);
    ASSERT_LT(step.addr, base + (Addr{1} << 40));
  }
}

TEST_P(SpecModelTest, CompletesAndRestarts) {
  ScaleConfig scale;
  scale.length_scale = 0.001;  // shrink to a few hundred refs
  auto w = make_spec_workload(GetParam(), 0, util::Rng{2}, scale);
  std::uint64_t steps = 0;
  while (!w->complete()) {
    (void)w->next();
    ASSERT_LT(++steps, 100'000u) << "did not complete";
  }
  EXPECT_EQ(w->refs_issued(), w->total_refs());
  w->restart();
  EXPECT_EQ(w->refs_issued(), 0u);
  EXPECT_FALSE(w->complete());
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SpecModelTest, testing::ValuesIn(spec2006_pool()),
                         [](const auto& param_info) { return param_info.param; });

TEST(SpecModels, FootprintClassesMatchThePaper) {
  // The relative footprint ordering drives every scheduling result:
  // povray tiny, gobmk small, mcf/omnetpp/libquantum/hmmer large.
  const auto footprint = [](const std::string& name) {
    return make_spec_benchmark(name).footprint_bytes();
  };
  EXPECT_LT(footprint("povray"), footprint("gobmk"));
  EXPECT_LT(footprint("gobmk"), footprint("omnetpp"));
  EXPECT_LT(footprint("omnetpp"), footprint("mcf"));
  EXPECT_LT(footprint("mcf"), footprint("libquantum"));
  EXPECT_LT(footprint("libquantum"), footprint("hmmer"));
}

TEST(SpecModels, ScaleConfigScalesRegions) {
  ScaleConfig small;
  small.l2_bytes = 256 * 1024;
  ScaleConfig big;
  big.l2_bytes = 1024 * 1024;
  EXPECT_EQ(make_spec_benchmark("mcf", big).footprint_bytes(),
            4 * make_spec_benchmark("mcf", small).footprint_bytes());
}

TEST(SpecModels, LengthScaleScalesRefs) {
  ScaleConfig half;
  half.length_scale = 0.5;
  const auto full_refs = make_spec_benchmark("gobmk").total_refs;
  EXPECT_EQ(make_spec_benchmark("gobmk", half).total_refs, full_refs / 2);
}

TEST(SpecModels, UnknownNameThrows) {
  EXPECT_THROW(make_spec_benchmark("quake3"), std::invalid_argument);
}

TEST(ScaleConfig, BadLengthScaleThrowsNamingIt) {
  // Not finite and positive, or scaling a count past 2^64: the cast to
  // uint64_t would be undefined (and wrap to ~2^64 references in practice).
  for (const double bad : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e30}) {
    ScaleConfig scale;
    scale.length_scale = bad;
    for (const bool parsec : {false, true}) {
      try {
        if (parsec) {
          (void)make_parsec_benchmark("ferret", scale);
        } else {
          (void)make_spec_benchmark("mcf", scale);
        }
        ADD_FAILURE() << "length_scale " << bad << " accepted (parsec=" << parsec << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("length_scale"), std::string::npos) << e.what();
      }
    }
  }
}

TEST(Workload, PhasesCycle) {
  BenchmarkSpec spec;
  spec.name = "two-phase";
  PhaseSpec a;
  a.pattern.kind = PatternKind::Sequential;
  a.pattern.region_bytes = 64 * 4;
  a.refs = 10;
  PhaseSpec b = a;
  b.pattern.region_bytes = 64 * 8;
  spec.phases = {a, b};
  spec.total_refs = 100;
  Workload w(spec, 0, util::Rng{3});
  EXPECT_EQ(w.current_phase(), 0u);
  for (int i = 0; i < 10; ++i) (void)w.next();
  EXPECT_EQ(w.current_phase(), 1u);
  for (int i = 0; i < 10; ++i) (void)w.next();
  EXPECT_EQ(w.current_phase(), 0u);  // cycles back
}

TEST(Workload, ComputeGapNearMean) {
  BenchmarkSpec spec;
  spec.name = "gap";
  PhaseSpec phase;
  phase.pattern.kind = PatternKind::Random;
  phase.pattern.region_bytes = 64 * 64;
  phase.compute_gap = 20.0;
  phase.refs = 1u << 20;
  spec.phases = {phase};
  spec.total_refs = 1u << 20;
  Workload w(spec, 0, util::Rng{4});
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += w.next().compute_instr;
  EXPECT_NEAR(total / n, 20.0, 1.5);
}

TEST(Workload, WriteRatioHonored) {
  BenchmarkSpec spec;
  spec.name = "writes";
  PhaseSpec phase;
  phase.pattern.kind = PatternKind::Random;
  phase.pattern.region_bytes = 64 * 64;
  phase.write_ratio = 0.25;
  phase.refs = 1u << 20;
  spec.phases = {phase};
  spec.total_refs = 1u << 20;
  Workload w(spec, 0, util::Rng{5});
  int writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) writes += w.next().is_write;
  EXPECT_NEAR(writes / static_cast<double>(n), 0.25, 0.02);
}

TEST(Workload, EmptyPhasesRejected) {
  BenchmarkSpec spec;
  spec.name = "empty";
  EXPECT_THROW(Workload(spec, 0, util::Rng{6}), std::invalid_argument);
}

}  // namespace
}  // namespace symbiosis::workload

// Numeric pins for the phase tasks of every kind of traffic: native SPEC
// processes, the same processes in VMs (§5.1.2) and PARSEC threads
// (§3.3.4). The golden report covers native SPEC only, and the determinism
// suite compares runs that would drift together, so a seeding, pid or
// admission-order slip in the VM or PARSEC mix build would pass both; here
// it moves a constant.
//
// The constants were recorded by running these tasks on the implementation
// that still built each kind of mix in its own per-kind phase entry point,
// before one mix builder and one call per phase replaced them; they hold
// unchanged on both. A change that alters them changes the simulation and
// must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace symbiosis::core {
namespace {

PipelineConfig tiny_pipeline() {
  PipelineConfig c;
  c.machine.hierarchy.num_cores = 2;
  c.machine.hierarchy.l1 = {1024, 2, 64};
  c.machine.hierarchy.l2 = {32 * 1024, 4, 64};
  c.machine.quantum_cycles = 100'000;
  c.sync_scale();
  c.scale.length_scale = 0.03;
  c.allocator_period_cycles = 500'000;
  c.emulation_cycles = 3'000'000;
  c.measure_max_cycles = 400'000'000;
  return c;
}

PipelineConfig tiny_parsec_pipeline() {
  PipelineConfig c = tiny_pipeline();
  c.scale.length_scale = 0.02;
  c.emulation_cycles = 2'000'000;
  return c;
}

const std::vector<std::string> kSpecMix = {"mcf", "libquantum", "povray", "gobmk"};
const std::vector<std::string> kParsecMix = {"blackscholes", "swaptions"};

MappingRun measure(const MeasureTask& task) {
  const PhaseResults results = run_phase_tasks({}, {task});
  EXPECT_EQ(results.runs.size(), 1u);
  return results.runs.front();
}

PhaseVote vote(const VoteTask& task) {
  const PhaseResults results = run_phase_tasks({task}, {});
  EXPECT_EQ(results.votes.size(), 1u);
  return results.votes.front();
}

TEST(PhasePins, NativeMeasurement) {
  const MappingRun run = measure({tiny_pipeline(), kSpecMix, {{0, 0, 1, 1}, 2}});
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.names, kSpecMix);
  EXPECT_EQ(run.user_cycles, (std::vector<std::uint64_t>{1630971, 822656, 1070495, 1308444}));
  EXPECT_EQ(run.wall_cycles, 3242562u);
}

TEST(PhasePins, VmMeasurement) {
  PipelineConfig config = tiny_pipeline();
  config.virtualized = true;
  config.vm.dom0_region_bytes = 4 * 1024;
  const MappingRun run = measure({config, kSpecMix, {{0, 0, 1, 1}, 2}});
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.names, kSpecMix);
  EXPECT_EQ(run.user_cycles, (std::vector<std::uint64_t>{1865637, 833912, 1064449, 1320884}));
  EXPECT_EQ(run.wall_cycles, 6668513u);
}

TEST(PhasePins, ParsecMeasurement) {
  const MappingRun run =
      measure({tiny_parsec_pipeline(), kParsecMix, {{0, 1, 0, 1, 1, 0, 1, 0}, 2}, true});
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.names, kParsecMix);
  EXPECT_EQ(run.user_cycles, (std::vector<std::uint64_t>{753300, 680174}));
  EXPECT_EQ(run.wall_cycles, 859342u);
}

TEST(PhasePins, SpecVote) {
  const PhaseVote result = vote({tiny_pipeline(), kSpecMix});
  EXPECT_EQ(result.chosen.key(), "0,0,1,1");
  EXPECT_EQ(result.votes,
            (std::map<std::string, int>{{"0,0,1,1", 4}, {"0,1,0,1", 1}, {"0,1,1,0", 1}}));
}

TEST(PhasePins, ParsecVote) {
  const PhaseVote result = vote({tiny_parsec_pipeline(), {"blackscholes", "ferret"}, true});
  EXPECT_EQ(result.chosen.key(), "0,1,0,1,1,1,0,0");
  EXPECT_EQ(result.votes,
            (std::map<std::string, int>{{"0,0,1,1,0,0,1,1", 1}, {"0,1,0,1,1,1,0,0", 2}}));
}

}  // namespace
}  // namespace symbiosis::core

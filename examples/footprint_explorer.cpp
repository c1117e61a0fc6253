// footprint_explorer — inspect a workload's cache signature up close.
//
// Runs one benchmark model (optionally next to a co-runner on the other
// core), periodically printing the signature hardware's view: Core Filter
// occupancy, RBV weight at each context switch, symbiosis with the other
// core, and the ground-truth L2 footprint — the numbers every scheduling
// decision in the library is built from.
//
//   ./footprint_explorer --benchmark mcf --corunner libquantum
//   ./footprint_explorer --benchmark omnetpp --hash modulo --sample-shift 2
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "machine/machine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/benchmark_model.hpp"

namespace {

int run_cli(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("footprint_explorer", "inspect Bloom-filter cache signatures");
  auto& benchmark = args.add_string("benchmark", "pool program to observe", "mcf");
  auto& corunner = args.add_string("corunner", "program on the other core ('' = none)",
                                   "libquantum");
  auto& hash = args.add_string("hash", "xor|xor-inv-rev|modulo|presence", "xor");
  auto& sample_shift = args.add_u64("sample-shift", "set-sampling shift (2 = 25%)", 0);
  auto& windows = args.add_u64("windows", "observation windows to print", 12);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return 1;

  machine::MachineConfig cfg = machine::core2duo_config();
  cfg.hierarchy.signature.hash = sig::parse_hash_kind(hash);
  if (sample_shift > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument("sample_shift " + std::to_string(sample_shift) +
                                " does not fit in unsigned");
  }
  cfg.hierarchy.signature.sample_shift = static_cast<unsigned>(sample_shift);
  machine::Machine m(cfg);

  workload::ScaleConfig scale;
  scale.l2_bytes = cfg.hierarchy.l2.size_bytes;
  util::Rng rng(seed);

  const auto id = m.add_task(workload::make_spec_workload(
                                 benchmark, machine::address_space_base(0), rng.split(1), scale),
                             0);
  if (!corunner.empty()) {
    const auto other = m.add_task(workload::make_spec_workload(
                                      corunner, machine::address_space_base(1), rng.split(2),
                                      scale),
                                  1);
    m.task(other).background = true;
  }

  std::printf("observing %s (core 0)%s%s — filter: %s hash, %zu entries\n\n",
              benchmark.c_str(), corunner.empty() ? "" : " vs ",
              corunner.c_str(), hash.c_str(),
              m.hierarchy().filter()->entries());

  util::TextTable table({"window", "L2 footprint (lines)", "CF weight", "CF fill", "mean RBV",
                         "symbiosis(core1)", "switches"});
  std::uint64_t printed = 0;
  m.set_periodic_hook(10'000'000, [&](machine::Machine& mm) {
    if (printed >= windows) return;
    const auto& sig = mm.task(id).signature();
    const auto* filter = mm.hierarchy().filter();
    table.add_row({std::to_string(printed), std::to_string(mm.hierarchy().l2_footprint(0)),
                   std::to_string(filter->core_filter_weight(0)),
                   util::TextTable::pct(filter->core_filter_fill(0)),
                   util::TextTable::fmt(sig.mean_occupancy(), 1),
                   util::TextTable::fmt(sig.mean_symbiosis(1), 1),
                   std::to_string(sig.samples())});
    mm.task(id).signature().clear_window();
    ++printed;
  });
  m.run_for(10'000'000 * (windows + 1));
  table.print();

  std::printf(
      "\nreading guide: 'CF weight' is the per-core Core Filter popcount (Fig 5's\n"
      "occupancy weight); 'mean RBV' is the per-quantum footprint signature the\n"
      "allocators consume; low symbiosis = heavy interference with core 1 (§3.1).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "footprint_explorer: %s\n", e.what());
    return 1;
  }
}

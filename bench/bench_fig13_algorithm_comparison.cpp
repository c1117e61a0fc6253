// Figure 13 — the three resource-allocation algorithms compared, plus
// baselines, on representative mixes.
//
// §5.2: the weight-sorting algorithm, despite its simplicity, sometimes
// gives the best results (footprint alone is a strong predictor); the
// weighted interference graph is as good or better overall; the plain
// interference graph can trail both. We add the OS-default and the
// related-work miss-rate heuristic as anchors, and an ablation of the
// allocator invocation period (the paper's 100 ms).
//
// Implementation note: all mappings of a mix are measured ONCE; each
// algorithm then only pays for its phase-1 emulation and is charged the
// measured runtime of whatever mapping it voted for. Votes and measurements
// are one task list on the core engine, spread over a pool sized to the
// host.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/threadpool.hpp"

using namespace symbiosis;

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig13", "Figure 13: allocation algorithm comparison");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return 1;

  std::printf("=== Figure 13: comparison of the three allocation algorithms ===\n\n");

  const std::vector<std::vector<std::string>> mixes = {
      {"mcf", "libquantum", "povray", "gobmk"},
      {"omnetpp", "libquantum", "astar", "perlbench"},
      {"mcf", "hmmer", "omnetpp", "sjeng"},
      {"gcc", "libquantum", "bzip2", "h264ref"},
  };
  const std::vector<std::string> algorithms = {"weight-sort", "graph", "weighted-graph",
                                               "miss-rate", "default"};

  util::TextTable table;
  {
    std::vector<std::string> header = {"algorithm"};
    for (const auto& mix : mixes) {
      header.push_back(mix[0] + "/" + mix[1] + "/..");
    }
    header.push_back("mean");
    table.set_header(header);
  }

  // One vote per (algorithm, mix), then the period ablation's votes on the
  // first mix; every mapping of each mix is measured once.
  const core::PipelineConfig base = bench::default_pipeline(seed);
  const std::vector<std::uint64_t> periods = {5'000'000ull, 10'000'000ull, 20'000'000ull,
                                              40'000'000ull};
  std::vector<core::VoteTask> votes;
  for (const auto& algorithm : algorithms) {
    for (const auto& mix : mixes) {
      core::PipelineConfig config = base;
      config.allocator = algorithm;
      votes.push_back({config, mix});
    }
  }
  for (const std::uint64_t period : periods) {
    core::PipelineConfig config = base;
    config.allocator_period_cycles = period;
    votes.push_back({config, mixes[0]});
  }
  const std::vector<core::MeasureTask> measurements = bench::every_mapping(base, mixes);
  util::ThreadPool pool;
  const core::PhaseResults results = core::run_phase_tasks(votes, measurements, &pool);
  std::vector<core::MixOutcome> measured =
      bench::measured_outcomes(mixes, measurements, results.runs);

  std::size_t vote = 0;
  for (const auto& algorithm : algorithms) {
    std::vector<std::string> row = {algorithm};
    double total = 0.0;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      const double improvement = bench::improvement_of_vote(measured[i], results.votes[vote++]);
      total += improvement;
      row.push_back(util::TextTable::pct(improvement));
    }
    row.push_back(util::TextTable::pct(total / static_cast<double>(mixes.size())));
    table.add_row(row);
  }

  // Oracle row: best possible mapping per benchmark (headroom).
  {
    std::vector<std::string> row = {"(oracle best mapping)"};
    double total = 0.0;
    for (auto& outcome : measured) {
      double best = 0.0;
      for (std::size_t k = 0; k < outcome.mappings.size(); ++k) {
        outcome.chosen = k;
        best = std::max(best, bench::mean_improvement(outcome));
      }
      total += best;
      row.push_back(util::TextTable::pct(best));
    }
    row.push_back(util::TextTable::pct(total / static_cast<double>(mixes.size())));
    table.add_row(row);
  }

  std::printf("mean improvement over the worst mapping, per mix:\n");
  table.print();

  // Ablation: allocator invocation period (§5.4 argues 100 ms is cheap and
  // §4.1 uses it; shorter windows = fewer samples per vote).
  std::printf("\nablation: allocator period (weighted-graph, first mix):\n");
  util::TextTable ablation({"period (Mcycles)", "improvement"});
  for (const std::uint64_t period : periods) {
    ablation.add_row(
        {util::TextTable::fmt(static_cast<double>(period) / 1e6, 0),
         util::TextTable::pct(bench::improvement_of_vote(measured[0], results.votes[vote++]))});
  }
  ablation.print();

  std::printf(
      "\nExpected shape (paper): weighted-graph >= the other two paper algorithms;\n"
      "weight-sort close behind (footprint is a strong signal); graph and the\n"
      "miss-rate heuristic trail.\n");
  return 0;
}

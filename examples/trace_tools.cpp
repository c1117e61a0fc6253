// trace_tools — trace + run-report tooling.
//
// Subcommands:
//   roundtrip  record a workload's reference stream to a .symt trace, replay
//              it twice through identical machines, and verify the replays
//              are cycle-identical (the default when no subcommand is given);
//   convert    produce a .symt v2 trace from synthetic generators (--mix /
//              --benchmark) or from the text format (--text); --verify
//              proves generator conversions replay bit-identically to direct
//              generation;
//   replay     replay a .symt through a fresh hierarchy, print the summary,
//              optionally emit a kind="trace_replay" run report (--report);
//   inspect    summarize a run report JSON (kind, config, outcome counts) or
//              print the value at a --path like "outcomes.0.chosen";
//   diff       field-by-field comparison of two run reports, ignoring the
//              volatile "timings"/"metrics" sections unless --all;
//   validate   check a report against the symbiosis.run_report schema, or —
//              when the file starts with the SYMT magic — structurally
//              validate a .symt trace (--stats prints the summary).
//
//   ./trace_tools roundtrip [--benchmark mcf] [--refs 200000] [--out f.symt]
//   ./trace_tools convert --mix mcf,libquantum --refs 100000 --out mix.symt --verify
//   ./trace_tools convert --text app.trace --out app.symt
//   ./trace_tools replay mix.symt [--cores 2] [--chunk 4096]
//   ./trace_tools inspect report.json [--path summary.0.name]
//   ./trace_tools diff a.json b.json [--all]
//   ./trace_tools validate report.json | trace.symt [--stats]
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "machine/machine.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/replayer.hpp"
#include "workload/symt.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_text.hpp"

namespace {

using namespace symbiosis;

obs::Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return obs::Json::parse(buffer.str());
}

int cmd_roundtrip(int argc, char** argv) {
  util::ArgParser args("trace_tools roundtrip", "record / replay reference streams");
  auto& benchmark = args.add_string("benchmark", "pool program to record", "mcf");
  auto& refs = args.add_u64("refs", "references to record", 200'000);
  auto& out = args.add_string("out", "trace file path", "/tmp/symbiosis_trace.symt");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return 1;

  // 1. Record: pull steps straight from the generator into a .symt trace.
  {
    auto w = workload::make_spec_workload(benchmark, machine::address_space_base(0),
                                          util::Rng{seed}, workload::ScaleConfig{});
    workload::SymtWriter writer(1);
    const std::uint64_t recorded = workload::record_stream(writer, 0, *w, refs);
    writer.write_file(out);
    std::printf("recorded %llu refs of %s to %s\n", static_cast<unsigned long long>(recorded),
                benchmark.c_str(), out.c_str());
  }

  // 2. Run the replayed trace twice through identical machines; both must
  //    produce identical timing and signatures.
  const auto trace =
      std::make_shared<const workload::SymtTrace>(workload::SymtTrace::open(out));
  auto run = [&] {
    machine::Machine m(machine::core2duo_config());
    const auto id =
        m.add_task(std::make_unique<workload::SymtTaskStream>(trace, 0, benchmark + ".t0"), 0);
    m.run_to_all_complete(0);
    const auto& t = m.task(id);
    return std::tuple{t.first_completion_user_cycles, t.counters().l2_misses,
                      t.signature().latest_occupancy()};
  };
  auto [cycles_a, misses_a, occ_a] = run();
  auto [cycles_b, misses_b, occ_b] = run();

  util::TextTable table({"run", "user cycles", "L2 misses", "latest RBV weight"});
  table.add_row({"replay #1", std::to_string(cycles_a), std::to_string(misses_a),
                 std::to_string(occ_a)});
  table.add_row({"replay #2", std::to_string(cycles_b), std::to_string(misses_b),
                 std::to_string(occ_b)});
  table.print();

  if (cycles_a != cycles_b || misses_a != misses_b || occ_a != occ_b) {
    std::printf("\nFAIL: replays diverged — the machine is not deterministic\n");
    return 1;
  }
  std::printf("\nreplays are cycle-identical: trace-driven runs are exactly reproducible.\n");
  return 0;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_symt_stats(const workload::SymtTrace& trace, const workload::SymtStats& stats) {
  util::TextTable table({"field", "value"});
  table.add_row({"threads", std::to_string(stats.threads)});
  table.add_row({"records", std::to_string(stats.records)});
  table.add_row({"mem refs", std::to_string(stats.mem_refs)});
  table.add_row({"writes", std::to_string(stats.writes)});
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.3f", stats.write_ratio());
  table.add_row({"write ratio", ratio});
  table.add_row({"sync events", std::to_string(stats.sync_events)});
  table.add_row({"barriers", std::to_string(stats.barriers)});
  table.add_row({"lock ops", std::to_string(stats.locks)});
  table.add_row({"signals", std::to_string(stats.signals)});
  table.add_row({"waits", std::to_string(stats.waits)});
  table.add_row({"footprint lines", std::to_string(stats.footprint_lines)});
  table.add_row({"footprint KiB", std::to_string(stats.footprint_lines * 64 / 1024)});
  table.add_row({"payload bytes", std::to_string(trace.payload_bytes())});
  if (stats.mem_refs > 0) {
    char bpr[32];
    std::snprintf(bpr, sizeof bpr, "%.2f",
                  static_cast<double>(trace.payload_bytes()) /
                      static_cast<double>(stats.records));
    table.add_row({"bytes/record", bpr});
  }
  table.print();
}

int cmd_convert(int argc, char** argv) {
  util::ArgParser args("trace_tools convert", "produce a .symt v2 trace");
  auto& mix = args.add_string("mix", "comma-separated pool programs, one thread each", "");
  auto& benchmark = args.add_string("benchmark", "single pool program (1-thread trace)", "");
  auto& text = args.add_string("text", "text-format trace file to convert", "");
  auto& out = args.add_string("out", "output .symt path", "");
  auto& refs = args.add_u64("refs", "references per thread (generator sources)", 100'000);
  auto& seed = args.add_u64("seed", "RNG seed (generator sources)", 42);
  auto& verify = args.add_flag("verify", "prove replay == direct generation (generators only)");
  auto& chunk = args.add_u64("chunk", "replay chunk size for --verify", 4096);
  auto& cores = args.add_u64("cores", "simulated cores for --verify", 2);
  if (!args.parse(argc, argv)) return 1;
  if (out.empty()) {
    std::fprintf(stderr, "convert: --out is required\n");
    return 1;
  }
  const int sources = (!mix.empty() ? 1 : 0) + (!benchmark.empty() ? 1 : 0) +
                      (!text.empty() ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr, "convert: exactly one of --mix/--benchmark/--text required\n");
    return 1;
  }

  std::vector<std::uint8_t> image;
  std::vector<std::string> names;
  if (!mix.empty() || !benchmark.empty()) {
    names = mix.empty() ? std::vector<std::string>{benchmark} : split_csv(mix);
    image = workload::symt_from_benchmarks(names, refs, seed);
  } else {
    image = workload::symt_from_text(workload::parse_text_trace_file(text));
  }

  {
    std::ofstream file(out, std::ios::binary);
    if (!file) throw std::runtime_error("convert: cannot open " + out);
    file.write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    if (!file) throw std::runtime_error("convert: write failed: " + out);
  }

  const workload::SymtTrace trace = workload::SymtTrace::open(out);
  const workload::SymtStats stats = workload::collect_stats(trace);
  std::printf("wrote %s: %llu threads, %llu records, %zu bytes (%.2f bytes/record)\n",
              out.c_str(), static_cast<unsigned long long>(stats.threads),
              static_cast<unsigned long long>(stats.records), trace.file_bytes(),
              stats.records ? static_cast<double>(trace.payload_bytes()) /
                                  static_cast<double>(stats.records)
                            : 0.0);

  if (verify) {
    if (names.empty()) {
      std::fprintf(stderr, "convert: --verify needs a generator source (--mix/--benchmark)\n");
      return 1;
    }
    cachesim::HierarchyConfig hconfig;
    hconfig.num_cores = cores;
    cachesim::Hierarchy replayed(hconfig);
    cachesim::Hierarchy generated(hconfig);
    workload::ReplayOptions options;
    options.chunk = chunk;
    const workload::ReplayResult result = workload::replay_trace(trace, replayed, options);
    const cachesim::BatchSummary direct =
        workload::replay_generated(names, refs, seed, generated, chunk);
    if (!(result.totals == direct)) {
      std::printf("FAIL: trace replay diverged from direct generation\n");
      return 1;
    }
    std::printf("verify: trace replay is bit-identical to direct generation "
                "(%llu accesses, %llu cycles)\n",
                static_cast<unsigned long long>(result.totals.accesses),
                static_cast<unsigned long long>(result.totals.cycles));
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  util::ArgParser args("trace_tools replay", "replay a .symt trace through a hierarchy");
  auto& cores = args.add_u64("cores", "simulated cores", 2);
  auto& chunk = args.add_u64("chunk", "references per thread visit", 4096);
  auto& report_path = args.add_string("report", "write a trace_replay run report here", "");
  if (!args.parse(argc, argv)) return 1;
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: trace_tools replay <trace.symt> [--cores N] [--chunk N]\n");
    return 1;
  }

  const workload::SymtTrace trace = workload::SymtTrace::open(args.positional().front());
  const workload::SymtStats stats = workload::collect_stats(trace);

  cachesim::HierarchyConfig hconfig;
  hconfig.num_cores = cores;
  cachesim::Hierarchy hierarchy(hconfig);
  workload::ReplayOptions options;
  options.chunk = chunk;
  const workload::ReplayResult result = workload::replay_trace(trace, hierarchy, options);

  util::TextTable table({"metric", "value"});
  table.add_row({"accesses", std::to_string(result.totals.accesses)});
  table.add_row({"cycles", std::to_string(result.totals.cycles)});
  table.add_row({"L1 hits", std::to_string(result.totals.l1_hits)});
  table.add_row({"L2 hits", std::to_string(result.totals.l2_hits)});
  table.add_row({"TLB hits", std::to_string(result.totals.tlb_hits)});
  table.add_row({"rounds", std::to_string(result.rounds)});
  table.add_row({"sync events", std::to_string(result.sync_events)});
  table.print();

  if (!report_path.empty()) {
    const obs::Json report = core::build_trace_replay_report(
        hconfig, trace.path(), stats, result, chunk);
    core::write_report_file(report, report_path);
    std::printf("report written to %s\n", report_path.c_str());
  }
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  util::ArgParser args("trace_tools inspect", "summarize a run report JSON");
  auto& path_arg = args.add_string("path", "dot path to print instead of the summary", "");
  if (!args.parse(argc, argv)) return 1;
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: trace_tools inspect <report.json> [--path a.b.c]\n");
    return 1;
  }

  const obs::Json report = load_json(args.positional().front());
  if (!path_arg.empty()) {
    const obs::Json* node = obs::json_at_path(report, path_arg);
    if (!node) {
      std::fprintf(stderr, "inspect: no value at path \"%s\"\n", path_arg.c_str());
      return 1;
    }
    std::printf("%s\n", node->dump(2).c_str());
    return 0;
  }

  auto str = [&](const char* key) {
    const obs::Json* v = report.find(key);
    return v && v->is_string() ? v->as_string() : std::string("?");
  };
  std::printf("schema:  %s v%llu\n", str("schema").c_str(),
              static_cast<unsigned long long>(
                  report.find("schema_version") ? report.at("schema_version").as_u64() : 0));
  std::printf("kind:    %s\n", str("kind").c_str());
  if (const obs::Json* config = report.find("config")) {
    std::printf("config:  allocator=%s seed=%llu\n", config->at("allocator").as_string().c_str(),
                static_cast<unsigned long long>(config->at("seed").as_u64()));
  }
  if (const obs::Json* outcomes = report.find("outcomes")) {
    std::printf("sweep:   %zu mixes\n", outcomes->size());
  }
  if (const obs::Json* summary = report.find("summary")) {
    util::TextTable table({"benchmark", "mixes", "max impr", "avg impr", "max oracle"});
    for (const auto& entry : summary->as_array()) {
      table.add_row({entry.at("name").as_string(), std::to_string(entry.at("mixes").as_i64()),
                     util::TextTable::pct(entry.at("max_improvement").as_double()),
                     util::TextTable::pct(entry.at("avg_improvement").as_double()),
                     util::TextTable::pct(entry.at("max_oracle").as_double())});
    }
    table.print();
  }
  if (const obs::Json* metrics = report.find("metrics")) {
    std::printf("metrics: %zu registered\n", metrics->size());
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  util::ArgParser args("trace_tools diff", "field-by-field run report comparison");
  auto& all = args.add_flag("all", "also compare the volatile timings/metrics sections");
  if (!args.parse(argc, argv)) return 1;
  if (args.positional().size() != 2) {
    std::fprintf(stderr, "usage: trace_tools diff <a.json> <b.json> [--all]\n");
    return 1;
  }

  const obs::Json a = load_json(args.positional()[0]);
  const obs::Json b = load_json(args.positional()[1]);
  const std::vector<std::string> ignore =
      all ? std::vector<std::string>{} : std::vector<std::string>{"timings", "metrics"};
  const auto differences = obs::json_diff(a, b, ignore);
  for (const auto& d : differences) std::printf("%s\n", d.c_str());
  if (differences.empty()) {
    std::printf("reports are identical%s\n", all ? "" : " (timings/metrics ignored)");
    return 0;
  }
  std::printf("%zu difference(s)\n", differences.size());
  return 1;
}

/// True when @p path starts with the SYMT magic (any version: SymtTrace::open
/// then rejects every version but v2 with a diagnostic).
bool sniff_symt(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  return in.gcount() == 4 && magic[0] == 'S' && magic[1] == 'Y' && magic[2] == 'M' &&
         magic[3] == 'T';
}

int cmd_validate(int argc, char** argv) {
  util::ArgParser args("trace_tools validate", "check a run report or a .symt trace");
  auto& want_stats = args.add_flag("stats", "print the trace summary (.symt inputs)");
  if (!args.parse(argc, argv)) return 1;
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: trace_tools validate <report.json | trace.symt> [--stats]\n");
    return 1;
  }

  if (sniff_symt(args.positional().front())) {
    // SymtTrace::open validates header/version/thread table; collect_stats
    // fully decodes every payload, so corruption anywhere is caught here.
    const workload::SymtTrace trace = workload::SymtTrace::open(args.positional().front());
    const workload::SymtStats stats = workload::collect_stats(trace);
    std::printf("valid .symt v%llu trace: %llu threads, %llu records\n",
                static_cast<unsigned long long>(workload::kSymtVersion),
                static_cast<unsigned long long>(stats.threads),
                static_cast<unsigned long long>(stats.records));
    if (want_stats) print_symt_stats(trace, stats);
    return 0;
  }

  const obs::Json report = load_json(args.positional().front());
  const auto problems = core::validate_report(report);
  for (const auto& p : problems) std::printf("%s\n", p.c_str());
  if (problems.empty()) {
    // Print the document's OWN stamp: degenerate machines emit v1,
    // clustered/L3 machines v2 (both validate).
    std::printf("valid %s v%llu report\n", std::string(core::kReportSchema).c_str(),
                static_cast<unsigned long long>(report.at("schema_version").as_u64()));
    return 0;
  }
  std::printf("%zu problem(s)\n", problems.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sub = argc > 1 ? argv[1] : "";
  try {
    if (sub == "convert") return cmd_convert(argc - 1, argv + 1);
    if (sub == "replay") return cmd_replay(argc - 1, argv + 1);
    if (sub == "inspect") return cmd_inspect(argc - 1, argv + 1);
    if (sub == "diff") return cmd_diff(argc - 1, argv + 1);
    if (sub == "validate") return cmd_validate(argc - 1, argv + 1);
    if (sub == "roundtrip") return cmd_roundtrip(argc - 1, argv + 1);
    return cmd_roundtrip(argc, argv);  // legacy invocation, no subcommand
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_tools %s: %s\n", sub.c_str(), e.what());
    return 1;
  }
}

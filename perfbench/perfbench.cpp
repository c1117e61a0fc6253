// perfbench.cpp — the reproduction benchmark's measuring program.
//
// Runs one workload through the simulator's public entry points and prints
// one JSON line of raw results; perfbench/run.py builds this program,
// launches it, compares its output digest with the recorded one and prints
// the benchmark's result. See perfbench/NOTES.md for why each workload and
// metric exists.
//
//   perfbench --workload native-grid|trace-replay --seed N
//             --seconds S [--trace 0|1] [--small] [--spans FILE]
//
// Untraced (--trace 0): set up several times (median = setup_s), then run
// fixed-size rounds until S seconds have passed; throughput is the work of
// all rounds over their total time. Every round must reproduce the first
// round's digest.
//
// Traced (--trace 1): one untraced round, then the same round again with
// spans around the calls into each layer (core phases, machine runs,
// generator, hierarchy, signature unit, allocators), then standalone layer
// probes. Spans live in memory and are written to FILE at the end.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "core/experiment.hpp"
#include "core/profile.hpp"
#include "core/symbiotic_scheduler.hpp"
#include "machine/config.hpp"
#include "machine/machine.hpp"
#include "obs/metrics.hpp"
#include "sched/allocation.hpp"
#include "sched/policy.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/threadpool.hpp"
#include "workload/benchmark_model.hpp"
#include "workload/replayer.hpp"
#include "workload/symt.hpp"
#include "workload/trace_source.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace symbiosis;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Consume a computed value so the timed loop that produced it is kept.
void keep(std::uint64_t v) { asm volatile("" : : "r"(v)); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- fixed work per workload ------------------------------------------------

/// Work sizes. Every seed runs exactly these amounts; --small shrinks them
/// for the self-test.
struct Sizing {
  std::size_t workers = 2;  ///< native-grid pool size (fixed, not nproc)
  int setup_reps = 41;      ///< native-grid: setups per run (median reported)
  int trace_setup_reps = 3;  ///< trace-replay: recordings per run
  double length_scale = 0.06;
  /// Phase 1: three allocator periods of emulation.
  std::uint64_t emulation_cycles = 30'000'000;
  std::uint64_t allocator_period_cycles = 10'000'000;
  std::uint64_t trace_refs_per_thread = 2'000'000;
  std::uint64_t probe_refs = 1'600'000;  ///< generator/hierarchy probes, all threads
  int probe_reps = 5;                    ///< probe passes (median reported)
};

Sizing small_sizing() {
  Sizing s;
  s.setup_reps = 3;
  s.trace_setup_reps = 2;
  s.length_scale = 0.02;
  s.emulation_cycles = 20'000'000;
  s.trace_refs_per_thread = 100'000;
  s.probe_refs = 200'000;
  s.probe_reps = 1;
  return s;
}

// --- spans --------------------------------------------------------------------

constexpr std::int64_t kNoCell = -1;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t cell = kNoCell;  ///< spans of one experiment cell share it
  std::string name;
  double start_s = 0.0;  ///< since the log was created
  double end_s = 0.0;
};

/// In-memory span store; written out once, at the end of the traced run.
class SpanLog {
 public:
  std::uint64_t next_id() noexcept { return ++ids_; }
  double offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  void add(SpanRecord record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
  }
  void note_dropped() noexcept { ++dropped_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }
  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// One JSON object per line: id, parent, cell, name, start_s, end_s.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    const std::lock_guard<std::mutex> lock(mutex_);
    char line[256];
    for (const auto& s : spans_) {
      std::snprintf(line, sizeof line,
                    "{\"id\": %llu, \"parent\": %llu, \"cell\": %lld, \"name\": \"%s\", "
                    "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), static_cast<long long>(s.cell),
                    s.name.c_str(), s.start_s, s.end_s);
      out << line;
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opened at construction, recorded at destruction. A null log
/// makes it a no-op, so one code path serves traced and untraced calls.
class Span {
 public:
  Span(SpanLog* log, std::string name, std::uint64_t parent = 0, std::int64_t cell = kNoCell)
      : log_(log), name_(std::move(name)), parent_(parent), cell_(cell),
        id_(log ? log->next_id() : 0), start_(Clock::now()) {}
  ~Span() {
    if (!log_) return;
    try {
      log_->add({id_, parent_, cell_, std::move(name_), log_->offset(start_),
                 log_->offset(Clock::now())});
    } catch (...) {
      log_->note_dropped();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::string name_;
  std::uint64_t parent_;
  std::int64_t cell_;
  std::uint64_t id_;
  Clock::time_point start_;
};

// --- output digest ----------------------------------------------------------

/// FNV-1a over a canonical field sequence of the simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::string_view s) noexcept {
    add(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const cachesim::LevelStats& s) noexcept {
    add(s.accesses);
    add(s.hits);
    add(s.misses);
    add(s.evictions);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void digest_outcome(Digest& d, const core::MixOutcome& o) {
  for (const auto& name : o.mix) d.add(name);
  d.add(o.chosen);
  d.add(o.votes.size());
  for (const auto& [key, count] : o.votes) {
    d.add(key);
    d.add(static_cast<std::uint64_t>(count));
  }
  d.add(o.mappings.size());
  for (const auto& run : o.mappings) {
    d.add(run.allocation.key());
    d.add(run.completed ? 1 : 0);
    d.add(run.wall_cycles);
    for (const auto cycles : run.user_cycles) d.add(cycles);
    for (const auto& level : run.levels) {
      d.add(level.level);
      d.add(level.stats);
    }
  }
}

/// Invariants any seed must satisfy; empty string when the cell is sound.
std::string check_outcome(const core::MixOutcome& o) {
  if (o.mappings.empty()) return "no mapping measured";
  if (o.chosen >= o.mappings.size()) return "chosen mapping out of range";
  for (const auto& run : o.mappings) {
    if (!run.completed) return "mapping " + run.allocation.key() + " did not complete";
    if (run.user_cycles.size() != o.mix.size()) return "user time count != mix size";
    for (const auto cycles : run.user_cycles) {
      if (cycles == 0) return "zero user time in mapping " + run.allocation.key();
    }
  }
  return {};
}

// --- results ----------------------------------------------------------------

struct Results {
  std::vector<double> setup_samples;
  std::vector<double> round_wall;  ///< measured rounds only
  double measured_cells = 0.0;      ///< work completed in the measured rounds
  double measured_refs = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  bool have_digest = false;
  std::vector<std::string> errors;
  double oracle_capture_pct = 0.0;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced run)
  std::map<std::string, double> shares;  ///< layer shares of machine ns/step

  void fail(std::string what, std::uint64_t count = 1) {
    failed += count;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  /// Count a measured round. Throughput is total work over total time of
  /// the measured rounds: the host's speed drifts in phases as long as a
  /// run, and a time average blends them where a median picks one.
  void add_round(double wall_s, double cells, double refs) {
    round_wall.push_back(wall_s);
    measured_cells += cells;
    measured_refs += refs;
  }
  [[nodiscard]] double measured_s() const {
    double sum = 0.0;
    for (const double w : round_wall) sum += w;
    return sum;
  }
  /// Record a round's digest: the first one is the run's digest, every
  /// later one must equal it (same seed, same inputs, same outputs).
  void check_round_digest(std::uint64_t round_digest, std::uint64_t cells, const char* what) {
    if (!have_digest) {
      digest = round_digest;
      have_digest = true;
    } else if (round_digest != digest) {
      fail(std::string(what) + " digest " + hex(round_digest) + " != first round " + hex(digest),
           cells);
    }
  }
};

// --- layer probes (traced run) ------------------------------------------------

/// Per-thread reference streams plus the hierarchy they run on. Thread t
/// runs on core t mod cores; cores take turns one chunk at a time (the
/// machine's batch), and a core switches to its next thread after a slice
/// (the machine's quantum, in references).
struct ProbeInput {
  std::vector<std::unique_ptr<workload::TaskStream>> streams;
  cachesim::HierarchyConfig hierarchy;
  std::size_t chunk = 64;
  std::size_t slice = 50'000;  ///< about one 3M-cycle quantum of references
};

using Refs = std::vector<std::vector<cachesim::MemRef>>;

/// TaskStream::next on every stream, timed; returns the references.
Refs probe_generate(ProbeInput& in, std::uint64_t refs_per_thread, double& ns_per_step) {
  Refs out(in.streams.size());
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < in.streams.size(); ++t) {
    workload::TaskStream& stream = *in.streams[t];
    out[t].reserve(refs_per_thread);
    for (std::uint64_t r = 0; r < refs_per_thread; ++r) {
      if (stream.complete()) stream.restart();
      const workload::Step step = stream.next();
      sink += step.compute_instr;
      out[t].push_back({step.addr, step.is_write});
    }
  }
  ns_per_step = seconds_since(t0) * 1e9 /
                static_cast<double>(refs_per_thread * in.streams.size());
  keep(sink);
  return out;
}

/// SymtCursor::decode_mem_run over every thread of @p trace: ns per reference.
double probe_decode(const workload::SymtTrace& trace) {
  std::vector<cachesim::MemRef> buf(4096);
  std::uint64_t mem_refs = 0;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < trace.num_threads(); ++t) {
    workload::SymtCursor cursor(trace, t);
    while (!cursor.done()) {
      const std::size_t n = cursor.decode_mem_run(buf.data(), nullptr, buf.size());
      if (n == 0) {
        workload::SymtRecord sync;
        (void)cursor.next(sync);
      }
      mem_refs += n;
    }
  }
  return mem_refs ? seconds_since(t0) * 1e9 / static_cast<double>(mem_refs) : 0.0;
}

struct AccessPass {
  double ns_per_access = 0.0;
  cachesim::BatchSummary summary;
  std::unique_ptr<cachesim::Hierarchy> hierarchy;
};

/// Replay @p refs into a fresh hierarchy in ProbeInput's interleaving —
/// through Hierarchy::access one reference at a time, or through
/// Hierarchy::access_batch one chunk at a time.
AccessPass probe_access(const cachesim::HierarchyConfig& config, const Refs& refs,
                        const ProbeInput& in, bool batched) {
  AccessPass pass;
  pass.hierarchy = std::make_unique<cachesim::Hierarchy>(config);
  cachesim::Hierarchy& h = *pass.hierarchy;
  const std::size_t cores = h.num_cores();
  std::vector<std::vector<std::size_t>> threads_of(cores);
  for (std::size_t t = 0; t < refs.size(); ++t) threads_of[t % cores].push_back(t);
  std::vector<std::size_t> pos(refs.size(), 0), turn(cores, 0), slice_left(cores, in.slice);
  auto left = [&](std::size_t t) { return refs[t].size() - pos[t]; };

  std::uint64_t total = 0;
  const auto t0 = Clock::now();
  for (bool any = true; any;) {
    any = false;
    for (std::size_t core = 0; core < cores; ++core) {
      const auto& mine = threads_of[core];
      // Rotate past this core's finished threads; a core with none idles.
      std::size_t tries = 0;
      while (tries < mine.size() && left(mine[turn[core]]) == 0) {
        turn[core] = (turn[core] + 1) % mine.size();
        slice_left[core] = in.slice;
        ++tries;
      }
      if (tries == mine.size()) continue;
      any = true;
      const std::size_t t = mine[turn[core]];
      const std::size_t n = std::min({in.chunk, slice_left[core], left(t)});
      const cachesim::MemRef* first = refs[t].data() + pos[t];
      if (batched) {
        pass.summary += h.access_batch(core, first, n);
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          const cachesim::MemAccessResult r = h.access(core, first[j].addr, first[j].is_write);
          cachesim::BatchSummary& s = pass.summary;
          ++s.accesses;
          s.cycles += r.cycles;
          s.l1_hits += r.l1_hit;
          s.l2_hits += r.l2_hit;
          s.l3_hits += r.l3_hit;
          s.tlb_hits += r.tlb_hit;
          s.stream_prefetched += r.stream_prefetched;
        }
      }
      pos[t] += n;
      total += n;
      slice_left[core] -= n;
      if (slice_left[core] == 0) {
        turn[core] = (turn[core] + 1) % mine.size();
        slice_left[core] = in.slice;
      }
    }
  }
  pass.ns_per_access = total ? seconds_since(t0) * 1e9 / static_cast<double>(total) : 0.0;
  return pass;
}

double hit_ratio(const cachesim::LevelStats& s) {
  return s.accesses ? static_cast<double>(s.hits) / static_cast<double>(s.accesses) : 0.0;
}

/// The substrate probes every traced run makes: generator, decoder,
/// hierarchy (one at a time, batched, signature off), signature unit, Zipf.
void probe_substrate(ProbeInput& in, const workload::SymtTrace* trace, const Sizing& sizing,
                     std::uint64_t seed, SpanLog& log, Results& res) {
  const std::uint64_t per_thread =
      std::max<std::uint64_t>(1, sizing.probe_refs / std::max<std::size_t>(1, in.streams.size()));

  double gen_ns = 0.0;
  Refs refs;
  {
    const Span span(&log, "workload.next");
    refs = probe_generate(in, per_thread, gen_ns);
  }
  res.layers["workload.ns_per_step"] = gen_ns;

  // Decode: the real trace on trace-replay, else the generated references
  // recorded into an image (recording is not timed).
  double decode_ns = 0.0;
  {
    std::unique_ptr<workload::SymtTrace> own;
    if (!trace) {
      workload::SymtWriter writer(refs.size());
      for (std::size_t t = 0; t < refs.size(); ++t) {
        for (const auto& r : refs[t]) writer.append_mem(t, r.addr, r.is_write);
      }
      own = std::make_unique<workload::SymtTrace>(
          workload::SymtTrace::from_buffer(writer.finish()));
    }
    const workload::SymtTrace& image = trace ? *trace : *own;
    std::vector<double> samples;
    for (int rep = 0; rep < sizing.probe_reps; ++rep) {
      const Span span(&log, "workload.decode");
      samples.push_back(probe_decode(image));
    }
    decode_ns = median(samples);
  }
  res.layers["workload.decode_ns_per_ref"] = decode_ns;

  // Hierarchy passes; every pass must agree with the first, bit for bit.
  cachesim::HierarchyConfig sig_off = in.hierarchy;
  sig_off.signature.enabled = false;
  // The three passes rotate order each repetition, and the signature
  // overhead is the median of paired (on - off) differences, so host drift
  // during the probe cancels instead of landing on one pass.
  std::vector<double> one_ns, batch_ns, sig_ns;
  cachesim::BatchSummary reference;
  bool agree = true;
  std::unique_ptr<cachesim::Hierarchy> warm;
  for (int rep = 0; rep < sizing.probe_reps; ++rep) {
    AccessPass one, batch, off;
    for (int k = 0; k < 3; ++k) {
      switch ((rep + k) % 3) {
        case 0: {
          const Span span(&log, "cachesim.access");
          one = probe_access(in.hierarchy, refs, in, false);
          break;
        }
        case 1: {
          const Span span(&log, "cachesim.access_batch");
          batch = probe_access(in.hierarchy, refs, in, true);
          break;
        }
        default: {
          const Span span(&log, "cachesim.access.sig_off");
          off = probe_access(sig_off, refs, in, false);
        }
      }
    }
    if (rep == 0) reference = one.summary;
    agree = agree && one.summary == reference && batch.summary == reference;
    one_ns.push_back(one.ns_per_access);
    batch_ns.push_back(batch.ns_per_access);
    sig_ns.push_back(one.ns_per_access - off.ns_per_access);
    warm = std::move(one.hierarchy);
  }
  res.attempted += 1;
  if (!agree) res.fail("cachesim probe: access_batch summary differs from one-at-a-time access");
  res.layers["cachesim.ns_per_access"] = median(one_ns);
  res.layers["cachesim.ns_per_batched_access"] = median(batch_ns);
  res.layers["sig.access_overhead_ns"] = median(sig_ns);
  res.layers["cachesim.l2_hit_ratio"] = hit_ratio(warm->level_stats("l2"));
  res.layers["cachesim.l3_hit_ratio"] = hit_ratio(warm->level_stats("l3"));

  // Signature unit: RBV derivation and the batched symbiosis pass, on the
  // warm filter of core 0's cluster.
  if (sig::FilterUnit* filter = warm->filter_for_core(0)) {
    constexpr int kReps = 20'000;
    const std::size_t local = warm->local_core(0);
    std::vector<std::size_t> out(filter->num_cores());
    std::uint64_t sink = 0;
    sig::BitVector rbv;
    {
      const Span span(&log, "sig.compute_rbv");
      const auto t0 = Clock::now();
      for (int i = 0; i < kReps; ++i) {
        rbv = filter->compute_rbv(local);
        sink += rbv.size();
      }
      res.layers["sig.rbv_ns"] = seconds_since(t0) * 1e9 / kReps;
    }
    {
      const Span span(&log, "sig.symbiosis_all");
      const auto t0 = Clock::now();
      for (int i = 0; i < kReps; ++i) {
        filter->symbiosis_all(rbv, local, out.data());
        sink += out[0];
      }
      res.layers["sig.symbiosis_all_ns"] = seconds_since(t0) * 1e9 / kReps;
    }
    keep(sink);
  } else {
    res.fail("signature probe: no filter unit on the probe hierarchy");
  }

  {
    constexpr int kSamples = 4'000'000;
    const util::ZipfSampler zipf(4096, 0.99);
    util::Rng rng(seed);
    std::uint64_t sink = 0;
    const Span span(&log, "util.zipf");
    const auto t0 = Clock::now();
    for (int i = 0; i < kSamples; ++i) sink += zipf.sample(rng);
    res.layers["util.zipf_ns_per_sample"] = seconds_since(t0) * 1e9 / kSamples;
    keep(sink);
  }
}

/// Shares of the machine's host time per simulated step: generator,
/// hierarchy without the signature unit, signature unit, and the machine's
/// own remainder (self time, which absorbs probe-to-machine differences).
void compute_shares(Results& res) {
  const double step = res.layers["machine.ns_per_step"];
  const double gen = res.layers["workload.ns_per_step"];
  const double access = res.layers["cachesim.ns_per_access"];
  const double sig = res.layers["sig.access_overhead_ns"];
  res.layers["machine.self_ns_per_step"] = step > 0.0 ? step - gen - access : 0.0;
  if (step <= 0.0) return;
  res.shares["workload"] = gen / step;
  res.shares["cachesim"] = (access - sig) / step;
  res.shares["sig"] = sig / step;
  res.shares["machine.self"] = res.layers["machine.self_ns_per_step"] / step;
  double sum = 0.0;
  for (const auto& [name, share] : res.shares) sum += share;
  res.shares["sum"] = sum;
}

// --- native-grid -------------------------------------------------------------

const std::vector<std::string> kGridAllocators = {"weight-sort", "graph", "weighted-graph",
                                                  "miss-rate"};
const std::vector<std::string> kProbeAllocators = {"weight-sort", "graph", "weighted-graph",
                                                   "miss-rate", "multithread"};

struct SweepSetup {
  core::PipelineConfig config;
  std::vector<std::vector<std::string>> mixes;
  std::unique_ptr<util::ThreadPool> threads;
  [[nodiscard]] std::size_t cells() const { return mixes.size() * kGridAllocators.size(); }
};

constexpr std::size_t kMixSize = 4;
constexpr std::size_t kPerBenchmark = 1;  // every pool program in >= 1 mix

/// A mix's task streams, seeded exactly as core::add_mix_tasks seeds them.
std::vector<std::unique_ptr<workload::TaskStream>> make_streams(
    const SweepSetup& s, const std::vector<std::string>& mix) {
  std::vector<std::unique_ptr<workload::TaskStream>> out;
  util::Rng rng(s.config.seed);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    out.push_back(workload::make_spec_workload(mix[i], machine::address_space_base(i),
                                               rng.split(i + 1), s.config.scale));
  }
  return out;
}

SweepSetup make_sweep_setup(const Sizing& sizing, std::uint64_t seed) {
  SweepSetup s;
  s.config.machine = machine::core2duo_config();
  s.config.sync_scale();
  s.config.seed = seed;
  s.config.measure_max_cycles = 4'000'000'000ull;  // safety net only
  s.config.scale.length_scale = sizing.length_scale;
  s.config.emulation_cycles = sizing.emulation_cycles;
  s.config.allocator_period_cycles = sizing.allocator_period_cycles;
  s.mixes = core::sample_mixes(workload::spec2006_pool(), kMixSize, kPerBenchmark, seed);
  s.threads = std::make_unique<util::ThreadPool>(sizing.workers);
  // Instantiate every mix's workload models once: validates each program
  // name before any cell runs, and times the per-program model build.
  for (const auto& mix : s.mixes) (void)make_streams(s, mix);
  return s;
}

struct SweepRound {
  double wall_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t switches = 0;
  std::vector<core::MixOutcome> outcomes;
};

/// Fold a round into the results: invariants per cell, digest per round.
std::uint64_t score_sweep_round(const SweepSetup& s, const SweepRound& round, Results& res) {
  Digest d;
  res.attempted += s.cells();
  if (round.outcomes.size() != s.cells()) {
    res.fail("round produced " + std::to_string(round.outcomes.size()) + " cells, expected " +
                 std::to_string(s.cells()),
             s.cells());
    return 0;
  }
  for (std::size_t i = 0; i < round.outcomes.size(); ++i) {
    const std::string problem = check_outcome(round.outcomes[i]);
    if (!problem.empty()) res.fail("cell " + std::to_string(i) + ": " + problem);
    digest_outcome(d, round.outcomes[i]);
  }
  return d.value();
}

/// The product path: core::run_sweep_grid over (mixes x allocators).
SweepRound run_sweep_round(const SweepSetup& s) {
  obs::Counter& steps = obs::counter("machine.steps");
  obs::Counter& switches = obs::counter("machine.context_switch");
  const std::uint64_t steps0 = steps.value(), switches0 = switches.value();
  SweepRound round;
  const auto t0 = Clock::now();
  core::SweepGridResult grid =
      core::run_sweep_grid(s.config, workload::spec2006_pool(), kMixSize, kPerBenchmark,
                           kGridAllocators, /*seed_replicates=*/1, /*multithreaded=*/false,
                           s.threads.get());
  round.wall_s = seconds_since(t0);
  round.steps = steps.value() - steps0;
  round.switches = switches.value() - switches0;
  round.outcomes = std::move(grid.outcomes);
  return round;
}

/// One cell decomposed into its public calls, each inside a span. Mirrors
/// core::run_mix_experiment; the traced round's digest must equal the
/// untraced round's, which proves the mirror exact.
core::MixOutcome traced_cell(const core::PipelineConfig& config,
                             const std::vector<std::string>& mix, SpanLog& log,
                             std::uint64_t parent, std::int64_t cell) {
  core::MixOutcome outcome;
  outcome.mix = mix;
  sched::Allocation chosen;
  {
    const Span span(&log, "core.phase1", parent, cell);
    core::SymbioticScheduler pipeline(config);
    chosen = pipeline.choose_allocation(mix);
    outcome.votes = pipeline.vote_table();
  }
  auto measure = [&](const sched::Allocation& alloc) {
    const Span span(&log, "core.phase2", parent, cell);
    return core::measure_mapping(config, mix, alloc);
  };
  for (const auto& alloc :
       sched::enumerate_balanced_allocations(mix.size(), config.machine.hierarchy.num_cores)) {
    outcome.mappings.push_back(measure(alloc));
  }
  const auto found =
      std::find_if(outcome.mappings.begin(), outcome.mappings.end(),
                   [&](const core::MappingRun& r) { return r.allocation == chosen; });
  if (found != outcome.mappings.end()) {
    outcome.chosen = static_cast<std::size_t>(found - outcome.mappings.begin());
  } else {
    outcome.mappings.push_back(measure(chosen));
    outcome.chosen = outcome.mappings.size() - 1;
  }
  return outcome;
}

/// The same grid as run_sweep_round, cell by cell from this file, with
/// spans; cells land at run_sweep_grid's cell index (mix-major).
SweepRound run_traced_sweep_round(const SweepSetup& s, SpanLog& log) {
  obs::Counter& steps = obs::counter("machine.steps");
  obs::Counter& switches = obs::counter("machine.context_switch");
  const std::uint64_t steps0 = steps.value(), switches0 = switches.value();
  SweepRound round;
  round.outcomes.resize(s.cells());
  auto run_cell = [&](std::size_t i) {
    const std::size_t mix = i / kGridAllocators.size();
    const Span span(&log, "core.cell", 0, static_cast<std::int64_t>(i));
    core::PipelineConfig config = s.config;
    config.allocator = kGridAllocators[i % kGridAllocators.size()];
    round.outcomes[i] =
        traced_cell(config, s.mixes[mix], log, span.id(), static_cast<std::int64_t>(i));
  };
  const auto t0 = Clock::now();
  s.threads->parallel_for(0, s.cells(), run_cell);
  round.wall_s = seconds_since(t0);
  round.steps = steps.value() - steps0;
  round.switches = switches.value() - switches0;
  return round;
}

/// Machine, scheduler and allocator probes on the first mix: a phase-1
/// machine (Machine::run_for with the voting hook's profile collection)
/// and a pinned phase-2 machine (Machine::run_to_all_complete).
void probe_machine_and_sched(const SweepSetup& s, SpanLog& log, Results& res) {
  const std::vector<std::string>& mix = s.mixes.front();
  const std::size_t cores = s.config.machine.hierarchy.num_cores;

  machine::Machine phase1(s.config.machine);
  const auto ids = core::add_mix_tasks(phase1, mix, s.config.scale, s.config.seed);
  std::vector<sched::TaskProfile> profiles;
  phase1.set_periodic_hook(s.config.allocator_period_cycles, [&](machine::Machine& mm) {
    auto snapshot = core::collect_profiles(mm);
    const bool ready = std::all_of(snapshot.begin(), snapshot.end(), [&](const auto& p) {
      return mm.task(ids[p.task_index]).signature().samples() > 0;
    });
    if (!ready) return;
    profiles = std::move(snapshot);
    core::clear_signature_windows(mm);
  });
  double run_s = 0.0;
  {
    const Span span(&log, "machine.run_for");
    const auto t0 = Clock::now();
    phase1.run_for(s.config.emulation_cycles);
    run_s += seconds_since(t0);
  }

  machine::Machine phase2(s.config.machine);
  const auto ids2 = core::add_mix_tasks(phase2, mix, s.config.scale, s.config.seed);
  core::apply_allocation(phase2, ids2,
                         sched::enumerate_balanced_allocations(mix.size(), cores).front());
  {
    const Span span(&log, "machine.run_to_all_complete");
    const auto t0 = Clock::now();
    if (!phase2.run_to_all_complete(s.config.measure_max_cycles)) {
      res.fail("machine probe: phase-2 run did not complete");
    }
    run_s += seconds_since(t0);
  }
  res.attempted += 1;
  const std::uint64_t probe_steps = phase1.stats().steps + phase2.stats().steps;
  res.layers["machine.ns_per_step"] =
      probe_steps ? run_s * 1e9 / static_cast<double>(probe_steps) : 0.0;

  // A window where every task has a signature sample is what the pipeline
  // votes on; a short emulation may have none, so fall back to the final
  // snapshot (same shape, possibly stale signatures).
  if (profiles.empty()) profiles = core::collect_profiles(phase1);
  // Repeat each allocator until 50 ms or 200 calls, whichever comes first.
  res.attempted += kProbeAllocators.size();
  for (const auto& name : kProbeAllocators) {
    try {
      auto allocator = sched::make_allocator(name, s.config.seed);
      std::size_t sink = 0, calls = 0;
      double elapsed = 0.0;
      const Span span(&log, "sched.allocate." + name);
      const auto t0 = Clock::now();
      do {
        sink += allocator->allocate(profiles, cores).groups;
        ++calls;
        elapsed = seconds_since(t0);
      } while (calls < 200 && elapsed < 0.05);
      res.layers["sched.allocate_us." + name] = elapsed * 1e6 / static_cast<double>(calls);
      if (sink != calls * cores) {
        res.fail("allocator probe: " + name + " returned a wrong group count");
      }
    } catch (const std::exception& e) {
      res.fail("allocator probe: " + name + ": " + e.what());
    }
  }
}

double oracle_capture_pct(const std::vector<core::MixOutcome>& outcomes) {
  double chosen = 0.0, oracle = 0.0;
  for (const auto& o : outcomes) {
    for (std::size_t i = 0; i < o.mix.size(); ++i) {
      chosen += o.improvement_vs_worst(i);
      oracle += o.oracle_improvement(i);
    }
  }
  return oracle > 0.0 ? 100.0 * chosen / oracle : 0.0;
}

void record_sweep_round(const SweepSetup& s, const SweepRound& round, Results& res) {
  res.add_round(round.wall_s, static_cast<double>(s.cells()), static_cast<double>(round.steps));
}

void run_grid_workload(const Sizing& sizing, std::uint64_t seed, double seconds, SpanLog* log,
                       Results& res) {
  SweepSetup setup;
  for (int rep = 0; rep < sizing.setup_reps; ++rep) {
    setup = SweepSetup{};  // the previous pool joins before the next is timed
    const auto t0 = Clock::now();
    setup = make_sweep_setup(sizing, seed);
    res.setup_samples.push_back(seconds_since(t0));
  }

  const auto measure0 = Clock::now();
  SweepRound first = run_sweep_round(setup);
  res.check_round_digest(score_sweep_round(setup, first, res), setup.cells(), "round");
  record_sweep_round(setup, first, res);
  res.oracle_capture_pct = oracle_capture_pct(first.outcomes);

  if (!log) {
    while (seconds_since(measure0) < seconds) {
      const SweepRound round = run_sweep_round(setup);
      res.check_round_digest(score_sweep_round(setup, round, res), setup.cells(), "round");
      record_sweep_round(setup, round, res);
    }
    return;
  }

  // Untraced, traced, untraced again: the overhead and the pool's busy
  // ratio compare the traced round with the warm untraced one after it.
  const SweepRound traced = run_traced_sweep_round(setup, *log);
  res.check_round_digest(score_sweep_round(setup, traced, res), setup.cells(), "traced round");
  const SweepRound after = run_sweep_round(setup);
  res.check_round_digest(score_sweep_round(setup, after, res), setup.cells(), "round");
  record_sweep_round(setup, after, res);
  if (traced.steps != first.steps) {
    res.fail("traced round simulated " + std::to_string(traced.steps) + " steps, untraced " +
             std::to_string(first.steps));
  }
  const std::size_t workers = setup.threads->size();
  const double p1 = log->total("core.phase1"), p2 = log->total("core.phase2");
  const auto cell_s = log->durations("core.cell");
  res.layers["core.phase1_s"] = p1;
  res.layers["core.phase2_s"] = p2;
  res.layers["core.phase2_share"] = p1 + p2 > 0.0 ? p2 / (p1 + p2) : 0.0;
  res.layers["core.cell_s_p50"] = median(cell_s);
  res.layers["core.cell_s_max"] =
      cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(), cell_s.end());
  res.layers["core.pool_busy_ratio"] =
      log->total("core.cell") / (after.wall_s * static_cast<double>(workers));
  res.layers["machine.sim_steps"] = static_cast<double>(traced.steps);
  res.layers["machine.context_switches"] = static_cast<double>(traced.switches);
  res.layers["trace.overhead_s"] = traced.wall_s - after.wall_s;
  double votes = 0.0;
  for (const auto& o : traced.outcomes) {
    for (const auto& [key, count] : o.votes) votes += count;
  }
  res.layers["sched.votes"] = votes;
  res.layers["sched.oracle_capture_pct"] = oracle_capture_pct(traced.outcomes);

  probe_machine_and_sched(setup, *log, res);

  ProbeInput in;
  in.hierarchy = setup.config.machine.hierarchy;
  in.chunk = setup.config.machine.batch_steps;
  in.streams = make_streams(setup, setup.mixes.front());
  probe_substrate(in, nullptr, sizing, seed, *log, res);
  compute_shares(res);
}

// --- trace-replay ---------------------------------------------------------------

/// The 8-core replay machine: 4 clusters of 2 cores sharing an L2 each,
/// an inclusive SRRIP L3 below, way-partitioned 4 ways per cluster.
cachesim::HierarchyConfig replay_hierarchy() {
  cachesim::HierarchyConfig h;
  h.num_cores = 8;
  h.l1 = {8 * 1024, 8, 64};
  h.l2 = {256 * 1024, 16, 64};
  h.shared_l2 = true;
  h.l2_clusters = 4;
  h.l3 = cachesim::CacheGeometry{1024 * 1024, 16, 64};
  h.l3_replacement = cachesim::ReplacementKind::Srrip;
  h.l3_way_partition.ways_per_group = {4, 4, 4, 4};
  return h;
}

std::vector<std::string> replay_programs() {
  const auto& pool = workload::spec2006_pool();
  return {pool.begin(), pool.begin() + 8};
}

struct ReplayRound {
  double wall_s = 0.0;
  workload::ReplayResult result;
  std::uint64_t digest = 0;
};

ReplayRound run_replay_round(const workload::SymtTrace& trace, SpanLog* log) {
  ReplayRound round;
  cachesim::Hierarchy h(replay_hierarchy());
  {
    const Span span(log, "workload.replay");
    const auto t0 = Clock::now();
    round.result = workload::TraceReplayer(trace, h).run();
    round.wall_s = seconds_since(t0);
  }
  const auto& r = round.result;
  Digest d;
  for (const std::uint64_t v : {r.totals.accesses, r.totals.cycles, r.totals.l1_hits,
                                r.totals.l2_hits, r.totals.l3_hits, r.totals.tlb_hits,
                                r.totals.stream_prefetched, r.rounds, r.sync_events}) {
    d.add(v);
  }
  for (const auto& t : r.threads) {
    for (const std::uint64_t v : {t.mem_refs, t.barriers, t.lock_acquires, t.lock_releases,
                                  t.signals, t.waits, t.blocked_visits}) {
      d.add(v);
    }
  }
  for (const char* level : {"l1", "l2", "l3"}) d.add(h.level_stats(level));
  round.digest = d.value();
  return round;
}

void score_replay_round(const ReplayRound& round, std::uint64_t expected_refs,
                        const char* what, Results& res) {
  res.attempted += 1;
  if (round.result.totals.accesses != expected_refs) {
    res.fail(std::string(what) + ": replayed " + std::to_string(round.result.totals.accesses) +
             " refs, trace holds " + std::to_string(expected_refs));
  }
  res.check_round_digest(round.digest, 1, what);
}

void run_trace_workload(const Sizing& sizing, std::uint64_t seed, double seconds, SpanLog* log,
                        Results& res) {
  const auto names = replay_programs();
  const workload::ScaleConfig scale{};
  std::vector<std::uint8_t> image;
  for (int rep = 0; rep < sizing.trace_setup_reps; ++rep) {
    const auto t0 = Clock::now();
    auto fresh = workload::symt_from_benchmarks(names, sizing.trace_refs_per_thread, seed, scale);
    res.setup_samples.push_back(seconds_since(t0));
    if (!image.empty() && fresh != image) res.fail("recording differs between setups");
    image = std::move(fresh);
  }
  const workload::SymtTrace trace = workload::SymtTrace::from_buffer(std::move(image));
  const std::uint64_t expected_refs = workload::collect_stats(trace).mem_refs;

  auto record = [&](const ReplayRound& round) {
    res.add_round(round.wall_s, 1.0, static_cast<double>(round.result.totals.accesses));
  };
  const auto measure0 = Clock::now();
  const ReplayRound first = run_replay_round(trace, nullptr);
  score_replay_round(first, expected_refs, "replay", res);
  record(first);
  if (!log) {
    while (seconds_since(measure0) < seconds) {
      const ReplayRound round = run_replay_round(trace, nullptr);
      score_replay_round(round, expected_refs, "replay", res);
      record(round);
    }
    return;
  }

  const ReplayRound traced = run_replay_round(trace, log);
  score_replay_round(traced, expected_refs, "traced replay", res);
  const ReplayRound after = run_replay_round(trace, nullptr);
  score_replay_round(after, expected_refs, "replay", res);
  record(after);
  res.layers["trace.overhead_s"] = traced.wall_s - after.wall_s;
  // No machine, generator-driven cell or allocator runs on this workload:
  // their layer metrics read 0 here by construction.
  for (const char* name :
       {"core.phase1_s", "core.phase2_s", "core.phase2_share", "core.cell_s_p50",
        "core.cell_s_max", "core.pool_busy_ratio", "machine.sim_steps", "machine.ns_per_step",
        "machine.context_switches", "sched.votes", "sched.oracle_capture_pct"}) {
    res.layers[name] = 0.0;
  }
  for (const auto& name : kProbeAllocators) res.layers["sched.allocate_us." + name] = 0.0;

  ProbeInput in;
  in.hierarchy = replay_hierarchy();
  in.chunk = workload::ReplayOptions{}.chunk;
  in.slice = ~std::size_t{0};  // one thread per core, as the replayer maps them
  const util::Rng root(seed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    in.streams.push_back(workload::make_spec_workload(
        names[i], static_cast<cachesim::Addr>(i + 1) << 40, root.split(i), scale));
  }
  probe_substrate(in, &trace, sizing, seed, *log, res);
  compute_shares(res);
}

// --- command line and output ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload native-grid|trace-replay --seed N\n"
               "                 --seconds S [--trace 0|1] [--small] [--spans FILE]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = value() == "1";
      } else if (arg == "--small") {
        o.small = true;
      } else if (arg == "--spans") {
        o.spans_path = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload != "native-grid" && o.workload != "trace-replay") {
    usage("unknown workload '" + o.workload + "'");
  }
  return o;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_number(v[i]);
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  util::set_log_level(util::LogLevel::Warn);
  const Sizing sizing = opt.small ? small_sizing() : Sizing{};

  Results res;
  std::unique_ptr<SpanLog> log = opt.trace ? std::make_unique<SpanLog>() : nullptr;
  try {
    if (opt.workload == "trace-replay") {
      run_trace_workload(sizing, opt.seed, opt.seconds, log.get(), res);
    } else {
      run_grid_workload(sizing, opt.seed, opt.seconds, log.get(), res);
    }
  } catch (const std::exception& e) {
    res.attempted = std::max<std::uint64_t>(res.attempted, 1);
    res.fail(std::string("exception: ") + e.what(), res.attempted);
    res.failed = std::min(res.failed, res.attempted);
  }
  if (log && !opt.spans_path.empty()) log->write(opt.spans_path);

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const std::size_t workers = opt.workload == "native-grid" ? sizing.workers : 1;
  const double measured = res.measured_s();
  std::string errors = "[";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    errors += (i ? ", " : "") + json_string(res.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"workers\": %zu, \"simd\": %s, "
      "\"build_type\": %s, \"optimized\": %s, \"setup_s\": %s, \"setup_samples\": %s, "
      "\"rounds\": %zu, \"round_wall_s\": %s, \"cells_per_s\": %s, \"replay_mrefs_per_s\": %s, "
      "\"oracle_capture_pct\": %s, \"attempted\": %llu, \"failed\": %llu, \"digest\": %s, "
      "\"errors\": %s, \"layers\": %s, \"shares\": %s, \"spans\": %zu, \"spans_dropped\": %llu}\n",
      json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      workers,
      json_string(util::simd_backend_name(util::active_simd_backend())).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), optimized ? "true" : "false",
      json_number(median(res.setup_samples)).c_str(), json_list(res.setup_samples).c_str(),
      res.round_wall.size(), json_list(res.round_wall).c_str(),
      json_number(measured > 0.0 ? res.measured_cells / measured : 0.0).c_str(),
      json_number(measured > 0.0 ? res.measured_refs / measured / 1e6 : 0.0).c_str(),
      json_number(res.oracle_capture_pct).c_str(), static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed),
      json_string(res.have_digest ? hex(res.digest) : "").c_str(), errors.c_str(),
      json_map(res.layers).c_str(), json_map(res.shares).c_str(), log ? log->size() : 0,
      static_cast<unsigned long long>(log ? log->dropped() : 0));
  return 0;
}

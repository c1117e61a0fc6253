#include "workload/benchmark_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/check.hpp"

namespace symbiosis::workload {

std::uint64_t BenchmarkSpec::footprint_bytes() const noexcept {
  std::uint64_t max_region = 0;
  for (const auto& phase : phases) max_region = std::max(max_region, phase.pattern.region_bytes);
  return max_region;
}

Workload::Workload(BenchmarkSpec spec, Addr base, util::Rng rng)
    : spec_(std::move(spec)), rng_(rng) {
  if (spec_.phases.empty()) throw std::invalid_argument("Workload: no phases");
  patterns_.reserve(spec_.phases.size());
  for (const auto& phase : spec_.phases) {
    patterns_.push_back(make_pattern(phase.pattern, base, rng_));
  }
}

Step TaskStream::next() {
  cachesim::MemRef ref;
  SYM_CHECK(next_chunk(&ref, 1) == 1, "workload.stream") << "next() on a completed stream";
  return Step{ref.gap, ref.addr, ref.is_write};
}

std::size_t Workload::next_chunk(cachesim::MemRef* out, std::size_t n) {
  if (complete()) return 0;
  n = static_cast<std::size_t>(std::min<std::uint64_t>(n, spec_.total_refs - refs_issued_));
  // One fill per phase run: the chunk splits where a phase visit ends.
  for (std::size_t done = 0; done < n;) {
    const PhaseSpec& phase = spec_.phases[phase_];
    // A zero-length phase still yields one step per visit.
    const std::uint64_t phase_left = std::max<std::uint64_t>(phase.refs, 1) - refs_in_phase_;
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(n - done, phase_left));
    patterns_[phase_]->fill(rng_, phase.compute_gap, phase.write_ratio, out + done, take);
    done += take;
    refs_in_phase_ += take;
    if (refs_in_phase_ >= phase.refs) {
      refs_in_phase_ = 0;
      phase_ = (phase_ + 1) % spec_.phases.size();
    }
  }
  refs_issued_ += n;
  return n;
}

void Workload::restart() {
  refs_issued_ = 0;
  refs_in_phase_ = 0;
  phase_ = 0;
  for (auto& pattern : patterns_) pattern->reset();
}

std::uint64_t scaled_refs(double n, const ScaleConfig& scale) {
  auto show = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  if (!std::isfinite(scale.length_scale) || scale.length_scale <= 0.0) {
    throw std::invalid_argument("length_scale " + show(scale.length_scale) +
                                " must be finite and > 0");
  }
  const double scaled = n * scale.length_scale;
  if (scaled >= 0x1p64) {
    throw std::invalid_argument("length_scale " + show(scale.length_scale) + " scales " +
                                show(n) + " references past 2^64");
  }
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(scaled));
}

const std::vector<std::string>& spec2006_pool() {
  static const std::vector<std::string> pool = {
      "perlbench", "bzip2",      "gcc",     "mcf",    "gobmk",  "hmmer",
      "sjeng",     "libquantum", "h264ref", "omnetpp", "astar", "povray",
  };
  return pool;
}

namespace {

/// Round a byte count down to a whole number of lines (>= 1 line).
std::uint64_t lines_bytes(double bytes, std::uint64_t line) {
  const auto n = static_cast<std::uint64_t>(bytes / static_cast<double>(line));
  return std::max<std::uint64_t>(1, n) * line;
}

PatternSpec pat(PatternKind kind, double region_bytes, const ScaleConfig& s) {
  PatternSpec p;
  p.kind = kind;
  p.region_bytes = lines_bytes(region_bytes, s.line_bytes);
  p.line_bytes = s.line_bytes;
  return p;
}

}  // namespace

BenchmarkSpec make_spec_benchmark(const std::string& name, const ScaleConfig& s) {
  const auto l2 = static_cast<double>(s.l2_bytes);
  BenchmarkSpec b;
  b.name = name;

  if (name == "povray") {
    // Ray tracer: compute-bound, tiny hot data (§5.1.1: "does not depend
    // much on the L2").
    PatternSpec p = pat(PatternKind::Zipf, 0.06 * l2, s);
    p.zipf_skew = 1.1;
    b.phases.push_back({p, 40.0, 0.15, scaled_refs(60'000, s)});
    b.total_refs = scaled_refs(700'000, s);
  } else if (name == "gobmk") {
    // Go engine: branchy compute with a modest board/state working set.
    PatternSpec p = pat(PatternKind::Zipf, 0.18 * l2, s);
    p.zipf_skew = 0.9;
    b.phases.push_back({p, 22.0, 0.25, scaled_refs(60'000, s)});
    b.total_refs = scaled_refs(1'000'000, s);
  } else if (name == "sjeng") {
    // Chess search: hash-table probes with decent temporal locality.
    PatternSpec p = pat(PatternKind::StackDistance, 0.3 * l2, s);
    p.locality = 0.85;
    b.phases.push_back({p, 18.0, 0.3, scaled_refs(70'000, s)});
    b.total_refs = scaled_refs(1'000'000, s);
  } else if (name == "perlbench") {
    // Interpreter: skewed hot bytecode/data structures.
    PatternSpec p = pat(PatternKind::Zipf, 0.4 * l2, s);
    p.zipf_skew = 0.9;
    b.phases.push_back({p, 14.0, 0.3, scaled_refs(80'000, s)});
    b.total_refs = scaled_refs(1'100'000, s);
  } else if (name == "h264ref") {
    // Video encoder: frame-strided scans plus a hot context.
    PatternSpec scan = pat(PatternKind::Strided, 0.4 * l2, s);
    scan.stride_bytes = 2 * s.line_bytes;
    PatternSpec ctx = pat(PatternKind::Zipf, 0.12 * l2, s);
    ctx.zipf_skew = 1.0;
    b.phases.push_back({scan, 12.0, 0.35, scaled_refs(50'000, s)});
    b.phases.push_back({ctx, 16.0, 0.25, scaled_refs(40'000, s)});
    b.total_refs = scaled_refs(1'200'000, s);
  } else if (name == "gcc") {
    // Compiler: phase churn between a hot IR set and sweeping passes.
    PatternSpec hot = pat(PatternKind::Zipf, 0.25 * l2, s);
    hot.zipf_skew = 0.8;
    PatternSpec sweep = pat(PatternKind::Random, 0.8 * l2, s);
    b.phases.push_back({hot, 12.0, 0.35, scaled_refs(60'000, s)});
    b.phases.push_back({sweep, 10.0, 0.35, scaled_refs(30'000, s)});
    b.total_refs = scaled_refs(850'000, s);
  } else if (name == "bzip2") {
    // Block compressor: sequential block scans plus sort tables.
    PatternSpec seq = pat(PatternKind::Sequential, 0.6 * l2, s);
    PatternSpec tables = pat(PatternKind::Zipf, 0.3 * l2, s);
    tables.zipf_skew = 0.7;
    b.phases.push_back({seq, 9.0, 0.4, scaled_refs(50'000, s)});
    b.phases.push_back({tables, 11.0, 0.35, scaled_refs(50'000, s)});
    b.total_refs = scaled_refs(1'200'000, s);
  } else if (name == "astar") {
    // Path search: dependent graph walk over a medium region, interleaved
    // with heap scans and map reads so only part of its time is exposed to
    // chase thrashing (keeps its degradation in the paper's band).
    PatternSpec p = pat(PatternKind::PointerChase, 0.45 * l2, s);
    PatternSpec heap = pat(PatternKind::Zipf, 0.25 * l2, s);
    heap.zipf_skew = 0.8;
    PatternSpec scan = pat(PatternKind::Stream, 1.2 * l2, s);
    b.phases.push_back({p, 12.0, 0.25, scaled_refs(25'000, s)});
    b.phases.push_back({heap, 14.0, 0.3, scaled_refs(55'000, s)});
    b.phases.push_back({scan, 10.0, 0.25, scaled_refs(20'000, s)});
    b.total_refs = scaled_refs(1'000'000, s);
  } else if (name == "hmmer") {
    // Profile HMM search: §5.1.1 calls it bandwidth-bound — "low locality
    // yet high memory traffic"; schedule-insensitive because its streaming
    // misses are its own. The database scan comes in bursts between probes
    // of the hot profile matrices, so its shared-cache OCCUPANCY stays
    // moderate (in the paper's data libquantum, not hmmer, is the
    // destructive occupant).
    PatternSpec scan = pat(PatternKind::Stream, 8.0 * l2, s);
    PatternSpec profile = pat(PatternKind::Zipf, 0.08 * l2, s);
    profile.zipf_skew = 0.9;
    b.phases.push_back({scan, 5.0, 0.2, scaled_refs(12'000, s)});
    b.phases.push_back({profile, 6.0, 0.25, scaled_refs(88'000, s)});
    b.total_refs = scaled_refs(900'000, s);
  } else if (name == "libquantum") {
    // Quantum register simulation: streams a huge array — the footprint
    // aggressor of Fig 3(b) — with a shorter reuse phase that makes its own
    // runtime mildly schedule-sensitive (Table 1 shows it gaining 11%).
    PatternSpec stream = pat(PatternKind::Stream, 4.0 * l2, s);
    PatternSpec reuse = pat(PatternKind::Strided, 0.45 * l2, s);
    reuse.stride_bytes = s.line_bytes;
    b.phases.push_back({stream, 3.0, 0.5, scaled_refs(60'000, s)});
    b.phases.push_back({reuse, 4.0, 0.4, scaled_refs(40'000, s)});
    b.total_refs = scaled_refs(750'000, s);
  } else if (name == "omnetpp") {
    // Discrete-event simulator: large skewed heap — sensitive victim
    // (49% max improvement in Fig 10).
    PatternSpec p = pat(PatternKind::Zipf, 1.2 * l2, s);
    p.zipf_skew = 0.9;
    b.phases.push_back({p, 7.0, 0.35, scaled_refs(90'000, s)});
    b.total_refs = scaled_refs(900'000, s);
  } else if (name == "mcf") {
    // Network simplex: pointer-chase that just fits the L2 when running
    // alone and thrashes when sharing — the most sensitive program
    // (54% max improvement in Fig 10).
    PatternSpec chase = pat(PatternKind::PointerChase, 0.6 * l2, s);
    PatternSpec hot = pat(PatternKind::Zipf, 0.3 * l2, s);
    hot.zipf_skew = 1.0;
    PatternSpec cold = pat(PatternKind::Stream, 2.0 * l2, s);
    b.phases.push_back({chase, 4.0, 0.3, scaled_refs(35'000, s)});
    b.phases.push_back({hot, 6.0, 0.3, scaled_refs(45'000, s)});
    b.phases.push_back({cold, 4.0, 0.3, scaled_refs(20'000, s)});
    b.total_refs = scaled_refs(1'100'000, s);
  } else {
    throw std::invalid_argument("unknown SPEC2006 model: " + name);
  }
  return b;
}

std::unique_ptr<Workload> make_spec_workload(const std::string& name, Addr base, util::Rng rng,
                                             const ScaleConfig& scale) {
  return std::make_unique<Workload>(make_spec_benchmark(name, scale), base, rng);
}

}  // namespace symbiosis::workload

#include "workload/parsec_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace symbiosis::workload {

ParsecThreadStream::ParsecThreadStream(const MtBenchmarkSpec& spec, Addr process_base,
                                       std::size_t tid, util::Rng rng)
    : spec_(spec), name_(spec.name + ".t" + std::to_string(tid)), tid_(tid), rng_(rng) {
  if (tid >= spec.threads) throw std::invalid_argument("ParsecThreadStream: tid out of range");
  const Addr private_base =
      process_base + spec.shared_pattern.region_bytes + tid * spec.private_pattern.region_bytes;
  shared_ = make_pattern(spec.shared_pattern, process_base, rng_);
  private_ = make_pattern(spec.private_pattern, private_base, rng_);
}

Step ParsecThreadStream::next() {
  Step step;
  if (spec_.compute_gap > 0.0) {
    const double gap = rng_.next_exponential(1.0 / spec_.compute_gap);
    step.compute_instr = static_cast<std::uint32_t>(std::min(gap, spec_.compute_gap * 8.0));
  }
  const bool use_shared = rng_.next_bool(spec_.share_prob);
  step.addr = use_shared ? shared_->next(rng_) : private_->next(rng_);
  step.is_write = rng_.next_bool(spec_.write_ratio);
  ++refs_issued_;
  return step;
}

void ParsecThreadStream::restart() {
  refs_issued_ = 0;
  shared_->reset();
  private_->reset();
}

const std::vector<std::string>& parsec_pool() {
  static const std::vector<std::string> pool = {
      "blackscholes", "bodytrack",    "canneal",  "dedup",
      "ferret",       "fluidanimate", "streamcluster", "swaptions",
  };
  return pool;
}

namespace {

PatternSpec pat(PatternKind kind, double region_bytes, const ScaleConfig& s) {
  PatternSpec p;
  p.kind = kind;
  const auto lines = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(region_bytes / static_cast<double>(s.line_bytes)));
  p.region_bytes = lines * s.line_bytes;
  p.line_bytes = s.line_bytes;
  return p;
}

}  // namespace

MtBenchmarkSpec make_parsec_benchmark(const std::string& name, const ScaleConfig& s) {
  const auto l2 = static_cast<double>(s.l2_bytes);
  MtBenchmarkSpec b;
  b.name = name;
  b.threads = 4;

  if (name == "blackscholes") {
    // Option pricing: embarrassingly parallel, tiny per-thread data.
    b.shared_pattern = pat(PatternKind::Zipf, 0.02 * l2, s);
    b.private_pattern = pat(PatternKind::Sequential, 0.05 * l2, s);
    b.share_prob = 0.1;
    b.compute_gap = 30.0;
    b.write_ratio = 0.2;
    b.refs_per_thread = scaled_refs(200'000, s);
  } else if (name == "bodytrack") {
    // Computer vision: moderate shared model state.
    b.shared_pattern = pat(PatternKind::Zipf, 0.3 * l2, s);
    b.shared_pattern.zipf_skew = 0.8;
    b.private_pattern = pat(PatternKind::Random, 0.1 * l2, s);
    b.share_prob = 0.45;
    b.compute_gap = 15.0;
    b.write_ratio = 0.3;
    b.refs_per_thread = scaled_refs(240'000, s);
  } else if (name == "canneal") {
    // Simulated annealing over a big netlist: the shared region dwarfs any
    // cache (hundreds of MB in the real program), so canneal misses
    // regardless of scheduling — high traffic, low schedule sensitivity.
    b.shared_pattern = pat(PatternKind::Random, 3.0 * l2, s);
    b.private_pattern = pat(PatternKind::Zipf, 0.05 * l2, s);
    b.share_prob = 0.8;
    b.compute_gap = 8.0;
    b.write_ratio = 0.35;
    b.refs_per_thread = scaled_refs(260'000, s);
  } else if (name == "dedup") {
    // Pipeline compression: streams input privately, small shared hash.
    b.shared_pattern = pat(PatternKind::Zipf, 0.1 * l2, s);
    b.private_pattern = pat(PatternKind::Stream, 2.0 * l2, s);
    b.share_prob = 0.25;
    b.compute_gap = 8.0;
    b.write_ratio = 0.4;
    b.refs_per_thread = scaled_refs(260'000, s);
  } else if (name == "ferret") {
    // Content-based search pipeline: the most cache-sensitive PARSEC model
    // (Fig 12: 10.1% max improvement) — its shared tables just fit the L2.
    b.shared_pattern = pat(PatternKind::Zipf, 0.5 * l2, s);
    b.shared_pattern.zipf_skew = 0.9;
    b.private_pattern = pat(PatternKind::Random, 0.1 * l2, s);
    b.share_prob = 0.55;
    b.compute_gap = 14.0;
    b.write_ratio = 0.25;
    b.refs_per_thread = scaled_refs(250'000, s);
  } else if (name == "fluidanimate") {
    // Fluid dynamics: strided grid sweeps with halo sharing.
    b.shared_pattern = pat(PatternKind::Strided, 0.5 * l2, s);
    b.shared_pattern.stride_bytes = 2 * s.line_bytes;
    b.private_pattern = pat(PatternKind::Sequential, 0.15 * l2, s);
    b.share_prob = 0.5;
    b.compute_gap = 14.0;
    b.write_ratio = 0.35;
    b.refs_per_thread = scaled_refs(240'000, s);
  } else if (name == "streamcluster") {
    // Online clustering: streams points, hot shared centers.
    b.shared_pattern = pat(PatternKind::Zipf, 0.08 * l2, s);
    b.shared_pattern.zipf_skew = 1.0;
    b.private_pattern = pat(PatternKind::Stream, 1.5 * l2, s);
    b.share_prob = 0.3;
    b.compute_gap = 7.0;
    b.write_ratio = 0.2;
    b.refs_per_thread = scaled_refs(260'000, s);
  } else if (name == "swaptions") {
    // Monte-Carlo pricing: compute-bound, tiny state.
    b.shared_pattern = pat(PatternKind::Zipf, 0.03 * l2, s);
    b.private_pattern = pat(PatternKind::Zipf, 0.04 * l2, s);
    b.share_prob = 0.15;
    b.compute_gap = 35.0;
    b.write_ratio = 0.2;
    b.refs_per_thread = scaled_refs(200'000, s);
  } else {
    throw std::invalid_argument("unknown PARSEC model: " + name);
  }
  return b;
}

std::vector<std::unique_ptr<ParsecThreadStream>> make_parsec_threads(const MtBenchmarkSpec& spec,
                                                                     Addr process_base,
                                                                     util::Rng rng) {
  std::vector<std::unique_ptr<ParsecThreadStream>> threads;
  threads.reserve(spec.threads);
  for (std::size_t t = 0; t < spec.threads; ++t) {
    threads.push_back(
        std::make_unique<ParsecThreadStream>(spec, process_base, t, rng.split(t + 1)));
  }
  return threads;
}

}  // namespace symbiosis::workload

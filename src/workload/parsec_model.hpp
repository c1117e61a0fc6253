// parsec_model.hpp — multi-threaded PARSEC-like workload models.
//
// §3.3.4 / §5.1.3: the paper runs 4-thread PARSEC programs. The property
// the scheduler cares about is that threads of ONE process share data
// (their mutual "interference" is really sharing), while threads of
// different processes genuinely contend. Each model therefore gives every
// thread a shared region (one per process) and a private region, mixed by
// a share probability, plus the usual compute gap / write ratio.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/benchmark_model.hpp"

namespace symbiosis::workload {

/// Declarative multi-threaded benchmark description.
struct MtBenchmarkSpec {
  std::string name;
  std::size_t threads = 4;
  PatternSpec shared_pattern;   ///< one region shared by all threads
  PatternSpec private_pattern;  ///< per-thread region
  double share_prob = 0.5;      ///< P(a reference targets the shared region)
  double compute_gap = 12.0;
  double write_ratio = 0.3;
  std::uint64_t refs_per_thread = 300'000;

  /// Total address-space bytes of the process (shared + all privates).
  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept {
    return shared_pattern.region_bytes + threads * private_pattern.region_bytes;
  }
};

/// One thread of a multi-threaded benchmark (a schedulable TaskStream).
class ParsecThreadStream final : public TaskStream {
 public:
  /// @param process_base line-aligned base of the whole process's space;
  ///                     the shared region sits at the base, thread @p tid's
  ///                     private region after it.
  ParsecThreadStream(const MtBenchmarkSpec& spec, Addr process_base, std::size_t tid,
                     util::Rng rng);

  std::size_t next_chunk(cachesim::MemRef* out, std::size_t n) override;
  [[nodiscard]] bool complete() const override { return refs_issued_ >= spec_.refs_per_thread; }
  void restart() override;
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::uint64_t refs_issued() const override { return refs_issued_; }
  [[nodiscard]] std::uint64_t total_refs() const override { return spec_.refs_per_thread; }

  [[nodiscard]] std::size_t tid() const noexcept { return tid_; }
  [[nodiscard]] const MtBenchmarkSpec& spec() const noexcept { return spec_; }

 private:
  MtBenchmarkSpec spec_;
  std::string name_;
  std::size_t tid_;
  util::Rng rng_;
  std::unique_ptr<AccessPattern> shared_;
  std::unique_ptr<AccessPattern> private_;
  std::uint64_t refs_issued_ = 0;
};

/// The 8-program PARSEC stand-in pool, in a fixed order.
[[nodiscard]] const std::vector<std::string>& parsec_pool();

/// Build the scaled spec for a pool program; throws on unknown names.
[[nodiscard]] MtBenchmarkSpec make_parsec_benchmark(const std::string& name,
                                                    const ScaleConfig& scale = {});

/// Instantiate all threads of a PARSEC model at @p process_base.
[[nodiscard]] std::vector<std::unique_ptr<ParsecThreadStream>> make_parsec_threads(
    const MtBenchmarkSpec& spec, Addr process_base, util::Rng rng);

}  // namespace symbiosis::workload

// benchmark_model.hpp — synthetic models of the paper's benchmark pool.
//
// A benchmark is a cycled sequence of phases; each phase pairs an address
// pattern with a compute gap (mean non-memory instructions per reference)
// and a write ratio. The 12 SPEC CPU2006 stand-ins are parameterised by
// their published cache-behaviour classes, scaled to the simulated L2:
//
//   mcf         pointer-chase ~0.8×L2 + hot Zipf — the most cache-SENSITIVE
//   omnetpp     large Zipf ~1.5×L2 — sensitive victim
//   libquantum  stream ≫L2 + a reuse phase — footprint AGGRESSOR
//   hmmer       stream ≫L2, high traffic, no locality — insensitive (§5.1.1)
//   povray      tiny hot set, compute-bound — insensitive (§5.1.1)
//   perlbench/gobmk/sjeng/gcc/bzip2/astar/h264ref — mixed middle classes
//
// The class structure — not absolute runtimes — is what the paper's
// scheduling results depend on (see DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/access_pattern.hpp"

namespace symbiosis::workload {

/// One simulated instruction step: @p compute_instr back-to-back non-memory
/// instructions followed by one memory reference.
struct Step {
  std::uint32_t compute_instr = 0;
  Addr addr = 0;
  bool is_write = false;
};

/// Uniform interface the machine scheduler runs: anything that yields Steps.
class TaskStream {
 public:
  virtual ~TaskStream() = default;
  [[nodiscard]] virtual Step next() = 0;
  /// True once total_refs references have been issued ("run to completion").
  [[nodiscard]] virtual bool complete() const = 0;
  /// Restart from scratch (the paper restarts finished benchmarks until the
  /// longest of the mix completes).
  virtual void restart() = 0;
  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::uint64_t refs_issued() const = 0;
  [[nodiscard]] virtual std::uint64_t total_refs() const = 0;
};

/// The streams of one process, in thread order: one for a single-threaded
/// program, one per thread for a multi-threaded one.
using StreamGroup = std::vector<std::unique_ptr<TaskStream>>;

/// One phase of a benchmark.
struct PhaseSpec {
  PatternSpec pattern;
  double compute_gap = 10.0;   ///< mean non-memory instructions per reference
  double write_ratio = 0.3;
  std::uint64_t refs = 50'000; ///< references spent in this phase per visit
};

/// Declarative benchmark description (value type).
struct BenchmarkSpec {
  std::string name;
  std::vector<PhaseSpec> phases;       ///< cycled until total_refs
  std::uint64_t total_refs = 1'000'000;

  /// Address-space bytes the benchmark touches (max phase region).
  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept;
};

/// Live single-threaded benchmark instance.
class Workload final : public TaskStream {
 public:
  /// @param base line-aligned base address (the process's address space)
  Workload(BenchmarkSpec spec, Addr base, util::Rng rng);

  [[nodiscard]] Step next() override;
  [[nodiscard]] bool complete() const override { return refs_issued_ >= spec_.total_refs; }
  void restart() override;
  [[nodiscard]] const std::string& name() const override { return spec_.name; }
  [[nodiscard]] std::uint64_t refs_issued() const override { return refs_issued_; }
  [[nodiscard]] std::uint64_t total_refs() const override { return spec_.total_refs; }

  [[nodiscard]] const BenchmarkSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t current_phase() const noexcept { return phase_; }

 private:
  BenchmarkSpec spec_;
  util::Rng rng_;
  std::vector<std::unique_ptr<AccessPattern>> patterns_;  // one per phase
  std::size_t phase_ = 0;
  std::uint64_t refs_in_phase_ = 0;
  std::uint64_t refs_issued_ = 0;
};

/// Workload-scaling knobs shared by all profiles.
struct ScaleConfig {
  /// Reference L2 capacity; profile regions are fractions/multiples of it.
  /// Keep equal to the simulated machine's L2 size.
  std::uint64_t l2_bytes = 256 * 1024;
  /// Multiplier on every profile's reference counts (1.0 = default length).
  double length_scale = 1.0;
  std::uint64_t line_bytes = 64;
};

/// @p n references scaled by @p scale.length_scale, at least 1: every
/// profile's reference counts go through here. Throws std::invalid_argument,
/// naming the value, unless length_scale is finite and > 0 and the scaled
/// count fits in 64 bits.
[[nodiscard]] std::uint64_t scaled_refs(double n, const ScaleConfig& scale);

/// The paper's 12-program SPEC CPU2006 stand-in pool, in a fixed order.
[[nodiscard]] const std::vector<std::string>& spec2006_pool();

/// Build the scaled spec for a pool program; throws std::invalid_argument
/// for unknown names.
[[nodiscard]] BenchmarkSpec make_spec_benchmark(const std::string& name,
                                                const ScaleConfig& scale = {});

/// Convenience: instantiate a pool program at @p base.
[[nodiscard]] std::unique_ptr<Workload> make_spec_workload(const std::string& name, Addr base,
                                                           util::Rng rng,
                                                           const ScaleConfig& scale = {});

}  // namespace symbiosis::workload

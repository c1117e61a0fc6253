// signature.hpp — the per-process (or per-VM) signature record.
//
// §3.2: for each application the OS/hypervisor keeps a (2 + N)-entry
// structure — last core, occupancy weight, and symbiosis with each of the
// N cores — updated at every context switch from the FilterUnit's RBV.
// ProcessSignature keeps the last core and weight as they are, and the
// weight and per-core symbiosis as window means, so the user-level
// allocator (invoked every ~100 ms, i.e. every many context switches) sees
// a stable aggregate rather than one noisy quantum.
#pragma once

#include <cstdint>
#include <vector>

namespace symbiosis::sig {

/// One context-switch-out measurement.
struct SignatureSample {
  std::size_t core = 0;                 ///< core the process just ran on
  std::size_t occupancy_weight = 0;     ///< popcount(RBV)
  std::vector<std::size_t> symbiosis;   ///< popcount(RBV XOR CF[c]) per core c
};

/// Aggregated signature state carried in a process/VM control block.
class ProcessSignature {
 public:
  explicit ProcessSignature(std::size_t num_cores = 0) { resize(num_cores); }

  void resize(std::size_t num_cores);
  [[nodiscard]] std::size_t num_cores() const noexcept { return sym_sum_.size(); }

  /// Record one switch-out sample (updates latest values and window means).
  void record(const SignatureSample& sample);

  /// Drop windowed accumulation (latest values survive). The allocator
  /// calls this after each invocation so each decision window is fresh.
  void clear_window() noexcept;

  // --- latest values ---
  [[nodiscard]] std::size_t last_core() const noexcept { return last_core_; }
  [[nodiscard]] std::size_t latest_occupancy() const noexcept { return latest_occupancy_; }

  // --- windowed means (what the allocator consumes) ---
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] double mean_occupancy() const noexcept;
  [[nodiscard]] double mean_symbiosis(std::size_t core) const;

 private:
  std::size_t last_core_ = 0;
  std::size_t latest_occupancy_ = 0;

  std::size_t samples_ = 0;
  double occ_sum_ = 0.0;
  std::vector<double> sym_sum_;
};

}  // namespace symbiosis::sig

#include "sig/signature.hpp"

#include "util/check.hpp"

namespace symbiosis::sig {

void ProcessSignature::resize(std::size_t num_cores) {
  sym_sum_.assign(num_cores, 0.0);
  last_core_ = 0;
  latest_occupancy_ = 0;
  samples_ = 0;
  occ_sum_ = 0.0;
}

void ProcessSignature::record(const SignatureSample& sample) {
  SYM_CHECK_EQ(sample.symbiosis.size(), sym_sum_.size(), "sig.signature")
      << "sample core count disagrees with resize()";
  last_core_ = sample.core;
  latest_occupancy_ = sample.occupancy_weight;

  ++samples_;
  occ_sum_ += static_cast<double>(sample.occupancy_weight);
  for (std::size_t c = 0; c < sample.symbiosis.size(); ++c) {
    // §3.3.2 uses symbiosis with EVERY core, the process's own included
    // (the RBV-vs-own-CF comparison measures co-resident footprints from
    // earlier quanta on the same core).
    sym_sum_[c] += static_cast<double>(sample.symbiosis[c]);
  }
}

void ProcessSignature::clear_window() noexcept {
  samples_ = 0;
  occ_sum_ = 0.0;
  for (auto& s : sym_sum_) s = 0.0;
}

double ProcessSignature::mean_occupancy() const noexcept {
  return samples_ ? occ_sum_ / static_cast<double>(samples_) : 0.0;
}

double ProcessSignature::mean_symbiosis(std::size_t core) const {
  const double sum = sym_sum_.at(core);
  return samples_ ? sum / static_cast<double>(samples_) : 0.0;
}

}  // namespace symbiosis::sig

#include "util/simd.hpp"

namespace symbiosis::util {

std::string_view simd_backend_name(SimdBackend /*backend*/) noexcept { return "scalar"; }

SimdBackend active_simd_backend() noexcept { return SimdBackend::Scalar; }

}  // namespace symbiosis::util

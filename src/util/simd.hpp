// simd.hpp — the SIMD backend name in perfbench's environment stamp.
//
// The signature word loops (sig/bitvector.cpp) are scalar std::popcount
// loops: the signature unit is read only at context switches, so no vector
// backend is compiled, detected or selectable (DESIGN.md §15). The one
// backend stays named so a benchmark record says which code it timed.
#pragma once

#include <string_view>

namespace symbiosis::util {

/// Instruction-set families the signature word loops are compiled for.
enum class SimdBackend { Scalar };

/// Lower-case name as used in benchmark environment stamps.
[[nodiscard]] std::string_view simd_backend_name(SimdBackend backend) noexcept;

/// The backend the signature word loops run on.
[[nodiscard]] SimdBackend active_simd_backend() noexcept;

}  // namespace symbiosis::util

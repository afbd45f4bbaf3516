// The kernel tables the parity tests run on (DESIGN.md §K): every table
// this CPU supports, so each kernel-vs-reference pin covers each one.
#pragma once

#include <vector>

#include "nn/kernels.hpp"

namespace rnx::test {

/// Every kernel table this CPU can run: scalar, then avx2+fma and avx512
/// where supported (nn::kernels::supported_backends()).
inline std::vector<const nn::kernels::Backend*> all_tables() {
  const auto all = nn::kernels::supported_backends();
  return {all.begin(), all.end()};
}

/// The SIMD tables alone; empty on a CPU that runs only scalar.
inline std::vector<const nn::kernels::Backend*> simd_tables() {
  const auto all = nn::kernels::supported_backends();
  return {all.begin() + 1, all.end()};
}

}  // namespace rnx::test

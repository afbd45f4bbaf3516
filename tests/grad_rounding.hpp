// The tolerance of the GRU backward pins for grads the backward kernel's
// route sums in another order than the composed route:
//   * the x side (dx, the Wx* grads and the bias grads), which the
//     kernel's caller sums once per x row instead of once per stepped row;
//   * dh of a cell whose input width is not a multiple of 4: the composed
//     route's AVX2 matmul_nt_acc sums the last in % 4 columns of its
//     stacked [x|h] product as one FMA chain, the kernel in 4 lanes; so
//     in a sweep, every grad an earlier position computes from that dh.
// Both agree to rounding, not bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "nn/tensor.hpp"

namespace rnx::test {

/// got and want have one shape and differ by at most 1e-13 of want's
/// largest |value| in every element.
inline ::testing::AssertionResult within_rounding(const nn::Tensor& got,
                                                  const nn::Tensor& want) {
  if (!got.same_shape(want))
    return ::testing::AssertionFailure() << "shapes differ";
  double scale = 0.0;
  for (const double v : want.flat()) scale = std::max(scale, std::abs(v));
  for (std::size_t k = 0; k < got.size(); ++k)
    if (!(std::abs(got.flat()[k] - want.flat()[k]) <= 1e-13 * scale))
      return ::testing::AssertionFailure()
             << "element " << k << ": " << got.flat()[k] << " vs "
             << want.flat()[k] << " (largest |value| " << scale << ")";
  return ::testing::AssertionSuccess();
}

}  // namespace rnx::test

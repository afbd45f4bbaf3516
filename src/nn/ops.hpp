// Differentiable operations on Vars.
//
// The set is exactly what RouteNet-style message passing needs:
//  * dense algebra: matmul, add, add_bias, sub, mul, affine;
//  * nonlinearities: sigmoid, tanh, relu, softplus;
//  * graph plumbing: gather_rows (select entity states by index),
//    scatter_rows (functional row update for the position-vectorized RNN),
//    segment_sum (aggregate messages per target entity), concat_cols;
//  * reductions and regression losses.
//
// Every op's backward is verified against central differences in
// tests/nn_gradcheck_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/autograd.hpp"

namespace rnx::nn {

using Index = std::uint32_t;

/// Leaf Var wrapping a constant (no gradient).
[[nodiscard]] Var constant(Tensor t);

// -- elementwise / dense -------------------------------------------------
[[nodiscard]] Var add(const Var& a, const Var& b);        ///< same shape
[[nodiscard]] Var sub(const Var& a, const Var& b);
[[nodiscard]] Var mul(const Var& a, const Var& b);        ///< Hadamard
[[nodiscard]] Var scale(const Var& a, double c);
/// alpha * a + beta (elementwise); one_minus(x) == affine(x, -1, 1).
[[nodiscard]] Var affine(const Var& a, double alpha, double beta);
[[nodiscard]] Var matmul(const Var& a, const Var& b);
/// a (R x C) + bias (1 x C) broadcast over rows.
[[nodiscard]] Var add_bias(const Var& a, const Var& bias);

[[nodiscard]] Var sigmoid(const Var& a);
[[nodiscard]] Var tanh_op(const Var& a);
[[nodiscard]] Var relu(const Var& a);
[[nodiscard]] Var softplus(const Var& a);

// -- graph plumbing --------------------------------------------------------
/// y[i] = a[idx[i]] (row gather); rows may repeat.
[[nodiscard]] Var gather_rows(const Var& a, std::vector<Index> idx);
/// out = copy(base); out[idx[i]] = rows[i].  Indices must be distinct
/// (throws std::invalid_argument otherwise).
[[nodiscard]] Var scatter_rows(const Var& base, std::vector<Index> idx,
                               const Var& rows);
/// out[s] = sum of a's rows i with seg[i] == s; out has num_segments rows.
/// Segments may be empty (zero rows).
[[nodiscard]] Var segment_sum(const Var& a, std::vector<Index> seg,
                              std::size_t num_segments);
// Span overloads for arena-backed index sets (core::MpPlan).  Without
// a tape (NoGradGuard) they compute straight from the span; a recorded
// tape's backward closure needs owned storage, so only then is the span
// copied into a vector.
[[nodiscard]] Var gather_rows(const Var& a, std::span<const Index> idx);
[[nodiscard]] Var scatter_rows(const Var& base, std::span<const Index> idx,
                               const Var& rows);
[[nodiscard]] Var segment_sum(const Var& a, std::span<const Index> seg,
                              std::size_t num_segments);
/// segment_sum over rows taken by index: out[seg[i]] += a[rows[i]], in
/// ascending i — bitwise the segment_sum of gather_rows(a, rows).
[[nodiscard]] Var segment_sum(const Var& a, std::span<const Index> rows,
                              std::span<const Index> seg,
                              std::size_t num_segments);
/// [a | b] column concatenation (same row count).
[[nodiscard]] Var concat_cols(const Var& a, const Var& b);

// -- reductions / losses ----------------------------------------------------
[[nodiscard]] Var sum_all(const Var& a);   ///< 1x1
[[nodiscard]] Var mean_all(const Var& a);  ///< 1x1
/// Mean squared error against a constant target (same shape).
[[nodiscard]] Var mse_loss(const Var& pred, const Tensor& target);
/// Mean absolute error.
[[nodiscard]] Var mae_loss(const Var& pred, const Tensor& target);
/// Huber loss with threshold delta (> 0).
[[nodiscard]] Var huber_loss(const Var& pred, const Tensor& target,
                             double delta = 1.0);

}  // namespace rnx::nn

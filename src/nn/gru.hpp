// Gated recurrent unit cell.
//
// RouteNet uses recurrent units for all three state-update functions
// (RNN_P over path sequences, RNN_L for link updates, RNN_N for node
// updates — the latter introduced by this paper); GRUs are the choice in
// the reference implementation.  Gate convention follows PyTorch:
//   z = sigmoid(x Wxz + h Whz + bz)          (update gate)
//   r = sigmoid(x Wxr + h Whr + br)          (reset gate)
//   n = tanh  (x Wxn + (r .* h) Whn + bn)    (candidate)
//   h' = (1 - z) .* n + z .* h
//
// step() runs a fused kernel: the gate pre-activations are accumulated
// with batched matmuls into pooled scratch tensors, the gate
// nonlinearities and the state blend happen in one elementwise pass, and
// the whole step records a single tape node with a hand-written backward
// (~15 tape nodes in the op-by-op formulation).  step_composed() keeps
// the original composition; tests/gru_fused_test.cpp pins the two
// against each other and against central differences.
//
// With no tape recorded (NoGradGuard), the fused path runs the backend's
// whole-step kernel when it has one for this width (kernels::Backend::
// gru_step, bitwise-equal to the composed passes) — see DESIGN.md §K.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace rnx::nn {

class GRUCell {
 public:
  /// Weights Glorot-initialized from rng; biases zero.
  GRUCell(std::size_t input_dim, std::size_t hidden_dim,
          util::RngStream& rng, std::string name = "gru");

  /// One step: x is (R x input_dim), h is (R x hidden_dim); returns the
  /// new hidden state (R x hidden_dim).  Differentiable through both.
  /// Dispatches to the fused kernel unless set_fused(false); with no
  /// tape recorded that is the backend's whole-step kernel when it has
  /// one for this width.
  [[nodiscard]] Var step(const Var& x, const Var& h) const;

  /// One step over rows taken by index, as the position-vectorized path
  /// RNN runs it: x = src[elem_ids], h = hidden[path_rows], and the new
  /// states replace hidden's path_rows.  With a tape this records
  /// exactly gather_rows -> step -> scatter_rows (hidden becomes the
  /// scatter output) and returns the (R x hidden_dim) new rows.  Without
  /// one, hidden's rows are updated in place — after a copy if another
  /// Var shares hidden's tensor — and the result is an undefined Var: the
  /// new rows are hidden's path_rows.  Throws std::out_of_range for an id
  /// or row out of range and std::invalid_argument for a repeated row,
  /// before any state is read.
  [[nodiscard]] Var step_indexed(const Var& src,
                                 std::span<const Index> elem_ids, Var& hidden,
                                 std::span<const Index> path_rows) const;

  /// The op-by-op composition of the same function (reference path for
  /// gradcheck parity and the speedup ablation).
  [[nodiscard]] Var step_composed(const Var& x, const Var& h) const;

  /// Toggle the fused fast path (default on).
  void set_fused(bool fused) noexcept { fused_ = fused; }
  [[nodiscard]] bool fused() const noexcept { return fused_; }

  [[nodiscard]] std::size_t input_dim() const noexcept { return in_; }
  [[nodiscard]] std::size_t hidden_dim() const noexcept { return hid_; }
  /// Trainable parameters as (name, Var) pairs; Vars share the cell's
  /// tape nodes, so optimizer updates are visible to the cell.
  [[nodiscard]] std::vector<std::pair<std::string, Var>> named_params() const;

 private:
  [[nodiscard]] Var step_fused(const Var& x, const Var& h) const;
  /// The backend's whole-step kernel (kernels::Backend::gru_step) on raw
  /// rows; false when the active backend has none for this width.
  bool step_kernel(double* y, const double* x, const Index* x_rows,
                   const double* h, const Index* h_rows,
                   std::size_t rows) const;

  std::size_t in_;
  std::size_t hid_;
  std::string name_;
  bool fused_ = true;
  Var wxz_, whz_, bz_;
  Var wxr_, whr_, br_;
  Var wxn_, whn_, bn_;
};

}  // namespace rnx::nn

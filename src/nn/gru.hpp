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
// step() runs a fused kernel: one tape node with a hand-written backward
// (~15 tape nodes in the op-by-op formulation).  step_composed() keeps
// the original composition; tests/gru_fused_test.cpp pins the two
// against each other and against central differences.
//
// The fused step runs the backend's whole-step kernels when it has them
// for this width (kernels::Backend::gru_step and gru_step_backward, AVX2
// at H in {4, 8, 12, 16}), else matmul kernels and fused gate/blend
// passes.  Both routes give the same bits on one backend, values and
// gradients alike (DESIGN.md §K).  Without a tape the kernel saves
// nothing; with one it also stores z, r and n for the backward.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace rnx::nn {

/// The nine parameters of one GRU cell.  The Vars share the cell's tape
/// nodes, so a copy keeps them alive and sees optimizer updates.
struct GruParams {
  Var wxz, whz, bz;
  Var wxr, whr, br;
  Var wxn, whn, bn;

  [[nodiscard]] kernels::GruWeights weights() const;
  /// The grad buffers, allocated on first use.
  [[nodiscard]] kernels::GruGrads grads();
};

class GRUCell {
 public:
  /// Weights Glorot-initialized from rng; biases zero.
  GRUCell(std::size_t input_dim, std::size_t hidden_dim,
          util::RngStream& rng, std::string name = "gru");

  /// One step: x is (R x input_dim), h is (R x hidden_dim); returns the
  /// new hidden state (R x hidden_dim).  Differentiable through both.
  /// Runs the fused step unless set_fused(false): the backend's
  /// whole-step kernels when it has them for this width, taped or not.
  [[nodiscard]] Var step(const Var& x, const Var& h) const;

  /// One step over rows taken by index, as the position-vectorized path
  /// RNN runs it: x = src[elem_ids], h = hidden[path_rows], and the new
  /// states replace hidden's path_rows, where the caller reads them.
  /// With a tape, hidden becomes one new node that holds the stepped
  /// states and saves only z, r and n of the R stepped rows; its values
  /// and grads equal those of gather_rows -> step -> scatter_rows bit for
  /// bit.  Without one, hidden's rows are updated in place — after a copy
  /// if another Var shares hidden's tensor.  Throws std::out_of_range for
  /// an id or row out of range and std::invalid_argument for a repeated
  /// row, before any state is read.
  void step_indexed(const Var& src, std::span<const Index> elem_ids,
                    Var& hidden, std::span<const Index> path_rows) const;

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
  /// The taped step of step_indexed: the new (P x hidden_dim) states as
  /// one node over validated rows.
  [[nodiscard]] Var step_rows(const Var& src, std::span<const Index> elem_ids,
                              const Var& hidden,
                              std::span<const Index> path_rows) const;
  /// The backend's whole-step kernel (kernels::Backend::gru_step) on raw
  /// rows; false when the active backend has none for this width.
  bool step_kernel(double* y, const double* x, const Index* x_rows,
                   const double* h, const Index* h_rows,
                   std::size_t rows) const;

  std::size_t in_;
  std::size_t hid_;
  std::string name_;
  bool fused_ = true;
  GruParams w_;
};

}  // namespace rnx::nn

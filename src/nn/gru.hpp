// Gated recurrent unit cell, and the path RNN's sweep over positions.
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
// GruSweep runs RNN_P over every position of one message-passing
// iteration.  Without a tape it updates the path states in place
// (step_indexed); with one it records the whole sweep as a single tape
// node over an arena of every stepped row (DESIGN.md §K).
//
// The fused step runs the backend's whole-step kernels when it has them
// for this width (kernels::Backend::gru_project, gru_step and
// gru_step_backward, AVX2 at H in {4, 8, 12, 16}), else matmul kernels
// and fused gate/blend passes.  Both routes give the same bits on one
// backend for values and the h-side gradients; the kernel route sums the
// x side of the backward (dx, the Wx and bias grads) once per x row, so
// those agree to rounding (DESIGN.md §K).  Without a tape the kernel
// saves nothing; with one it also stores z, r and n for the backward.
#pragma once

#include <memory>
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

  /// One step over rows taken by index, without a tape: x = src[elem_ids],
  /// h = hidden[path_rows], and the new states replace hidden's path_rows
  /// in place — after a copy if another Var shares hidden's tensor.
  /// Throws std::out_of_range for an id or row out of range and
  /// std::invalid_argument for a repeated row, before any state is read,
  /// and std::logic_error when a tape is recording (GruSweep records the
  /// taped path RNN).
  void step_indexed(const Var& src, std::span<const Index> elem_ids,
                    Var& hidden, std::span<const Index> path_rows) const;

  /// step_indexed's guards alone: the throws it documents, for a step
  /// of a hidden state of hidden_rows rows on x rows of src.  A split
  /// forward (core::Model) runs them for every position before any lane
  /// steps a row.
  void check_indexed(const Var& src, std::span<const Index> elem_ids,
                     std::size_t hidden_rows,
                     std::span<const Index> path_rows) const;

  /// x's rows x_rows (null: its first `rows`) through the input weights,
  /// [bz|br|bn] + x [Wxz|Wxr|Wxn] (kernels::Backend::gru_project), into
  /// u (rows x 3*hidden_dim, row-major); false, with u untouched, when
  /// the active backend has no whole-step kernel for this width.
  bool project_rows(double* u, const double* x, const Index* x_rows,
                    std::size_t rows) const;

  /// step_indexed's update with trusted indices and no tape: hidden's
  /// rows path_rows step in place on x = src[elem_ids], with no
  /// copy-on-write.  src_u, when non-null, is all of src projected
  /// (project_rows); null projects the rows read here.  Calls on
  /// disjoint path_rows of one hidden tensor may run concurrently.
  void step_rows(const Tensor& src, const Tensor* src_u,
                 std::span<const Index> elem_ids, Tensor& hidden,
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
  friend class GruSweep;

  [[nodiscard]] Var step_fused(const Var& x, const Var& h) const;
  /// project_rows into a pooled (rows x 3*hidden_dim) tensor.
  bool project(Tensor& u, const double* x, const Index* x_rows,
               std::size_t rows) const;
  /// The backend's whole-step kernel (kernels::Backend::gru_step) on raw
  /// rows of projected inputs; false when the active backend has none
  /// for this width.
  bool step_kernel(double* y, const Index* y_rows, const double* u,
                   const Index* u_rows, const double* h, const Index* h_rows,
                   std::size_t rows) const;
  /// step_rows after a copy-on-write of hidden.
  void update_rows(const Var& src, std::span<const Index> elem_ids,
                   const Tensor* src_u, Var& hidden,
                   std::span<const Index> path_rows) const;

  std::size_t in_;
  std::size_t hid_;
  std::string name_;
  bool fused_ = true;
  GruParams w_;
};

/// One message-passing iteration of the path RNN: `cell` stepped
/// position by position over rows of a (P x hidden_dim) path state, each
/// position's rows reading their x rows by index from one of a fixed set
/// of sources (the link or node states).
///
/// A fused cell whose backend has the whole-step kernels projects every
/// source row through the input weights once, at construction (taped or
/// not), and each step reads those projections by element id.  The
/// sources must therefore not change during a sweep: Model::forward
/// replaces the link and node states only after states().
///
/// Without a tape the states are updated in place (as step_indexed), and
/// messages() and states() read them.  With one, each stepped row is
/// written, in step order, to one arena of (P + entries) x hidden_dim:
/// rows [0, P) hold the initial states, row P + k the k-th stepped row.
/// The arena is the value of a single tape node whose parents are the
/// initial states, the sources and the cell's nine weights; messages()
/// and states() read their rows from it by index.  The node's backward
/// walks the positions in reverse with dL/dh in one (P x hidden_dim)
/// carry; with the backend's backward kernel it sums each source row's
/// pre-activation grads over the positions and runs the x side once per
/// source row at the end.  Its values and h-side grads equal those of
/// gather_rows -> step -> scatter_rows per position bit for bit, and its
/// x-side grads (sources, Wx, biases) to rounding where the kernel runs,
/// bit for bit elsewhere.  A cell with set_fused(false) records that
/// op-by-op tape instead (with step_composed), the reference it always
/// was.
class GruSweep {
 public:
  /// Starts from `initial` (P x hidden_dim).  `sources` are the Vars the
  /// steps may read x rows from (undefined ones are skipped); `entries`
  /// is the number of rows the steps step in total.  Throws
  /// std::invalid_argument, before reading anything, when `initial` is not
  /// hidden_dim wide or a source is not input_dim wide.
  GruSweep(const GRUCell& cell, const Var& initial,
           const std::vector<Var>& sources, std::size_t entries);
  ~GruSweep();
  GruSweep(const GruSweep&) = delete;
  GruSweep& operator=(const GruSweep&) = delete;

  /// One position: rows path_rows step on x = src[elem_ids].  Throws as
  /// step_indexed does, std::invalid_argument when src is not one of the
  /// sources or the steps exceed `entries` — before any state is written.
  void step(const Var& src, std::span<const Index> elem_ids,
            std::span<const Index> path_rows);

  /// step() without GRUCell::check_indexed, for a caller that has already
  /// run it on these spans with this sweep's P (as core::Model does once
  /// per forward for all its iterations).  Still throws
  /// std::invalid_argument when src is not a source or the steps exceed
  /// `entries`.
  void step_unchecked(const Var& src, std::span<const Index> elem_ids,
                      std::span<const Index> path_rows);

  /// The last step's messages (num_elems x hidden_dim): row e sums the new
  /// states of the rows that read element e, in row order.  Reads the
  /// spans passed to that step.
  [[nodiscard]] Var messages(std::size_t num_elems) const;

  /// The path states after the steps so far (P x hidden_dim).
  [[nodiscard]] Var states() const;

 private:
  struct Tape;

  /// sources_ index of src; throws std::invalid_argument if absent.
  [[nodiscard]] std::size_t source_index(const Var& src) const;

  const GRUCell& cell_;
  std::vector<Var> sources_;
  /// Per source, its rows projected (GRUCell::project); empty when the
  /// step kernel does not run.
  std::vector<Tensor> projected_;
  Var hidden_;  ///< the states, or the arena when tape_ is set
  std::shared_ptr<Tape> tape_;
  std::span<const Index> last_ids_, last_rows_;
};

}  // namespace rnx::nn

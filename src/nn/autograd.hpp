// Tape-based reverse-mode automatic differentiation.
//
// A Var is a shared handle to a tape node holding a Tensor value, a lazily
// allocated gradient, and a backward closure that routes the node's
// gradient into its parents.  Calling backward() on a 1x1 loss Var
// topologically sorts the reachable subgraph and runs closures in reverse,
// accumulating gradients (so shared subexpressions — e.g. a GRU weight used
// at every sequence position — sum their contributions, which is exactly
// backpropagation through time for the message-passing unroll).
//
// Inference can skip tape construction entirely with NoGradGuard.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace rnx::nn {

namespace detail {
struct Node;
using NodePtr = std::shared_ptr<Node>;

struct Node {
  Node() = default;
  /// Returns value/grad buffers to the thread-local TensorPool (up to
  /// 64, the larger ones when full), so the next sample's large tape
  /// buffers are reused.  Training is not allocation-free: per GEANT2
  /// sample (extended model, H=12, T=4) 117 of 403 released buffers are
  /// dropped and 155 of 398 acquires allocate (DESIGN.md S3).
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Tensor value;
  Tensor grad;  // allocated on first touch
  bool requires_grad = false;
  std::vector<NodePtr> parents;
  /// Receives this node's accumulated gradient; must add into parents.
  std::function<void(const Tensor& self_grad)> backward;
  // scratch for topological sort
  int visit_mark = 0;

  Tensor& grad_ref();  // allocate-on-demand, zero-filled
};
}  // namespace detail

class Var {
 public:
  Var() = default;
  /// Leaf node.  requires_grad marks a trainable parameter.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Interior node produced by an op.  `backward` receives the node's
  /// gradient and must accumulate into the captured parents' grad_ref()s.
  [[nodiscard]] static Var make(
      Tensor value, std::vector<Var> parents,
      std::function<void(const Tensor& self_grad)> backward);

  [[nodiscard]] bool defined() const noexcept { return node_ != nullptr; }
  [[nodiscard]] const Tensor& value() const;
  /// Mutable access to the value (optimizer updates); invalid on tape
  /// interior nodes mid-backward, intended for leaves.
  [[nodiscard]] Tensor& mutable_value();
  [[nodiscard]] bool requires_grad() const;
  /// The accumulated gradient; zero tensor if backward never reached it.
  [[nodiscard]] const Tensor& grad() const;
  [[nodiscard]] Tensor& grad_ref();
  void zero_grad();

  [[nodiscard]] std::size_t rows() const { return value().rows(); }
  [[nodiscard]] std::size_t cols() const { return value().cols(); }

  /// Reverse-mode sweep from this 1x1 scalar node.
  void backward() const;

  /// Identity comparison (same tape node).
  [[nodiscard]] bool same_node(const Var& o) const noexcept {
    return node_ == o.node_;
  }

  [[nodiscard]] const detail::NodePtr& node() const noexcept { return node_; }

 private:
  detail::NodePtr node_;
};

/// While alive, ops create leaf results without tape edges (inference mode).
class NoGradGuard {
 public:
  NoGradGuard() noexcept;
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// True when tape recording is suppressed (see NoGradGuard).
[[nodiscard]] bool grad_disabled() noexcept;

}  // namespace rnx::nn

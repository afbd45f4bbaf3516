// First-order optimizers over a fixed parameter set.
//
// Optimizers hold Var handles (shared tape nodes), so stepping mutates the
// same tensors the model reads on the next forward pass.
#pragma once

#include <memory>
#include <vector>

#include "nn/autograd.hpp"

namespace rnx::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply one update from the accumulated gradients.
  virtual void step() = 0;
  /// Clear all parameter gradients (call after step()).
  void zero_grad();
  /// L2 norm of the concatenated gradient vector.
  [[nodiscard]] double grad_global_norm() const;
  /// Scale all gradients down so the global norm is <= max_norm.
  /// Throws std::domain_error, touching nothing, when the norm is not
  /// finite (a NaN or infinite gradient).
  void clip_global_norm(double max_norm);
  [[nodiscard]] const std::vector<Var>& params() const noexcept {
    return params_;
  }

 protected:
  std::vector<Var> params_;
};

/// Stochastic gradient descent with optional classical momentum.
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Var> params, double lr, double momentum = 0.0);
  void step() override;

  void set_lr(double lr) noexcept { lr_ = lr; }
  [[nodiscard]] double lr() const noexcept { return lr_; }

 private:
  double lr_;
  double momentum_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba, 2015) with bias correction — the optimizer used to
/// train RouteNet.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Var> params, double lr = 1e-3, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void step() override;

  void set_lr(double lr) noexcept { lr_ = lr; }
  [[nodiscard]] double lr() const noexcept { return lr_; }
  [[nodiscard]] std::uint64_t steps_taken() const noexcept { return t_; }

  /// Moment estimates, aligned with params() — exposed so the trainer's
  /// crash-safe checkpoint can persist the full optimizer state.
  [[nodiscard]] const std::vector<Tensor>& first_moments() const noexcept {
    return m_;
  }
  [[nodiscard]] const std::vector<Tensor>& second_moments() const noexcept {
    return v_;
  }
  /// Restore a checkpointed state.  `m`/`v` must match params() in count
  /// and shapes (std::invalid_argument otherwise); resumed training then
  /// continues bitwise-identically to the uninterrupted run.
  void restore_state(std::uint64_t t, std::vector<Tensor> m,
                     std::vector<Tensor> v);

 private:
  double lr_, beta1_, beta2_, eps_;
  std::uint64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace rnx::nn

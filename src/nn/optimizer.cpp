#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace rnx::nn {

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {
  for (const auto& p : params_)
    if (!p.defined() || !p.requires_grad())
      throw std::invalid_argument("Optimizer: non-trainable parameter");
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

double Optimizer::grad_global_norm() const {
  double s = 0.0;
  for (const auto& p : params_) s += p.grad().squared_norm();
  return std::sqrt(s);
}

void Optimizer::clip_global_norm(double max_norm) {
  if (max_norm <= 0.0)
    throw std::invalid_argument("clip_global_norm: max_norm <= 0");
  const double norm = grad_global_norm();
  // A NaN norm would pass the test below and scale every grad by NaN,
  // so the optimizer step would write NaN into every weight and moment.
  if (!std::isfinite(norm))
    throw std::domain_error("clip_global_norm: gradient norm is " +
                            std::to_string(norm));
  if (norm <= max_norm || norm == 0.0) return;
  const double f = max_norm / norm;
  for (auto& p : params_) p.grad_ref().scale_inplace(f);
}

Sgd::Sgd(std::vector<Var> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (lr <= 0.0) throw std::invalid_argument("Sgd: lr <= 0");
  if (momentum < 0.0 || momentum >= 1.0)
    throw std::invalid_argument("Sgd: momentum out of [0,1)");
  if (momentum_ > 0.0) {
    velocity_.reserve(params_.size());
    for (const auto& p : params_)
      velocity_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (momentum_ > 0.0) {
      velocity_[i].scale_inplace(momentum_);
      velocity_[i].axpy_inplace(1.0, p.grad());
      p.mutable_value().axpy_inplace(-lr_, velocity_[i]);
    } else {
      p.mutable_value().axpy_inplace(-lr_, p.grad());
    }
  }
}

Adam::Adam(std::vector<Var> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)),
      lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  if (lr <= 0.0 || eps <= 0.0 || beta1 < 0.0 || beta1 >= 1.0 || beta2 < 0.0 ||
      beta2 >= 1.0)
    throw std::invalid_argument("Adam: bad hyperparameters");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::restore_state(std::uint64_t t, std::vector<Tensor> m,
                         std::vector<Tensor> v) {
  if (m.size() != params_.size() || v.size() != params_.size())
    throw std::invalid_argument("Adam::restore_state: moment count " +
                                std::to_string(m.size()) + "/" +
                                std::to_string(v.size()) + " != parameter count " +
                                std::to_string(params_.size()));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const auto& p = params_[i].value();
    if (m[i].rows() != p.rows() || m[i].cols() != p.cols() ||
        v[i].rows() != p.rows() || v[i].cols() != p.cols())
      throw std::invalid_argument(
          "Adam::restore_state: moment shape mismatch at parameter " +
          std::to_string(i));
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto g = p.grad().flat();
    auto m = m_[i].flat();
    auto v = v_[i].flat();
    auto w = p.mutable_value().flat();
    for (std::size_t j = 0; j < g.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      const double mh = m[j] / bc1;
      const double vh = v[j] / bc2;
      w[j] -= lr_ * mh / (std::sqrt(vh) + eps_);
    }
  }
}

}  // namespace rnx::nn

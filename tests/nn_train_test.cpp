// Optimizers, initialization, serialization, and learning sanity: the
// substrate must actually train networks, not just pass gradchecks.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx::nn;
using rnx::util::RngStream;

std::vector<Var> vars_of(const NamedParams& np) {
  std::vector<Var> out;
  for (const auto& [n, v] : np) out.push_back(v);
  return out;
}

// ---- init ------------------------------------------------------------------

TEST(Init, GlorotBoundsAndSpread) {
  RngStream rng(1);
  const Tensor t = glorot_uniform(64, 64, rng);
  const double limit = std::sqrt(6.0 / 128.0);
  double maxabs = 0.0;
  for (const double x : t.flat()) {
    EXPECT_LE(std::abs(x), limit);
    maxabs = std::max(maxabs, std::abs(x));
  }
  EXPECT_GT(maxabs, 0.5 * limit);  // actually spread out
}

TEST(Init, HeNormalVariance) {
  RngStream rng(2);
  const Tensor t = he_normal(400, 50, rng);
  double ss = 0.0;
  for (const double x : t.flat()) ss += x * x;
  const double var = ss / static_cast<double>(t.size());
  EXPECT_NEAR(var, 2.0 / 400.0, 0.001);
}

TEST(Init, SeedDeterminism) {
  RngStream r1(3), r2(3);
  const Tensor a = glorot_uniform(4, 4, r1);
  const Tensor b = glorot_uniform(4, 4, r2);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

// ---- optimizers -------------------------------------------------------------

TEST(Sgd, DescendsQuadratic) {
  Var x(Tensor::scalar(10.0), true);
  Sgd opt({x}, 0.1);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    mul(x, x).backward();
    opt.step();
  }
  EXPECT_NEAR(x.value().item(), 0.0, 1e-6);
}

TEST(Sgd, MomentumAcceleratesOnRavine) {
  auto run = [](double momentum) {
    Var x(Tensor::scalar(10.0), true);
    Sgd opt({x}, 0.01, momentum);
    for (int i = 0; i < 60; ++i) {
      opt.zero_grad();
      mul(x, x).backward();
      opt.step();
    }
    return std::abs(x.value().item());
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Adam, DescendsIllConditionedQuadratic) {
  // f(x, y) = 100 x^2 + y^2 — plain SGD needs a tiny lr; Adam copes.
  Var x(Tensor::scalar(1.0), true);
  Var y(Tensor::scalar(1.0), true);
  Adam opt({x, y}, 0.05);
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    add(scale(mul(x, x), 100.0), mul(y, y)).backward();
    opt.step();
  }
  EXPECT_NEAR(x.value().item(), 0.0, 1e-3);
  EXPECT_NEAR(y.value().item(), 0.0, 0.05);
  EXPECT_EQ(opt.steps_taken(), 400u);
}

TEST(Optimizer, RejectsNonTrainable) {
  const Var c = constant(Tensor::scalar(1.0));
  EXPECT_THROW(Sgd({c}, 0.1), std::invalid_argument);
  Var x(Tensor::scalar(1.0), true);
  EXPECT_THROW(Sgd({x}, 0.0), std::invalid_argument);
  EXPECT_THROW(Adam({x}, -1.0), std::invalid_argument);
}

TEST(Optimizer, GlobalNormClipping) {
  Var a(Tensor(1, 2, {3.0, 0.0}), true);
  Var b(Tensor(1, 2, {0.0, 4.0}), true);
  Sgd opt({a, b}, 0.1);
  sum_all(add(mul(a, constant(Tensor(1, 2, {3.0, 0.0}))),
              mul(b, constant(Tensor(1, 2, {0.0, 4.0})))))
      .backward();
  // grads: a -> (3,0), b -> (0,4): global norm 5.
  EXPECT_NEAR(opt.grad_global_norm(), 5.0, 1e-12);
  opt.clip_global_norm(2.5);
  EXPECT_NEAR(opt.grad_global_norm(), 2.5, 1e-12);
  // Clipping below threshold is a no-op.
  opt.clip_global_norm(100.0);
  EXPECT_NEAR(opt.grad_global_norm(), 2.5, 1e-12);
  EXPECT_THROW(opt.clip_global_norm(0.0), std::invalid_argument);
}

TEST(Optimizer, NonFiniteNormThrowsAndLeavesGradsAlone) {
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    Var a(Tensor(1, 2, {3.0, 0.0}), true);
    Var b(Tensor(1, 2, {0.0, 4.0}), true);
    Adam opt({a, b}, 0.1);
    a.grad_ref()(0, 0) = 30.0;
    b.grad_ref()(0, 1) = bad;
    EXPECT_THROW(opt.clip_global_norm(1.0), std::domain_error);
    EXPECT_EQ(a.grad()(0, 0), 30.0);  // not scaled
    EXPECT_EQ(opt.steps_taken(), 0u);
  }
}

TEST(Optimizer, ZeroGradClears) {
  Var x(Tensor::scalar(2.0), true);
  Sgd opt({x}, 0.1);
  mul(x, x).backward();
  EXPECT_NE(x.grad()(0, 0), 0.0);
  opt.zero_grad();
  EXPECT_EQ(x.grad()(0, 0), 0.0);
}

// ---- learning sanity ----------------------------------------------------------

TEST(Learning, MlpSolvesXor) {
  RngStream rng(4);
  Mlp mlp({2, 8, 1}, Activation::kTanh, rng);
  const Tensor x(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  const Tensor t(4, 1, {0, 1, 1, 0});
  Adam opt(vars_of(mlp.named_params()), 0.05);
  const Var input = constant(x);
  double final_loss = 1.0;
  for (int epoch = 0; epoch < 500; ++epoch) {
    opt.zero_grad();
    Var loss = mse_loss(mlp.forward(input), t);
    loss.backward();
    opt.step();
    final_loss = loss.value().item();
  }
  EXPECT_LT(final_loss, 1e-2);
  const Var pred = mlp.forward(input);
  EXPECT_LT(pred.value()(0, 0), 0.3);
  EXPECT_GT(pred.value()(1, 0), 0.7);
  EXPECT_GT(pred.value()(2, 0), 0.7);
  EXPECT_LT(pred.value()(3, 0), 0.3);
}

TEST(Learning, MlpRegressesSine) {
  RngStream rng(5);
  Mlp mlp({1, 16, 16, 1}, Activation::kTanh, rng);
  const int n = 64;
  Tensor x(n, 1), t(n, 1);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = -3.0 + 6.0 * i / (n - 1);
    t(i, 0) = std::sin(x(i, 0));
  }
  Adam opt(vars_of(mlp.named_params()), 0.01);
  const Var input = constant(x);
  for (int epoch = 0; epoch < 800; ++epoch) {
    opt.zero_grad();
    mse_loss(mlp.forward(input), t).backward();
    opt.step();
  }
  const double loss = mse_loss(mlp.forward(input), t).value().item();
  EXPECT_LT(loss, 5e-3);
}

TEST(Learning, GruLearnsToRememberFirstToken) {
  // Sequences of 4 steps; target = first input.  Forces the cell to keep
  // state across steps.
  RngStream rng(6);
  GRUCell cell(1, 6, rng);
  Mlp head({6, 1}, Activation::kNone, rng, "head");
  std::vector<Var> params = vars_of(cell.named_params());
  for (auto& v : vars_of(head.named_params())) params.push_back(v);
  Adam opt(params, 0.02);

  RngStream data_rng(7);
  double final_loss = 1.0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    Tensor first(8, 1), rest1(8, 1), rest2(8, 1), rest3(8, 1);
    for (int i = 0; i < 8; ++i) {
      first(i, 0) = data_rng.uniform(-1, 1);
      rest1(i, 0) = data_rng.uniform(-1, 1);
      rest2(i, 0) = data_rng.uniform(-1, 1);
      rest3(i, 0) = data_rng.uniform(-1, 1);
    }
    opt.zero_grad();
    Var h = constant(Tensor::zeros(8, 6));
    h = cell.step(constant(first), h);
    h = cell.step(constant(rest1), h);
    h = cell.step(constant(rest2), h);
    h = cell.step(constant(rest3), h);
    Var loss = mse_loss(head.forward(h), first);
    loss.backward();
    opt.step();
    final_loss = loss.value().item();
  }
  EXPECT_LT(final_loss, 0.05);
}

// ---- serialization ------------------------------------------------------------

TEST(Serialize, RoundTripPreservesValues) {
  RngStream rng(8);
  Mlp a({3, 5, 2}, Activation::kRelu, rng, "m");
  const std::string path = "/tmp/rnx_weights_test.rnxw";
  {
    const NamedParams params = a.named_params();
    save_params(path, params);
  }
  RngStream rng2(99);  // different init
  Mlp b({3, 5, 2}, Activation::kRelu, rng2, "m");
  NamedParams pb = b.named_params();
  load_params(path, pb);
  const NamedParams pa = a.named_params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto& ta = pa[i].second.value();
    const auto& tb = pb[i].second.value();
    for (std::size_t j = 0; j < ta.size(); ++j)
      EXPECT_EQ(ta.flat()[j], tb.flat()[j]);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, NameMismatchRejected) {
  RngStream rng(9);
  Mlp a({2, 2}, Activation::kNone, rng, "alpha");
  Mlp b({2, 2}, Activation::kNone, rng, "beta");
  const std::string path = "/tmp/rnx_weights_test2.rnxw";
  save_params(path, a.named_params());
  NamedParams pb = b.named_params();
  EXPECT_THROW(load_params(path, pb), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, ShapeMismatchRejected) {
  RngStream rng(10);
  Mlp a({2, 3}, Activation::kNone, rng, "m");
  Mlp b({2, 4}, Activation::kNone, rng, "m");
  const std::string path = "/tmp/rnx_weights_test3.rnxw";
  save_params(path, a.named_params());
  NamedParams pb = b.named_params();
  EXPECT_THROW(load_params(path, pb), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedFileRejected) {
  RngStream rng(11);
  Mlp a({4, 4}, Activation::kNone, rng, "m");
  const std::string path = "/tmp/rnx_weights_test4.rnxw";
  save_params(path, a.named_params());
  std::filesystem::resize_file(path, 24);
  NamedParams pa = a.named_params();
  EXPECT_THROW(load_params(path, pa), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(load_params("/tmp/definitely_missing.rnxw", pa),
               std::runtime_error);
}

}  // namespace

// Fused GRU kernel vs the op-by-op composition: value parity, gradient
// parity, central-difference gradcheck, and tensor-pool behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/gradcheck.hpp"
#include "nn/gru.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx::nn;
using rnx::util::RngStream;

Tensor random_tensor(std::size_t r, std::size_t c, RngStream& rng) {
  Tensor t(r, c);
  for (auto& x : t.flat()) x = rng.uniform(-1.0, 1.0);
  return t;
}

std::vector<Var> cell_params(const GRUCell& cell) {
  std::vector<Var> out;
  for (const auto& [n, v] : cell.named_params()) out.push_back(v);
  return out;
}

TEST(GruFused, ForwardMatchesComposed) {
  RngStream rng(21);
  const GRUCell cell(5, 7, rng);
  const Var x = constant(random_tensor(9, 5, rng));
  const Var h = constant(random_tensor(9, 7, rng));
  const Tensor fused = cell.step(x, h).value();
  const Tensor composed = cell.step_composed(x, h).value();
  ASSERT_TRUE(fused.same_shape(composed));
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_NEAR(fused.flat()[i], composed.flat()[i], 1e-14);
}

TEST(GruFused, GradientsMatchComposedAllParamsAndInputs) {
  RngStream rng(22);
  const GRUCell cell(4, 6, rng);
  const Tensor xv = random_tensor(8, 4, rng);
  const Tensor hv = random_tensor(8, 6, rng);

  auto run = [&](bool fused) {
    Var x(xv, /*requires_grad=*/true);
    Var h(hv, /*requires_grad=*/true);
    const Var y = fused ? cell.step(x, h) : cell.step_composed(x, h);
    sum_all(mul(y, y)).backward();  // nonuniform downstream gradient
    std::vector<Tensor> grads{x.grad(), h.grad()};
    for (auto& p : cell_params(cell)) {
      grads.push_back(p.grad());
      p.zero_grad();
    }
    return grads;
  };

  const auto fused = run(true);
  const auto composed = run(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t t = 0; t < fused.size(); ++t) {
    ASSERT_TRUE(fused[t].same_shape(composed[t]));
    for (std::size_t i = 0; i < fused[t].size(); ++i)
      EXPECT_NEAR(fused[t].flat()[i], composed[t].flat()[i], 1e-12)
          << "tensor " << t << " entry " << i;
  }
}

TEST(GruFused, GradcheckAgainstCentralDifferences) {
  RngStream rng(23);
  const GRUCell cell(3, 4, rng);
  const Tensor xv = random_tensor(5, 3, rng);
  const Tensor hv = random_tensor(5, 4, rng);
  Var x(xv, true);
  Var h(hv, true);
  std::vector<Var> params = cell_params(cell);
  params.push_back(x);
  params.push_back(h);
  const auto report = grad_check(
      [&] { return mean_all(cell.step(x, h)); }, params);
  EXPECT_TRUE(report.ok(1e-6)) << "max rel err " << report.max_rel_err;
}

TEST(GruFused, BpttThroughFusedSteps) {
  // Two chained fused steps: the saved activations of step 1 must survive
  // until step 2's backward routes gradient through them.
  RngStream rng(24);
  const GRUCell cell(2, 3, rng);
  const Tensor x1 = random_tensor(4, 2, rng);
  const Tensor x2 = random_tensor(4, 2, rng);
  std::vector<Var> params = cell_params(cell);
  const auto report = grad_check(
      [&] {
        Var h = constant(Tensor::zeros(4, 3));
        h = cell.step(constant(x1), h);
        h = cell.step(constant(x2), h);
        return mean_all(h);
      },
      params);
  EXPECT_TRUE(report.ok(1e-6)) << "max rel err " << report.max_rel_err;
}

TEST(GruFused, NoGradModeBuildsNoTape) {
  RngStream rng(25);
  const GRUCell cell(3, 3, rng);
  const NoGradGuard guard;
  const Var y = cell.step(constant(random_tensor(2, 3, rng)),
                          constant(random_tensor(2, 3, rng)));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
}

TEST(TensorPool, RecyclesBuffers) {
  TensorPool::drain();
  Tensor a = TensorPool::acquire(4, 4);
  a(0, 0) = 7.0;
  TensorPool::release(std::move(a));
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  const Tensor b = TensorPool::acquire(2, 8);  // same element count, reused
  EXPECT_EQ(TensorPool::pooled_count(), 0u);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.cols(), 8u);
  for (const double v : b.flat()) EXPECT_EQ(v, 0.0);  // zeroed on reuse
  TensorPool::drain();
}

// A request takes the smallest pooled buffer of its size to twice that,
// so a large buffer waits for a large request; a full pool keeps its
// largest buffers; a buffer a little too small is grown.
TEST(TensorPool, BestFitKeepsLargeBuffers) {
  TensorPool::drain();
  TensorPool::release(Tensor(100, 100));
  TensorPool::release(Tensor(2, 2));
  const Tensor small = TensorPool::acquire_uninit(1, 3);  // capacity 4 fits
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  const Tensor tiny = TensorPool::acquire(1, 1);  // nothing within 2x
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  EXPECT_EQ(small.size() + tiny.size(), 4u);
  const Tensor big = TensorPool::acquire(90, 100);
  EXPECT_EQ(TensorPool::pooled_count(), 0u);
  for (const double v : big.flat()) EXPECT_EQ(v, 0.0);

  for (int i = 0; i < 64; ++i) TensorPool::release(Tensor(1, 2));
  TensorPool::release(Tensor(50, 50));  // full: replaces a small one
  TensorPool::release(Tensor(1, 1));  // full, smaller than all: dropped
  EXPECT_EQ(TensorPool::pooled_count(), 64u);
  EXPECT_EQ(TensorPool::acquire_uninit(40, 50).rows(), 40u);
  EXPECT_EQ(TensorPool::pooled_count(), 63u);

  // Nothing fits: a buffer of at least half the size is grown, a smaller
  // one stays.
  TensorPool::drain();
  TensorPool::release(Tensor(30, 50));
  TensorPool::release(Tensor(10, 10));
  const Tensor grown = TensorPool::acquire(40, 50);
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  for (const double v : grown.flat()) EXPECT_EQ(v, 0.0);
  (void)TensorPool::acquire_uninit(40, 50);
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  TensorPool::drain();
}

TEST(TensorPool, TakeBufferEmptiesTensor) {
  Tensor t(3, 2);
  auto buf = std::move(t).take_buffer();
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_TRUE(t.empty());  // NOLINT(bugprone-use-after-move): documented
}

}  // namespace

// Tape mechanics: gradient accumulation, graph reuse, NoGradGuard, and
// op forward values (backward correctness lives in nn_gradcheck_test.cpp).
#include <gtest/gtest.h>
#include <cmath>
#include <span>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/ops.hpp"

namespace {

using namespace rnx::nn;

Var param(std::initializer_list<double> vals, std::size_t rows,
          std::size_t cols) {
  return Var(Tensor(rows, cols, std::vector<double>(vals)), true);
}

TEST(Autograd, SimpleChainGradient) {
  Var x = param({2.0}, 1, 1);
  Var y = scale(x, 3.0);        // y = 3x
  Var loss = mul(y, y);         // loss = 9x^2 -> dloss/dx = 18x = 36
  loss.backward();
  EXPECT_NEAR(x.grad()(0, 0), 36.0, 1e-12);
}

TEST(Autograd, SharedSubexpressionAccumulates) {
  Var x = param({5.0}, 1, 1);
  Var y = add(x, x);  // y = 2x -> dy/dx = 2
  y.backward();
  EXPECT_NEAR(x.grad()(0, 0), 2.0, 1e-12);
}

TEST(Autograd, DiamondGraphAccumulates) {
  Var x = param({1.5}, 1, 1);
  Var a = scale(x, 2.0);
  Var b = scale(x, 3.0);
  Var loss = mul(a, b);  // 6x^2 -> d/dx = 12x = 18
  loss.backward();
  EXPECT_NEAR(x.grad()(0, 0), 18.0, 1e-12);
}

TEST(Autograd, BackwardTwiceAccumulatesUnlessCleared) {
  Var x = param({1.0}, 1, 1);
  Var loss = scale(x, 4.0);
  loss.backward();
  EXPECT_NEAR(x.grad()(0, 0), 4.0, 1e-12);
  loss.backward();  // second sweep accumulates
  EXPECT_NEAR(x.grad()(0, 0), 8.0, 1e-12);
  x.zero_grad();
  loss.backward();
  EXPECT_NEAR(x.grad()(0, 0), 4.0, 1e-12);
}

TEST(Autograd, ConstantsGetNoGradient) {
  Var x = param({2.0}, 1, 1);
  Var c = constant(Tensor::scalar(10.0));
  Var loss = mul(x, c);
  loss.backward();
  EXPECT_FALSE(c.requires_grad());
  EXPECT_NEAR(x.grad()(0, 0), 10.0, 1e-12);
}

TEST(Autograd, ConstantSubgraphIsPruned) {
  const Var a = constant(Tensor::scalar(1.0));
  const Var b = constant(Tensor::scalar(2.0));
  const Var y = add(a, b);
  EXPECT_FALSE(y.requires_grad());  // no parent needs gradients
}

TEST(Autograd, BackwardRequiresScalar) {
  Var x = param({1.0, 2.0}, 1, 2);
  Var y = scale(x, 2.0);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(Autograd, UndefinedVarThrows) {
  const Var v;
  EXPECT_FALSE(v.defined());
  EXPECT_THROW((void)v.value(), std::logic_error);
  EXPECT_THROW(v.backward(), std::logic_error);
}

TEST(Autograd, NoGradGuardSuppressesTape) {
  Var x = param({3.0}, 1, 1);
  {
    const NoGradGuard guard;
    EXPECT_TRUE(grad_disabled());
    Var y = mul(x, x);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_NEAR(y.value()(0, 0), 9.0, 1e-12);  // values still computed
  }
  EXPECT_FALSE(grad_disabled());
  Var y2 = mul(x, x);
  EXPECT_TRUE(y2.requires_grad());
}

TEST(Autograd, NoGradGuardNests) {
  const NoGradGuard outer;
  {
    const NoGradGuard inner;
    EXPECT_TRUE(grad_disabled());
  }
  EXPECT_TRUE(grad_disabled());  // outer still active
}

TEST(Autograd, DeepChainSurvives) {
  // 3000-deep chain: the iterative DFS must not overflow the stack.
  Var x = param({1.0}, 1, 1);
  Var y = x;
  for (int i = 0; i < 3000; ++i) y = scale(y, 1.001);
  y.backward();
  EXPECT_GT(x.grad()(0, 0), 1.0);
}

// ---- forward values of the ops ------------------------------------------

TEST(OpValues, AddSubMulAffine) {
  Var a = param({1, 2, 3, 4}, 2, 2);
  Var b = param({10, 20, 30, 40}, 2, 2);
  EXPECT_DOUBLE_EQ(add(a, b).value()(1, 1), 44.0);
  EXPECT_DOUBLE_EQ(sub(b, a).value()(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(mul(a, b).value()(0, 1), 40.0);
  EXPECT_DOUBLE_EQ(affine(a, 2.0, 1.0).value()(1, 0), 7.0);
  Var c = param({1}, 1, 1);
  EXPECT_THROW(add(a, c), std::invalid_argument);
}

TEST(OpValues, MatmulAndBias) {
  Var a = param({1, 2, 3, 4}, 2, 2);
  Var b = param({1, 0, 0, 1}, 2, 2);  // identity
  const Var y = matmul(a, b);
  EXPECT_DOUBLE_EQ(y.value()(0, 1), 2.0);
  Var bias = param({100, 200}, 1, 2);
  const Var z = add_bias(a, bias);
  EXPECT_DOUBLE_EQ(z.value()(1, 0), 103.0);
  EXPECT_DOUBLE_EQ(z.value()(1, 1), 204.0);
  Var bad_bias = param({1, 2, 3}, 1, 3);
  EXPECT_THROW(add_bias(a, bad_bias), std::invalid_argument);
}

TEST(OpValues, Nonlinearities) {
  Var x = param({0.0, 100.0, -100.0}, 1, 3);
  const Var s = sigmoid(x);
  EXPECT_NEAR(s.value()(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(s.value()(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(s.value()(0, 2), 0.0, 1e-12);
  const Var t = tanh_op(x);
  EXPECT_NEAR(t.value()(0, 0), 0.0, 1e-12);
  const Var r = relu(x);
  EXPECT_DOUBLE_EQ(r.value()(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(r.value()(0, 2), 0.0);
  const Var sp = softplus(x);
  EXPECT_NEAR(sp.value()(0, 0), std::log(2.0), 1e-12);
  EXPECT_NEAR(sp.value()(0, 1), 100.0, 1e-9);   // stable for large x
  EXPECT_NEAR(sp.value()(0, 2), 0.0, 1e-9);
}

TEST(OpValues, GatherScatterSegment) {
  Var m = param({1, 2, 3, 4, 5, 6}, 3, 2);
  const Var g = gather_rows(m, {2, 0, 2});
  EXPECT_DOUBLE_EQ(g.value()(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.value()(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.value()(2, 1), 6.0);
  EXPECT_THROW(gather_rows(m, {3}), std::out_of_range);

  Var rows = param({10, 20}, 1, 2);
  const Var sc = scatter_rows(m, {1}, rows);
  EXPECT_DOUBLE_EQ(sc.value()(0, 0), 1.0);   // untouched
  EXPECT_DOUBLE_EQ(sc.value()(1, 0), 10.0);  // overwritten
  Var two_rows = param({1, 2, 3, 4}, 2, 2);
  EXPECT_THROW(scatter_rows(m, {0, 0}, two_rows), std::invalid_argument);

  const Var seg = segment_sum(m, {1, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(seg.value()(0, 0), 3.0);       // row 1 only
  EXPECT_DOUBLE_EQ(seg.value()(1, 0), 1.0 + 5.0); // rows 0 and 2
  EXPECT_THROW(segment_sum(m, {0, 0}, 2), std::invalid_argument);
  EXPECT_THROW(segment_sum(m, {0, 0, 5}, 2), std::out_of_range);

  // Indexed rows: out[seg[i]] += m[rows[i]], bitwise the segment_sum of
  // the gathered rows.
  const std::vector<Index> row_ids{2, 0, 2}, seg_ids{1, 0, 1};
  const Var seg_rows = segment_sum(m, row_ids, seg_ids, 2);
  const Var seg_gathered = segment_sum(gather_rows(m, row_ids), seg_ids, 2);
  EXPECT_EQ(seg_rows.value()(0, 0), seg_gathered.value()(0, 0));
  EXPECT_DOUBLE_EQ(seg_rows.value()(1, 1), 6.0 + 6.0);
  const std::vector<Index> bad_rows{2, 0, 3};
  EXPECT_THROW(segment_sum(m, bad_rows, seg_ids, 2), std::out_of_range);
  EXPECT_THROW(
      segment_sum(m, std::span<const Index>(row_ids).first(2), seg_ids, 2),
      std::invalid_argument);
}

TEST(OpValues, SegmentSumEmptySegmentIsZero) {
  Var m = param({1, 2}, 1, 2);
  const Var seg = segment_sum(m, {2}, 4);
  EXPECT_DOUBLE_EQ(seg.value()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(seg.value()(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(seg.value()(3, 1), 0.0);
}

TEST(OpValues, ConcatAndReductions) {
  Var a = param({1, 2}, 2, 1);
  Var b = param({3, 4, 5, 6}, 2, 2);
  const Var c = concat_cols(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c.value()(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(c.value()(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(sum_all(b).value().item(), 18.0);
  EXPECT_DOUBLE_EQ(mean_all(b).value().item(), 4.5);
}

TEST(OpValues, Losses) {
  Var pred = param({1.0, 2.0}, 2, 1);
  const Tensor target(2, 1, {0.0, 4.0});
  EXPECT_NEAR(mse_loss(pred, target).value().item(), (1.0 + 4.0) / 2, 1e-12);
  EXPECT_NEAR(mae_loss(pred, target).value().item(), (1.0 + 2.0) / 2, 1e-12);
  // Huber delta=1: e=1 -> 0.5; e=-2 -> 1*(2-0.5)=1.5.
  EXPECT_NEAR(huber_loss(pred, target, 1.0).value().item(), (0.5 + 1.5) / 2,
              1e-12);
  EXPECT_THROW(huber_loss(pred, target, 0.0), std::invalid_argument);
  const Tensor bad(1, 1);
  EXPECT_THROW(mse_loss(pred, bad), std::invalid_argument);
}

}  // namespace

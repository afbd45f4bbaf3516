// Numerical gradient verification of every differentiable op, the GRU
// cell, the path-RNN sweep, layers, composite expressions and an
// extended-model loss (DESIGN.md S3 acceptance bar: every backward
// pinned against central differences).
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "nn/gradcheck.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "kernel_tables.hpp"

namespace {

using rnx::test::simd_tables;

using namespace rnx::nn;
using kernels::Backend;
using rnx::util::RngStream;

constexpr double kTol = 1e-7;

Var rand_param(std::size_t r, std::size_t c, RngStream& rng) {
  return Var(uniform_init(r, c, -1.0, 1.0, rng), true);
}

// ---- per-op checks (parameterized over shapes) -----------------------------

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

class OpGradProperty : public ::testing::TestWithParam<Shape> {
 protected:
  RngStream rng_{static_cast<std::uint64_t>(GetParam().rows * 100 +
                                            GetParam().cols)};
};

TEST_P(OpGradProperty, AddSubMul) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  Var b = rand_param(r, c, rng_);
  std::vector<Var> params{a, b};
  auto rep = grad_check(
      [&] { return sum_all(mul(add(a, b), sub(a, b))); }, params);
  EXPECT_LT(rep.max_rel_err, kTol) << "entries=" << rep.entries;
}

TEST_P(OpGradProperty, AffineAndScale) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  std::vector<Var> params{a};
  auto rep = grad_check(
      [&] { return mean_all(affine(scale(a, 2.5), -1.5, 0.25)); }, params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST_P(OpGradProperty, Nonlinearities) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  std::vector<Var> params{a};
  for (auto fn : {&sigmoid, &tanh_op, &softplus}) {
    auto rep = grad_check([&] { return sum_all(fn(a)); }, params);
    EXPECT_LT(rep.max_rel_err, kTol);
  }
}

TEST_P(OpGradProperty, ReluAwayFromKink) {
  const auto [r, c] = GetParam();
  // Shift values away from 0 so the finite difference never straddles
  // the kink.
  Tensor t = uniform_init(r, c, 0.1, 1.0, rng_);
  for (std::size_t i = 0; i < t.size(); ++i)
    if (i % 2) t.flat()[i] = -t.flat()[i];
  Var a(std::move(t), true);
  std::vector<Var> params{a};
  auto rep = grad_check([&] { return sum_all(relu(a)); }, params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST_P(OpGradProperty, MatmulAndBias) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  Var w = rand_param(c, 3, rng_);
  Var bias = rand_param(1, 3, rng_);
  std::vector<Var> params{a, w, bias};
  auto rep = grad_check(
      [&] { return mean_all(add_bias(matmul(a, w), bias)); }, params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST_P(OpGradProperty, GatherRows) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  std::vector<Index> idx;
  for (std::size_t i = 0; i < 2 * r; ++i)
    idx.push_back(static_cast<Index>(i % r));  // repeats exercise accumulation
  std::vector<Var> params{a};
  auto rep = grad_check(
      [&] { return sum_all(mul(gather_rows(a, idx), gather_rows(a, idx))); },
      params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST_P(OpGradProperty, ScatterRows) {
  const auto [r, c] = GetParam();
  Var base = rand_param(r, c, rng_);
  Var rows = rand_param(1, c, rng_);
  const std::vector<Index> idx{static_cast<Index>(r - 1)};
  std::vector<Var> params{base, rows};
  auto rep = grad_check(
      [&] {
        const Var s = scatter_rows(base, idx, rows);
        return sum_all(mul(s, s));
      },
      params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST_P(OpGradProperty, SegmentSum) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  std::vector<Index> seg(r);
  for (std::size_t i = 0; i < r; ++i) seg[i] = static_cast<Index>(i % 3);
  std::vector<Var> params{a};
  auto rep = grad_check(
      [&] {
        const Var s = segment_sum(a, seg, 4);  // segment 3 stays empty
        return sum_all(mul(s, s));
      },
      params);
  EXPECT_LT(rep.max_rel_err, kTol);

  // The indexed form reads row rows[i] of a: reversed, with repeats.
  std::vector<Index> rows(r);
  for (std::size_t i = 0; i < r; ++i) rows[i] = static_cast<Index>((r - 1 - i) / 2);
  auto rep_rows = grad_check(
      [&] {
        const Var s = segment_sum(a, std::span<const Index>(rows),
                                  std::span<const Index>(seg), 4);
        return sum_all(mul(s, s));
      },
      params);
  EXPECT_LT(rep_rows.max_rel_err, kTol);
}

TEST_P(OpGradProperty, ConcatCols) {
  const auto [r, c] = GetParam();
  Var a = rand_param(r, c, rng_);
  Var b = rand_param(r, c + 1, rng_);
  std::vector<Var> params{a, b};
  auto rep = grad_check(
      [&] {
        const Var cc = concat_cols(a, b);
        return mean_all(mul(cc, cc));
      },
      params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST_P(OpGradProperty, Losses) {
  const auto [r, c] = GetParam();
  Var pred = rand_param(r, c, rng_);
  const Tensor target = uniform_init(r, c, -1.0, 1.0, rng_);
  std::vector<Var> params{pred};
  for (int which = 0; which < 2; ++which) {
    auto rep = grad_check(
        [&] {
          return which == 0 ? mse_loss(pred, target)
                            : huber_loss(pred, target, 0.7);
        },
        params);
    EXPECT_LT(rep.max_rel_err, kTol) << "loss " << which;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OpGradProperty,
                         ::testing::Values(Shape{1, 1}, Shape{3, 2},
                                           Shape{5, 4}, Shape{8, 6}));

// ---- GRU / layers -----------------------------------------------------------

TEST(GruGradient, SingleStepAllParams) {
  RngStream rng(3);
  GRUCell cell(3, 4, rng);
  Var x = rand_param(5, 3, rng);
  Var h = rand_param(5, 4, rng);
  std::vector<Var> params{x, h};
  for (auto& [name, v] : cell.named_params()) params.push_back(v);
  auto rep = grad_check([&] { return sum_all(cell.step(x, h)); }, params);
  EXPECT_LT(rep.max_rel_err, kTol) << "entries=" << rep.entries;
}

TEST(GruGradient, UnrolledSequenceBptt) {
  // Three steps with the same cell: gradients must flow through time and
  // accumulate over the shared weights.
  RngStream rng(5);
  GRUCell cell(2, 3, rng);
  Var x0 = rand_param(2, 2, rng);
  Var x1 = rand_param(2, 2, rng);
  Var x2 = rand_param(2, 2, rng);
  Var h0 = rand_param(2, 3, rng);
  std::vector<Var> params{x0, x1, x2, h0};
  for (auto& [name, v] : cell.named_params()) params.push_back(v);
  auto rep = grad_check(
      [&] {
        Var h = cell.step(x0, h0);
        h = cell.step(x1, h);
        h = cell.step(x2, h);
        return mean_all(mul(h, h));
      },
      params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST(LayerGradient, DenseAllActivations) {
  RngStream rng(7);
  for (const auto act : {Activation::kNone, Activation::kSigmoid,
                         Activation::kTanh, Activation::kSoftplus}) {
    Dense layer(3, 2, act, rng);
    Var x = rand_param(4, 3, rng);
    std::vector<Var> params{x};
    for (auto& [name, v] : layer.named_params()) params.push_back(v);
    auto rep = grad_check([&] { return sum_all(layer.forward(x)); }, params);
    EXPECT_LT(rep.max_rel_err, kTol) << "act " << static_cast<int>(act);
  }
}

TEST(LayerGradient, MlpEndToEnd) {
  RngStream rng(9);
  Mlp mlp({3, 8, 4, 1}, Activation::kTanh, rng);
  Var x = rand_param(6, 3, rng);
  const Tensor target = uniform_init(6, 1, -1.0, 1.0, rng);
  std::vector<Var> params{x};
  for (auto& [name, v] : mlp.named_params()) params.push_back(v);
  auto rep =
      grad_check([&] { return mse_loss(mlp.forward(x), target); }, params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

TEST(CompositeGradient, MessagePassingShapedExpression) {
  // A miniature of the RouteNet inner loop: gather -> GRU -> scatter ->
  // segment_sum -> GRU -> readout, all in one tape.
  RngStream rng(11);
  GRUCell rnn_p(3, 3, rng, "p");
  GRUCell rnn_l(3, 3, rng, "l");
  Mlp readout({3, 4, 1}, Activation::kRelu, rng, "r");
  Var paths = rand_param(4, 3, rng);
  Var links = rand_param(2, 3, rng);
  const std::vector<Index> path_rows{0, 1, 2, 3};
  const std::vector<Index> link_ids{0, 1, 0, 1};
  std::vector<Var> params{paths, links};
  for (auto& [n, v] : rnn_p.named_params()) params.push_back(v);
  for (auto& [n, v] : rnn_l.named_params()) params.push_back(v);
  auto rep = grad_check(
      [&] {
        const Var x = gather_rows(links, link_ids);
        const Var h = gather_rows(paths, path_rows);
        const Var h2 = rnn_p.step(x, h);
        const Var new_paths = scatter_rows(paths, path_rows, h2);
        const Var msg = segment_sum(h2, link_ids, 2);
        const Var new_links = rnn_l.step(msg, links);
        return add(mean_all(readout.forward(new_paths)),
                   mean_all(new_links));
      },
      params);
  EXPECT_LT(rep.max_rel_err, kTol);
}

// ---- the path-RNN sweep ----------------------------------------------------

// One taped sweep over paths of three, two, one and no elements, reading
// link and node states in turn, then its messages and final states.
GradCheckReport path_sweep_all_inputs(std::size_t in, std::size_t hid) {
  RngStream rng(13);
  GRUCell cell(in, hid, rng, "p");
  Var initial = rand_param(4, hid, rng);
  Var links = rand_param(3, in, rng);
  Var nodes = rand_param(2, in, rng);
  const std::vector<std::vector<Index>> rows{{0, 1, 2}, {0, 1}, {1}};
  const std::vector<std::vector<Index>> ids{{1, 0, 2}, {1, 1}, {0}};
  std::vector<Var> params{initial, links, nodes};
  for (auto& [n, v] : cell.named_params()) params.push_back(v);
  return grad_check(
      [&] {
        GruSweep sweep(cell, initial, {links, nodes}, 6);
        Var loss;
        for (std::size_t p = 0; p < rows.size(); ++p) {
          const bool node = p % 2 == 1;
          sweep.step(node ? nodes : links, ids[p], rows[p]);
          const Var msg = sweep.messages(node ? 2 : 3);
          const Var term = mean_all(mul(msg, msg));
          loss = loss.defined() ? add(loss, term) : term;
        }
        return add(loss, mean_all(mul(sweep.states(), initial)));
      },
      params);
}

TEST(SweepGradient, PathSweepAllInputs) {
  const kernels::ScopedBackendOverride pin(kernels::scalar_backend());
  const auto rep = path_sweep_all_inputs(3, 3);
  EXPECT_LT(rep.max_rel_err, kTol) << "entries=" << rep.entries;
}

// The same sweep on the SIMD backend at widths its whole-step kernels
// take, so the backward kernel and the per-source x side run; an input
// width of 3 shows the kernel does not depend on it.
TEST(SweepGradient, PathSweepAllInputsNative) {
  std::vector<const Backend*> simds;
  for (const Backend* b : simd_tables())
    if (b->gru_step_backward != nullptr) simds.push_back(b);
  if (simds.empty()) GTEST_SKIP() << "no GRU backward kernel on this host";
  for (const Backend* simd : simds) {
    SCOPED_TRACE(simd->name);
    const kernels::ScopedBackendOverride pin(*simd);
    for (const auto& [in, hid] :
         {std::pair<std::size_t, std::size_t>{3, 4}, {8, 8}}) {
      const auto rep = path_sweep_all_inputs(in, hid);
      EXPECT_LT(rep.max_rel_err, kTol)
          << "in=" << in << " hid=" << hid << " entries=" << rep.entries;
    }
  }
}

// The training loss of the extended model, whose every path-RNN
// iteration is one sweep node: all parameters.
GradCheckReport extended_model_loss(std::size_t dim) {
  rnx::data::GeneratorConfig gen;
  gen.target_packets = 2'000;
  const auto samples =
      rnx::data::generate_dataset(rnx::topo::ring(5), 1, gen, 29);
  const auto scaler = rnx::data::Scaler::fit(samples);
  rnx::core::ModelConfig cfg;
  cfg.state_dim = dim;
  cfg.readout_hidden = 4;
  cfg.iterations = 2;
  const rnx::core::Model model(rnx::core::ModelKind::kExtended, cfg);
  std::vector<Var> params;
  for (auto& [n, v] : model.named_params()) params.push_back(v);
  return grad_check(
      [&] {
        return rnx::core::Trainer::sample_loss(model, samples[0], scaler, 1);
      },
      params);
}

TEST(SweepGradient, ExtendedModelLoss) {
  const kernels::ScopedBackendOverride pin(kernels::scalar_backend());
  const auto rep = extended_model_loss(4);
  EXPECT_GT(rep.entries, 300u);
  EXPECT_LT(rep.max_rel_err, 1e-6) << "entries=" << rep.entries;
}

// The same loss on the SIMD backend, at state widths its whole-step
// kernels take.
TEST(SweepGradient, ExtendedModelLossNative) {
  std::vector<const Backend*> simds;
  for (const Backend* b : simd_tables())
    if (b->gru_step_backward != nullptr) simds.push_back(b);
  if (simds.empty()) GTEST_SKIP() << "no GRU backward kernel on this host";
  for (const Backend* simd : simds) {
    SCOPED_TRACE(simd->name);
    const kernels::ScopedBackendOverride pin(*simd);
    for (const std::size_t dim : {4, 8}) {
      const auto rep = extended_model_loss(dim);
      EXPECT_GT(rep.entries, 300u);
      EXPECT_LT(rep.max_rel_err, 1e-6)
          << "dim=" << dim << " entries=" << rep.entries;
    }
  }
}

}  // namespace

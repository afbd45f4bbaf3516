// Gradient oracles for the taped GRU step.
//
//   * GruStepBackward: the backend's whole-step kernels (forward with
//     saved activations, gru_step_backward and the per-x-row x side its
//     caller runs) against the composed passes and backward of the same
//     backend, for every kernel width, ragged row counts, every
//     combination of x/h requires_grad and a second backward that
//     accumulates onto non-zero grads; the raw kernel's DU rows and dh,
//     with and without the sweep's carry, against the composed formulas
//     bit for bit; and the taped path-RNN sweep over shuffled positions
//     against gather_rows -> step -> scatter_rows rebuilt from the public
//     ops, on the scalar and the SIMD backend;
//   * GruSweep: the taped sweep over real NSFNET and GEANT2 plans against
//     the same per-position tape, for widths with and without a kernel,
//     every requires_grad combination of its sources and a second round
//     accumulating onto the grads of the first; and its guards.
//   Values, the initial-state and h grads and the Wh* grads match bit for
//   bit everywhere; so does every grad on the scalar backend and at widths
//   without a kernel.  Where the backward kernel runs, the x-side grads
//   (source, Wx* and bias) are summed per x row and match to rounding
//   (grad_rounding.hpp);
//   * TrainGolden: a digest of every parameter gradient of
//     Trainer::sample_loss over the ForwardOracle sweep (both model
//     kinds, both node rules, mean aggregation on and off, widths with
//     and without a kernel) on the SIMD backend.  It was first captured
//     before the taped step ran the whole-step kernels, so it pins the
//     kernels' gradients to the composed ones bit for bit.  It was
//     re-captured when the AVX2 sigmoid and tanh became one division per
//     vector: 243,363 of the 270,816 digested losses and grads moved, by
//     at most 3.9e-14 absolute.  It was re-captured again when the
//     backward kernel's caller began summing the x side per source row:
//     161,092 moved, by at most 7.1e-15 absolute (7.5e-15 of the
//     tensor's largest |value|); the losses did not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/plan.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "grad_rounding.hpp"

namespace {

using namespace rnx;
using nn::Index;
using nn::Tensor;
using nn::Var;
using nn::kernels::Backend;
using nn::kernels::ScopedBackendOverride;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||  // empty tensors may hold null data pointers
          std::memcmp(a.flat().data(), b.flat().data(),
                      a.size() * sizeof(double)) == 0);
}

/// The scalar backend plus the SIMD backend when this host has one.
std::vector<const Backend*> backends() {
  std::vector<const Backend*> out{&nn::kernels::scalar_backend()};
  if (const Backend* simd = nn::kernels::simd_backend()) out.push_back(simd);
  return out;
}

/// `b` without its whole-step GRU kernels: the taped step then runs the
/// composed passes and the composed backward on b's matmul kernels.
Backend without_gru_kernels(const Backend& b) {
  Backend composed = b;
  composed.gru_project = nullptr;
  composed.gru_step = nullptr;
  composed.gru_step_backward = nullptr;
  return composed;
}

Tensor random_tensor(std::size_t r, std::size_t c, util::RngStream& rng) {
  return nn::uniform_init(r, c, -2.0, 2.0, rng);
}

/// Whether `b` runs the GRU backward kernel at this width (AVX2 at
/// H in {4, 8, 12, 16}).  Where it does, the caller sums the x side of the
/// backward per x row, so those grads differ from the per-row composed
/// order by rounding.
bool backward_kernel_runs(const Backend& b, std::size_t hid) {
  return b.gru_step_backward != nullptr && hid % 4 == 0 && hid <= 16;
}

/// Every tensor a backward touched: the output, the inputs' grads (when
/// they require grad) and the cell's parameter grads.  `rounded` marks
/// the grads the kernel's route sums in another order (grad_rounding.hpp):
/// a source's or x's grad, the Wx* and bias grads, and dh when the input
/// width is not a multiple of 4.
struct StepResult {
  std::vector<Tensor> tensors;
  std::vector<bool> rounded;

  void add(const Tensor& t, bool rounded_grad = false) {
    tensors.push_back(t);
    rounded.push_back(rounded_grad);
  }
  /// The cell's nine parameter grads, which are then zeroed.
  void add_params(const nn::GRUCell& cell) {
    for (auto& [name, p] : cell.named_params()) {
      add(p.grad(), name.find(".wh") == std::string::npos);
      p.zero_grad();
    }
  }
};

/// got against the reference route's want, bit for bit, except that where
/// `kernel_ran` (the backward kernel ran on got's route) the rounded grads
/// need only be within_rounding.
::testing::AssertionResult matches(const StepResult& got,
                                   const StepResult& want, bool kernel_ran) {
  if (got.tensors.size() != want.tensors.size())
    return ::testing::AssertionFailure() << "tensor count differs";
  for (std::size_t i = 0; i < got.tensors.size(); ++i) {
    const auto ok =
        kernel_ran && want.rounded[i]
            ? test::within_rounding(got.tensors[i], want.tensors[i])
            : ::testing::AssertionResult(
                  bitwise_equal(got.tensors[i], want.tensors[i]));
    if (!ok) return ::testing::AssertionFailure() << "tensor " << i << " " << ok.message();
  }
  return ::testing::AssertionSuccess();
}

/// One taped step with a non-uniform upstream gradient, back-propagated
/// twice: the second sweep adds onto the grads of the first.
StepResult taped_step_twice(const nn::GRUCell& cell, const Tensor& xv,
                            const Tensor& hv, const Tensor& weight,
                            bool x_grad, bool h_grad) {
  const Var x(xv, x_grad);
  const Var h(hv, h_grad);
  const Var y = cell.step(x, h);
  const Var loss = nn::sum_all(nn::mul(y, nn::constant(weight)));
  loss.backward();
  loss.backward();
  StepResult out;
  out.add(y.value());
  if (x_grad) out.add(x.grad(), /*rounded_grad=*/true);
  if (h_grad) out.add(h.grad(), cell.input_dim() % 4 != 0);
  out.add_params(cell);
  return out;
}

TEST(GruStepBackward, KernelMatchesComposedBackwardBitwise) {
  const Backend* simd = nn::kernels::simd_backend();
  if (simd == nullptr || simd->gru_step_backward == nullptr)
    GTEST_SKIP() << "no GRU backward kernel on this host";
  const Backend composed = without_gru_kernels(*simd);
  for (const std::size_t hid : {4, 8, 12, 16})
    for (const std::size_t in : {hid, std::size_t{8}, std::size_t{3}})
      for (const std::size_t rows : {0, 1, 2, 3, 229})
        for (const bool x_grad : {false, true})
          for (const bool h_grad : {false, true}) {
            SCOPED_TRACE("hid=" + std::to_string(hid) + " in=" +
                         std::to_string(in) + " rows=" +
                         std::to_string(rows) + " x_grad=" +
                         std::to_string(x_grad) +
                         " h_grad=" + std::to_string(h_grad));
            util::RngStream rng(7000 + 97 * hid + 13 * in + rows);
            const nn::GRUCell cell(in, hid, rng);
            const Tensor xv = random_tensor(rows, in, rng);
            const Tensor hv = random_tensor(rows, hid, rng);
            const Tensor weight = random_tensor(rows, hid, rng);
            StepResult want, got;
            {
              const ScopedBackendOverride pin(composed);
              want = taped_step_twice(cell, xv, hv, weight, x_grad, h_grad);
            }
            {
              const ScopedBackendOverride pin(*simd);
              got = taped_step_twice(cell, xv, hv, weight, x_grad, h_grad);
            }
            EXPECT_TRUE(matches(got, want, /*kernel_ran=*/true));
          }
}

/// The cell's parameters in GruWeights order.
nn::kernels::GruWeights weights_of(const nn::GRUCell& cell) {
  const auto params = cell.named_params();
  const auto p = [&](std::size_t i) {
    return params[i].second.value().flat().data();
  };
  return {p(0), p(1), p(2), p(3), p(4), p(5), p(6), p(7), p(8)};
}

// The raw entry declines a width it has no kernel for before touching any
// memory.  It never reads x, so the input width does not matter: a cell
// of 3 inputs and 12 state columns takes the kernel.
TEST(GruStepBackward, BackendEntryDeclinesUnsupportedShapes) {
  const Backend* simd = nn::kernels::simd_backend();
  if (simd == nullptr || simd->gru_step_backward == nullptr)
    GTEST_SKIP() << "no GRU backward kernel on this host";
  util::RngStream rng(7100);
  for (const auto& [in, hid] :
       {std::pair<std::size_t, std::size_t>{10, 10}, {3, 12}, {12, 20}}) {
    SCOPED_TRACE("in=" + std::to_string(in) + " hid=" + std::to_string(hid));
    nn::GRUCell cell(in, hid, rng);
    if (hid % 4 != 0 || hid > 16) {
      const nn::kernels::GruGrads none{};
      EXPECT_FALSE(simd->gru_step_backward(nullptr, nullptr, nullptr,
                                           nullptr, nullptr, nullptr, nullptr,
                                           nullptr, nullptr, nullptr, 5, hid,
                                           weights_of(cell), none));
      continue;
    }
    // One row with no dh: the DU row and the h-side grads are written.
    const Tensor h = random_tensor(1, hid, rng);
    const Tensor g = random_tensor(1, hid, rng);
    const Tensor acts = nn::uniform_init(3, hid, 0.1, 0.9, rng);
    Tensor du(1, 3 * hid);
    std::vector<Tensor> grads;
    for (const auto& [name, p] : cell.named_params())
      grads.emplace_back(p.rows(), p.cols());
    const auto d = [&](std::size_t i) { return grads[i].flat().data(); };
    const nn::kernels::GruGrads dw{d(0), d(1), d(2), d(3), d(4),
                                   d(5), d(6), d(7), d(8)};
    EXPECT_TRUE(simd->gru_step_backward(
        du.flat().data(), nullptr, nullptr, nullptr, g.flat().data(),
        h.flat().data(), nullptr, acts.row(0).data(), acts.row(1).data(),
        acts.row(2).data(), 1, hid, weights_of(cell), dw));
    EXPECT_NE(du(0, 0), 0.0);
    for (const std::size_t i : {0, 2, 3, 5, 6, 8})  // wx*, b*: untouched
      EXPECT_TRUE(
          bitwise_equal(grads[i], Tensor(grads[i].rows(), grads[i].cols())));
  }
}

// The raw kernel's DU rows and dh against the composed backward's
// formulas on the same backend: dan = g (1-z) (1-n n), daz = g (h-n) z
// (1-z), dar = drh h r (1-r) with drh = 0 + dan Whn^T, each row's
// [daz | dar | dan] added into its DU row in row order (repeated DU rows
// sum), and dh = (dh + (0 + [daz|dar] [Whz|Whr]^T)) + (g z + drh r).
// With a carry, g is first carry + g and dh replaces the carry row (dh
// from 0); without one, dh adds onto a non-zero buffer.
TEST(GruStepBackward, DuRowsMatchComposedFormulasBitwise) {
  const Backend* simd = nn::kernels::simd_backend();
  if (simd == nullptr || simd->gru_step_backward == nullptr)
    GTEST_SKIP() << "no GRU backward kernel on this host";
  constexpr std::size_t kSources = 5, kPaths = 40;
  for (const std::size_t hid : {4, 8, 12, 16})
    for (const std::size_t rows : {1, 3, 37})
      for (const bool carry : {false, true}) {
        SCOPED_TRACE("hid=" + std::to_string(hid) + " rows=" +
                     std::to_string(rows) + " carry=" + std::to_string(carry));
        util::RngStream rng(7150 + 31 * hid + rows + 1000 * carry);
        nn::GRUCell cell(hid, hid, rng);
        const nn::kernels::GruWeights w = weights_of(cell);
        const Tensor g = random_tensor(rows, hid, rng);
        const Tensor h = random_tensor(kPaths, hid, rng);
        const Tensor z = nn::uniform_init(rows, hid, 0.05, 0.95, rng);
        const Tensor r = nn::uniform_init(rows, hid, 0.05, 0.95, rng);
        const Tensor n = nn::uniform_init(rows, hid, -0.95, 0.95, rng);
        // dh rows: distinct carry rows of kPaths, or rows 0..rows-1.
        std::vector<Index> dh_rows(kPaths), h_rows(rows), du_rows(rows);
        std::iota(dh_rows.begin(), dh_rows.end(), Index{0});
        for (std::size_t i = 0; i < kPaths; ++i)
          std::swap(dh_rows[i], dh_rows[static_cast<std::size_t>(
                                    rng.uniform_int(static_cast<std::int64_t>(i),
                                                    kPaths - 1))]);
        for (std::size_t i = 0; i < rows; ++i) {
          h_rows[i] = static_cast<Index>(rng.uniform_int(0, kPaths - 1));
          du_rows[i] = static_cast<Index>(rng.uniform_int(0, kSources - 1));
          if (!carry) dh_rows[i] = static_cast<Index>(i);
        }
        const Tensor dh0 = random_tensor(kPaths, hid, rng);

        // The formulas, row by row, on the backend's matmul_nt_acc.
        Tensor gi(rows, hid), dan(rows, hid), dzr(rows, 2 * hid);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t c = 0; c < hid; ++c) {
            gi(i, c) = carry ? dh0(dh_rows[i], c) + g(i, c) : g(i, c);
            const double hv = h(h_rows[i], c);
            dan(i, c) = gi(i, c) * (1.0 - z(i, c)) * (1.0 - n(i, c) * n(i, c));
            dzr(i, c) = gi(i, c) * (hv - n(i, c)) * z(i, c) * (1.0 - z(i, c));
          }
        Tensor drh(rows, hid);
        simd->matmul_nt_acc(drh.flat().data(), dan.flat().data(), w.whn, rows,
                            hid, hid);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t c = 0; c < hid; ++c)
            dzr(i, hid + c) = drh(i, c) * h(h_rows[i], c) * r(i, c) *
                              (1.0 - r(i, c));
        Tensor want_du(kSources, 3 * hid);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t c = 0; c < 3 * hid; ++c)
            want_du(du_rows[i], c) +=
                c < 2 * hid ? dzr(i, c) : dan(i, c - 2 * hid);
        Tensor w_zr(hid, 2 * hid), s1(rows, hid);
        for (std::size_t j = 0; j < hid; ++j)
          for (std::size_t c = 0; c < hid; ++c) {
            w_zr(j, c) = w.whz[j * hid + c];
            w_zr(j, hid + c) = w.whr[j * hid + c];
          }
        simd->matmul_nt_acc(s1.flat().data(), dzr.flat().data(),
                            w_zr.flat().data(), rows, 2 * hid, hid);
        Tensor want_dh = dh0;
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t c = 0; c < hid; ++c) {
            double& d = want_dh(dh_rows[i], c);
            d = ((carry ? 0.0 : d) + (0.0 + s1(i, c))) +
                (gi(i, c) * z(i, c) + drh(i, c) * r(i, c));
          }

        Tensor du(kSources, 3 * hid), dh = dh0;
        std::vector<Tensor> grads;
        for (const auto& [name, p] : cell.named_params())
          grads.emplace_back(p.rows(), p.cols());
        const auto d = [&](std::size_t i) { return grads[i].flat().data(); };
        ASSERT_TRUE(simd->gru_step_backward(
            du.flat().data(), du_rows.data(), dh.flat().data(),
            carry ? dh_rows.data() : nullptr, g.flat().data(),
            h.flat().data(), h_rows.data(), z.flat().data(), r.flat().data(),
            n.flat().data(), rows, hid, w,
            {d(0), d(1), d(2), d(3), d(4), d(5), d(6), d(7), d(8)}));
        EXPECT_TRUE(bitwise_equal(du, want_du));
        EXPECT_TRUE(bitwise_equal(dh, want_dh));
      }
}

// ---- the taped sweep against the triple it replaced --------------------------

// Two positions of a path RNN over `kPaths` paths and `kElems` elements,
// as Model::forward runs them: each position steps a shuffled subset of
// the paths and messages the elements it read.
struct Unroll {
  static constexpr std::size_t kPaths = 300;
  static constexpr std::size_t kElems = 40;
  std::vector<std::vector<Index>> path_rows;
  std::vector<std::vector<Index>> elem_ids;

  Unroll(std::size_t rows, util::RngStream& rng) {
    for (std::size_t pos = 0; pos < 2; ++pos) {
      std::vector<Index> all(kPaths);
      std::iota(all.begin(), all.end(), Index{0});
      std::vector<Index> prow, eid;
      for (std::size_t i = 0; i < rows; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(i),
                            static_cast<std::int64_t>(kPaths) - 1));
        std::swap(all[i], all[j]);
        prow.push_back(all[i]);
        eid.push_back(static_cast<Index>(
            rng.uniform_int(0, static_cast<std::int64_t>(kElems) - 1)));
      }
      path_rows.push_back(std::move(prow));
      elem_ids.push_back(std::move(eid));
    }
  }
};

/// Runs the unroll, then back-propagates a loss that reads the final
/// states, every position's messages and the element states directly.
/// `indexed` picks the taped GruSweep; otherwise the gather -> step ->
/// scatter triple built from the public ops.
StepResult unroll(const nn::GRUCell& cell, const Unroll& u,
                  const Tensor& src0, const Tensor& hidden0,
                  const Tensor& w_state, const Tensor& w_msg, bool indexed) {
  const Var src(src0, true);
  const Var start(hidden0, true);
  Var hidden = start;
  nn::GruSweep sweep(cell, start, {src},
                     u.path_rows.size() * u.path_rows[0].size());
  std::vector<Tensor> values;
  Var loss = nn::sum_all(nn::mul(src, src));
  for (std::size_t pos = 0; pos < u.path_rows.size(); ++pos) {
    const std::vector<Index>& rows = u.path_rows[pos];
    const std::vector<Index>& ids = u.elem_ids[pos];
    Var msg;
    if (indexed) {
      sweep.step(src, ids, rows);
      msg = sweep.messages(Unroll::kElems);
      hidden = sweep.states();
    } else {
      const Var h2 =
          cell.step(nn::gather_rows(src, ids), nn::gather_rows(hidden, rows));
      hidden = nn::scatter_rows(hidden, rows, h2);
      msg = nn::segment_sum(h2, ids, Unroll::kElems);
    }
    values.push_back(hidden.value());
    values.push_back(msg.value());
    loss = nn::add(loss, nn::sum_all(nn::mul(msg, nn::constant(w_msg))));
  }
  loss = nn::add(loss, nn::sum_all(nn::mul(hidden, nn::constant(w_state))));
  loss.backward();
  StepResult out;
  for (const Tensor& v : values) out.add(v);
  out.add(hidden.value());
  out.add(loss.value());
  out.add(src.grad(), /*rounded_grad=*/true);
  out.add(start.grad());
  out.add_params(cell);
  return out;
}

TEST(GruStepBackward, IndexedStepMatchesGatherStepScatterBitwise) {
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const std::size_t hid : {4, 10, 12, 16})
      for (const std::size_t rows : {1, 3, 229}) {
        SCOPED_TRACE(std::string(backend->name) + " hid=" +
                     std::to_string(hid) + " rows=" + std::to_string(rows));
        util::RngStream rng(7200 + 31 * hid + rows);
        const nn::GRUCell cell(hid, hid, rng);
        const Unroll u(rows, rng);
        const Tensor src = random_tensor(Unroll::kElems, hid, rng);
        const Tensor hidden = random_tensor(Unroll::kPaths, hid, rng);
        const Tensor w_state = random_tensor(Unroll::kPaths, hid, rng);
        const Tensor w_msg = random_tensor(Unroll::kElems, hid, rng);
        const StepResult want =
            unroll(cell, u, src, hidden, w_state, w_msg, /*indexed=*/false);
        const StepResult got =
            unroll(cell, u, src, hidden, w_state, w_msg, /*indexed=*/true);
        EXPECT_TRUE(matches(got, want, backward_kernel_runs(*backend, hid)));
      }
  }
}

// ---- the sweep over real plans ----------------------------------------------

/// One topology's plans: every path of a generated sample, so path
/// lengths differ and some paths are one hop long.
struct PlanSet {
  core::MpPlan original, extended;
};

PlanSet plans_of(const topo::Topology& topology) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 2'000;
  const auto samples = data::generate_dataset(topology, 1, cfg, 23);
  return {core::build_plan(samples[0], false),
          core::build_plan(samples[0], true)};
}

const PlanSet& nsfnet_plans() {
  static const PlanSet plans = plans_of(topo::nsfnet());
  return plans;
}

const PlanSet& geant2_plans() {
  static const PlanSet plans = plans_of(topo::geant2());
  return plans;
}

/// The fixed inputs of one sweep: the cell, the initial path states, the
/// link and node states the positions read, and the loss weights.
struct SweepInputs {
  nn::GRUCell cell;
  Tensor initial, links, nodes;
  Tensor w_state, w_link, w_node;

  SweepInputs(const core::MpPlan& plan, std::size_t hid, util::RngStream& rng)
      : cell(hid, hid, rng),
        initial(random_tensor(plan.num_paths, hid, rng)),
        links(random_tensor(plan.num_links, hid, rng)),
        nodes(random_tensor(plan.num_nodes, hid, rng)),
        w_state(random_tensor(plan.num_paths, hid, rng)),
        w_link(random_tensor(plan.num_links, hid, rng)),
        w_node(random_tensor(plan.num_nodes, hid, rng)) {}
};

/// Which of the sweep's inputs require grad (the weights always do).
struct GradMask {
  bool initial, links, nodes;
};

/// Two rounds of forward and backward over every position of `plan`,
/// the second adding onto the grads of the first.  The loss reads the
/// sources directly, every position's messages and the final states.
/// `sweep` picks the taped GruSweep; otherwise gather_rows -> step ->
/// scatter_rows per position, messages by segment_sum of the step's
/// output.  Returns the second round's values, then every grad.
StepResult sweep_rounds(const SweepInputs& in, const core::MpPlan& plan,
                        GradMask mask, bool sweep) {
  const Var initial(in.initial, mask.initial);
  const Var links(in.links, mask.links);
  const Var nodes(in.nodes, mask.nodes);
  StepResult out;
  for (int round = 0; round < 2; ++round) {
    out = StepResult{};
    Var loss = nn::add(nn::sum_all(nn::mul(links, links)),
                       nn::sum_all(nn::mul(nodes, nodes)));
    nn::GruSweep sw(in.cell, initial, {links, nodes}, plan.total_entries());
    Var hidden = initial;
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const core::PlanPosition pos = plan.position(p);
      const Var& src = pos.is_node ? nodes : links;
      const std::size_t elems = pos.is_node ? plan.num_nodes : plan.num_links;
      Var msg;
      if (sweep) {
        sw.step(src, pos.elem_ids, pos.path_rows);
        msg = sw.messages(elems);
      } else {
        const Var h2 = in.cell.step(nn::gather_rows(src, pos.elem_ids),
                                    nn::gather_rows(hidden, pos.path_rows));
        hidden = nn::scatter_rows(hidden, pos.path_rows, h2);
        msg = nn::segment_sum(h2, pos.elem_ids, elems);
      }
      out.add(msg.value());
      loss = nn::add(loss, nn::sum_all(nn::mul(
                               msg, nn::constant(pos.is_node ? in.w_node
                                                             : in.w_link))));
    }
    if (sweep) hidden = sw.states();
    loss = nn::add(loss, nn::sum_all(nn::mul(hidden, nn::constant(in.w_state))));
    loss.backward();
    out.add(hidden.value());
    out.add(loss.value());
  }
  if (initial.requires_grad()) out.add(initial.grad());
  for (const Var* v : {&links, &nodes})
    if (v->requires_grad()) out.add(v->grad(), /*rounded_grad=*/true);
  out.add_params(in.cell);
  return out;
}

TEST(GruSweep, MatchesPerPositionTapeOnPlansBitwise) {
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const auto& [topo_name, plans_fn] :
         {std::pair{"nsfnet", &nsfnet_plans}, {"geant2", &geant2_plans}}) {
      const PlanSet& plans = plans_fn();
      for (const core::MpPlan* plan : {&plans.original, &plans.extended}) {
        // Paths of one hop stop early, so path lengths differ.
        const std::size_t hop = plan->interleaved() ? 2 : 1;
        ASSERT_EQ(plan->position(0).path_rows.size(), plan->num_paths);
        ASSERT_LT(plan->position(hop).path_rows.size(), plan->num_paths);
        for (const std::size_t hid : {4, 8, 10, 12, 16}) {
          util::RngStream rng(7300 + hid + 1000 * plan->interleaved());
          const SweepInputs in(*plan, hid, rng);
          for (const bool g_initial : {false, true})
            for (const bool g_links : {false, true})
              for (const bool g_nodes : {false, true}) {
                SCOPED_TRACE(std::string(backend->name) + " " + topo_name +
                             (plan->interleaved() ? " extended" : " original") +
                             " hid=" + std::to_string(hid) + " grads=" +
                             std::to_string(g_initial) +
                             std::to_string(g_links) +
                             std::to_string(g_nodes));
                const GradMask mask{g_initial, g_links, g_nodes};
                const StepResult want = sweep_rounds(in, *plan, mask, false);
                const StepResult got = sweep_rounds(in, *plan, mask, true);
                EXPECT_TRUE(
                    matches(got, want, backward_kernel_runs(*backend, hid)));
              }
        }
      }
    }
  }
}

// A path no position steps keeps its initial state and passes its grad
// straight through.
TEST(GruSweep, UnsteppedRowKeepsStateAndGrad) {
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    util::RngStream rng(7400);
    const nn::GRUCell cell(12, 12, rng);
    const Var initial(random_tensor(3, 12, rng), true);
    const Var links(random_tensor(2, 12, rng), true);
    const std::vector<Index> rows{2, 0}, ids{1, 1};
    nn::GruSweep sweep(cell, initial, {links}, rows.size());
    sweep.step(links, ids, rows);
    const Var states = sweep.states();
    for (std::size_t c = 0; c < 12; ++c)
      EXPECT_EQ(states.value()(1, c), initial.value()(1, c));
    nn::sum_all(states).backward();
    for (std::size_t c = 0; c < 12; ++c)
      EXPECT_EQ(initial.grad()(1, c), 1.0);
  }
}

// Every guard throws before the arena is written: the states read back
// unchanged and a later valid step still runs.
TEST(GruSweep, StepValidatesBeforeWriting) {
  util::RngStream rng(7500);
  const nn::GRUCell cell(12, 12, rng);
  const Var links(random_tensor(5, 12, rng), true);
  const Var stranger(random_tensor(5, 12, rng), true);
  const Tensor start = random_tensor(6, 12, rng);
  const std::vector<Index> ok_ids{0, 4}, bad_ids{0, 5};
  const std::vector<Index> ok_rows{1, 3}, bad_rows{1, 6}, dup_rows{3, 3};
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const bool taped : {false, true}) {
      SCOPED_TRACE(std::string(backend->name) + " taped=" +
                   std::to_string(taped));
      std::optional<nn::NoGradGuard> guard;
      if (!taped) guard.emplace();
      const Var initial{Tensor(start)};
      nn::GruSweep sweep(cell, initial, {links}, ok_rows.size());
      EXPECT_THROW(sweep.step(links, bad_ids, ok_rows), std::out_of_range);
      EXPECT_THROW(sweep.step(links, ok_ids, bad_rows), std::out_of_range);
      EXPECT_THROW(sweep.step(links, ok_ids, dup_rows), std::invalid_argument);
      EXPECT_THROW(sweep.step(stranger, ok_ids, ok_rows),
                   std::invalid_argument);
      EXPECT_TRUE(bitwise_equal(sweep.states().value(), start));
      sweep.step(links, ok_ids, ok_rows);
      if (taped) {  // the arena holds exactly `entries` stepped rows
        EXPECT_THROW(sweep.step(links, ok_ids, ok_rows), std::invalid_argument);
      }
    }
  }
}

// step_indexed is the untaped update only.
TEST(GruSweep, StepIndexedRefusesATape) {
  util::RngStream rng(7600);
  const nn::GRUCell cell(4, 4, rng);
  const Var links(random_tensor(2, 4, rng), true);
  Var hidden(random_tensor(2, 4, rng));
  const std::vector<Index> rows{0}, ids{1};
  EXPECT_THROW(cell.step_indexed(links, ids, hidden, rows), std::logic_error);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a64(std::uint64_t h, const Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.flat().data());
  for (std::size_t i = 0; i < t.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

const data::Dataset& nsfnet_samples() {
  static const data::Dataset ds = [] {
    data::GeneratorConfig cfg;
    cfg.target_packets = 4'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 2, cfg, 17));
  }();
  return ds;
}

TEST(TrainGolden, Avx2GradientDigest) {
  const Backend* simd = nn::kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "no AVX2 backend on this host";
  const ScopedBackendOverride pin(*simd);
  const data::Dataset& ds = nsfnet_samples();
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  std::uint64_t h = kFnvOffset;
  for (const core::ModelKind kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended})
    for (const core::NodeUpdateRule rule :
         {core::NodeUpdateRule::kSumPathStates,
          core::NodeUpdateRule::kPositionalMessages})
      for (const bool link_mean : {false, true})
        for (const bool node_mean : {false, true})
          for (const std::size_t dim : {4, 10, 12, 16}) {
            core::ModelConfig cfg;
            cfg.state_dim = dim;
            cfg.readout_hidden = 8;
            cfg.iterations = 3;
            cfg.node_rule = rule;
            cfg.link_mean_aggregation = link_mean;
            cfg.node_mean_aggregation = node_mean;
            const core::Model model(kind, cfg);
            for (const auto& s : ds.samples()) {
              const nn::Var loss = core::Trainer::sample_loss(
                  model, s, sc, core::TrainConfig{}.min_delivered);
              ASSERT_TRUE(loss.defined());
              h = fnv1a64(h, loss.value());
              loss.backward();
              for (auto& [name, var] : model.named_params()) {
                h = fnv1a64(h, var.grad());
                var.zero_grad();
              }
            }
          }
  EXPECT_EQ(h, 0xa1d0617295494c41ull) << std::hex << "0x" << h;
}

}  // namespace

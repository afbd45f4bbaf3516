// Gradient oracles for the taped GRU step.
//
//   * GruStepBackward: the backend's whole-step kernels (forward with
//     saved activations, gru_step_backward) against the composed passes
//     and backward of the same backend, bit for bit, for every kernel
//     width, ragged row counts, every combination of x/h requires_grad
//     and a second backward that accumulates onto non-zero grads; and
//     the taped path-RNN sweep over shuffled positions against
//     gather_rows -> step -> scatter_rows rebuilt from the public ops, on
//     the scalar and the SIMD backend;
//   * GruSweep: the taped sweep over real NSFNET and GEANT2 plans against
//     the same per-position tape, values and every grad bit for bit, for
//     widths with and without a kernel, every requires_grad combination
//     of its sources and a second round accumulating onto the grads of
//     the first; and its guards;
//   * TrainGolden: a digest of every parameter gradient of
//     Trainer::sample_loss over the ForwardOracle sweep (both model
//     kinds, both node rules, mean aggregation on and off, widths with
//     and without a kernel) on the SIMD backend.  It was first captured
//     before the taped step ran the whole-step kernels, so it pins the
//     kernels' gradients to the composed ones bit for bit.  It was
//     re-captured when the AVX2 sigmoid and tanh became one division per
//     vector: 243,363 of the 270,816 digested losses and grads moved, by
//     at most 3.9e-14 absolute.
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

/// Every tensor a backward touched: the output, the inputs' grads (when
/// they require grad) and the cell's parameter grads.
struct StepResult {
  std::vector<Tensor> tensors;

  [[nodiscard]] bool operator==(const StepResult& o) const {
    if (tensors.size() != o.tensors.size()) return false;
    for (std::size_t i = 0; i < tensors.size(); ++i)
      if (!bitwise_equal(tensors[i], o.tensors[i])) return false;
    return true;
  }
};

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
  StepResult out{{y.value()}};
  if (x_grad) out.tensors.push_back(x.grad());
  if (h_grad) out.tensors.push_back(h.grad());
  for (auto& [name, p] : cell.named_params()) {
    out.tensors.push_back(p.grad());
    p.zero_grad();
  }
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
            EXPECT_TRUE(got == want);
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

// The raw entry declines a width or input width it has no kernel for
// before touching any memory.
TEST(GruStepBackward, BackendEntryDeclinesUnsupportedShapes) {
  const Backend* simd = nn::kernels::simd_backend();
  if (simd == nullptr || simd->gru_step_backward == nullptr)
    GTEST_SKIP() << "no GRU backward kernel on this host";
  util::RngStream rng(7100);
  for (const auto& [in, hid] :
       {std::pair<std::size_t, std::size_t>{10, 10}, {3, 12}, {12, 20}}) {
    const nn::GRUCell cell(in, hid, rng);
    const nn::kernels::GruGrads none{};
    EXPECT_FALSE(simd->gru_step_backward(nullptr, nullptr, none, nullptr,
                                         nullptr, nullptr, nullptr, nullptr,
                                         nullptr, nullptr, nullptr, 5, in,
                                         hid, weights_of(cell)));
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
  StepResult out{std::move(values)};
  out.tensors.push_back(hidden.value());
  out.tensors.push_back(loss.value());
  out.tensors.push_back(src.grad());
  out.tensors.push_back(start.grad());
  for (auto& [name, p] : cell.named_params()) {
    out.tensors.push_back(p.grad());
    p.zero_grad();
  }
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
        EXPECT_TRUE(got == want);
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
    out.tensors.clear();
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
      out.tensors.push_back(msg.value());
      loss = nn::add(loss, nn::sum_all(nn::mul(
                               msg, nn::constant(pos.is_node ? in.w_node
                                                             : in.w_link))));
    }
    if (sweep) hidden = sw.states();
    loss = nn::add(loss, nn::sum_all(nn::mul(hidden, nn::constant(in.w_state))));
    loss.backward();
    out.tensors.push_back(hidden.value());
    out.tensors.push_back(loss.value());
  }
  for (const Var* v : {&initial, &links, &nodes})
    if (v->requires_grad()) out.tensors.push_back(v->grad());
  for (auto& [name, p] : in.cell.named_params()) {
    out.tensors.push_back(p.grad());
    p.zero_grad();
  }
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
                EXPECT_TRUE(got == want);
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
  EXPECT_EQ(h, 0x0c8df01131aac8f9ull) << std::hex << "0x" << h;
}

}  // namespace

// The no-tape fast path of the position-vectorized path RNN
// (GRUCell::step_indexed, kernels::Backend::gru_step) against the taped
// gather_rows -> step -> scatter_rows composition it replaces:
//
//   * kernel level: bitwise equal for every supported width, ragged row
//     counts, arbitrary (unsorted, repeating) element ids and in-place
//     aliasing, on the scalar and the SIMD backend;
//   * model level: the taped forward equals the no-tape forward bitwise
//     for both kinds, both node rules, mean aggregation on and off, and
//     state widths with and without a kernel;
//   * index guards: corrupted link and node ids, short per-entity
//     vectors and short node sequences in a Sample raise
//     std::out_of_range from Model::forward, InferenceEngine::predict and
//     the taped forward of Trainer::sample_loss instead of reading or
//     writing out of bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "serve/inference.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "kernel_tables.hpp"

namespace {

using rnx::test::simd_tables;

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

/// Every kernel table this CPU can run.
std::vector<const Backend*> backends() { return rnx::test::all_tables(); }

Tensor random_tensor(std::size_t r, std::size_t c, util::RngStream& rng) {
  return nn::uniform_init(r, c, -2.0, 2.0, rng);
}

// One GRU position: `rows` distinct path rows in shuffled order out of
// kPaths, element ids drawn with repeats out of kElems.
struct Position {
  static constexpr std::int64_t kPaths = 300;
  static constexpr std::int64_t kElems = 40;
  std::vector<Index> path_rows;
  std::vector<Index> elem_ids;

  Position(std::size_t rows, util::RngStream& rng) {
    std::vector<Index> all(static_cast<std::size_t>(kPaths));
    std::iota(all.begin(), all.end(), Index{0});
    for (std::size_t i = 0; i < rows; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i), kPaths - 1));
      std::swap(all[i], all[j]);
      path_rows.push_back(all[i]);
      elem_ids.push_back(static_cast<Index>(rng.uniform_int(0, kElems - 1)));
    }
  }
};

/// gather_rows -> step -> scatter_rows with a tape recorded, so the step
/// is step_fused (or step_composed when the cell is unfused).
Tensor taped_reference(const nn::GRUCell& cell, const Var& src,
                       const Var& hidden, const Position& pos) {
  const Var h2 = cell.step(nn::gather_rows(src, pos.elem_ids),
                           nn::gather_rows(hidden, pos.path_rows));
  return nn::scatter_rows(hidden, pos.path_rows, h2).value();
}

// ---- kernel level -----------------------------------------------------------

TEST(GruStepKernel, IndexedStepMatchesTapedCompositionBitwise) {
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const std::size_t hid : {4, 8, 10, 12, 16})
      for (const std::size_t in : {hid, std::size_t{3}})
        for (const std::size_t rows : {0, 1, 2, 3, 229}) {
          SCOPED_TRACE(std::string(backend->name) + " hid=" +
                       std::to_string(hid) + " in=" + std::to_string(in) +
                       " rows=" + std::to_string(rows));
          util::RngStream rng(1000 + 31 * hid + 7 * in + rows);
          const nn::GRUCell cell(in, hid, rng);
          const Var src(random_tensor(Position::kElems, in, rng));
          const Tensor start = random_tensor(Position::kPaths, hid, rng);
          const Position pos(rows, rng);
          const Tensor want = taped_reference(cell, src, Var(start), pos);

          // In place: hidden is the only handle, so its rows are updated
          // without a copy.
          Var hidden{Tensor(start)};
          const double* storage = hidden.value().flat().data();
          {
            const nn::NoGradGuard guard;
            cell.step_indexed(src, pos.elem_ids, hidden, pos.path_rows);
          }
          EXPECT_EQ(hidden.value().flat().data(), storage);
          EXPECT_TRUE(bitwise_equal(hidden.value(), want));

          // Shared hidden: copied first, the other handle keeps the old
          // states.
          const Var shared{Tensor(start)};
          Var alias = shared;
          {
            const nn::NoGradGuard guard;
            cell.step_indexed(src, pos.elem_ids, alias, pos.path_rows);
          }
          EXPECT_TRUE(bitwise_equal(shared.value(), start));
          EXPECT_TRUE(bitwise_equal(alias.value(), want));
        }
  }
}

TEST(GruStepKernel, ContiguousStepMatchesTapedStepBitwise) {
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const std::size_t hid : {4, 8, 10, 12, 16})
      for (const std::size_t rows : {0, 1, 2, 3, 229}) {
        SCOPED_TRACE(std::string(backend->name) + " hid=" +
                     std::to_string(hid) + " rows=" + std::to_string(rows));
        util::RngStream rng(2000 + 13 * hid + rows);
        const nn::GRUCell cell(hid, hid, rng);
        const Var x(random_tensor(rows, hid, rng));
        const Var h(random_tensor(rows, hid, rng));
        const Tensor want = cell.step(x, h).value();  // taped: step_fused
        const nn::NoGradGuard guard;
        EXPECT_TRUE(bitwise_equal(cell.step(x, h).value(), want));
      }
  }
}

/// The cell's parameters in GruWeights order (named_params lists them
/// as wxz, whz, bz, wxr, whr, br, wxn, whn, bn).
nn::kernels::GruWeights weights_of(const nn::GRUCell& cell) {
  const auto params = cell.named_params();
  const auto p = [&](std::size_t i) {
    return params[i].second.value().flat().data();
  };
  return {p(0), p(1), p(2), p(3), p(4), p(5), p(6), p(7), p(8)};
}

// The raw backend entries: widths they claim, out-of-place and in-place
// output, and the decline that leaves memory untouched.  gru_project
// runs once over the whole source; every gru_step call reads its rows by
// element id.
TEST(GruStepKernel, BackendEntryWidthsAndAliasing) {
  std::vector<const Backend*> simds;
  for (const Backend* b : simd_tables())
    if (b->gru_step != nullptr && b->gru_project != nullptr)
      simds.push_back(b);
  if (simds.empty()) GTEST_SKIP() << "no whole-step GRU kernel on this host";
  for (const Backend* simd : simds) {
    SCOPED_TRACE(simd->name);
    const ScopedBackendOverride pin(*simd);
    const auto p = [](const Var& v) { return v.value().flat().data(); };
    for (const std::size_t hid : {4, 8, 12, 16}) {
      SCOPED_TRACE("hid=" + std::to_string(hid));
      util::RngStream rng(3000 + hid);
      const nn::GRUCell cell(hid, hid, rng);
      const nn::kernels::GruWeights w = weights_of(cell);
      const Var src(random_tensor(Position::kElems, hid, rng));
      const Tensor start = random_tensor(Position::kPaths, hid, rng);
      const Position pos(229, rng);
      const Tensor want = taped_reference(cell, src, Var(start), pos);

      Tensor u(Position::kElems, 3 * hid);
      ASSERT_TRUE(simd->gru_project(u.flat().data(), p(src), nullptr,
                                    Position::kElems, hid, hid, w));
      Tensor out_of_place = Tensor::zeros(Position::kPaths, hid);
      ASSERT_TRUE(simd->gru_step(out_of_place.flat().data(),
                                 pos.path_rows.data(), u.flat().data(),
                                 pos.elem_ids.data(), start.flat().data(),
                                 pos.path_rows.data(), pos.path_rows.size(),
                                 hid, w, nullptr));
      Tensor in_place = start;
      ASSERT_TRUE(simd->gru_step(in_place.flat().data(), pos.path_rows.data(),
                                 u.flat().data(), pos.elem_ids.data(),
                                 in_place.flat().data(), pos.path_rows.data(),
                                 pos.path_rows.size(), hid, w, nullptr));
      // Contiguous output: row i of y for the i-th stepped row.
      Tensor contiguous = Tensor::zeros(pos.path_rows.size(), hid);
      ASSERT_TRUE(simd->gru_step(contiguous.flat().data(), nullptr,
                                 u.flat().data(), pos.elem_ids.data(),
                                 start.flat().data(), pos.path_rows.data(),
                                 pos.path_rows.size(), hid, w, nullptr));
      EXPECT_TRUE(bitwise_equal(in_place, want));
      for (std::size_t i = 0; i < pos.path_rows.size(); ++i)
        for (std::size_t c = 0; c < hid; ++c) {
          EXPECT_EQ(out_of_place(pos.path_rows[i], c),
                    want(pos.path_rows[i], c));
          EXPECT_EQ(contiguous(i, c), want(pos.path_rows[i], c));
        }
    }

    // An unsupported width is declined before any memory is touched.
    util::RngStream rng(3100);
    const nn::GRUCell cell(10, 10, rng);
    const nn::kernels::GruWeights w = weights_of(cell);
    EXPECT_FALSE(simd->gru_step(nullptr, nullptr, nullptr, nullptr, nullptr,
                                nullptr, 5, 10, w, nullptr));
    const Tensor x = random_tensor(5, 10, rng);
    const Tensor untouched = random_tensor(5, 30, rng);
    Tensor u = untouched;
    EXPECT_FALSE(simd->gru_project(u.flat().data(), x.flat().data(), nullptr, 5,
                                   10, 10, w));
    EXPECT_TRUE(bitwise_equal(u, untouched));
    EXPECT_FALSE(simd->gru_project(nullptr, nullptr, nullptr, 5, 10, 10, w));
  }
}

TEST(GruStepKernel, IndexedStepValidatesBeforeReading) {
  util::RngStream rng(4000);
  const nn::GRUCell cell(12, 12, rng);
  const Var src(random_tensor(5, 12, rng));
  const Tensor start = random_tensor(6, 12, rng);
  const std::vector<Index> ok_ids{0, 4}, bad_ids{0, 5};
  const std::vector<Index> ok_rows{1, 3}, bad_rows{1, 6}, dup_rows{3, 3};
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    const nn::NoGradGuard guard;
    Var hidden{Tensor(start)};
    EXPECT_THROW(cell.step_indexed(src, bad_ids, hidden, ok_rows),
                 std::out_of_range);
    EXPECT_THROW(cell.step_indexed(src, ok_ids, hidden, bad_rows),
                 std::out_of_range);
    EXPECT_THROW(cell.step_indexed(src, ok_ids, hidden, dup_rows),
                 std::invalid_argument);
    EXPECT_THROW(cell.step_indexed(src, ok_ids, hidden,
                                         std::span<const Index>(ok_rows).first(1)),
                 std::invalid_argument);
    EXPECT_TRUE(bitwise_equal(hidden.value(), start));
  }
}

// ModelConfig::fused_gru = false keeps the op-by-op composition on the
// no-tape path too: step and step_indexed equal step_composed bitwise.
TEST(GruStepKernel, UnfusedCellRoutesThroughComposed) {
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    util::RngStream rng(5000);
    nn::GRUCell cell(12, 12, rng);
    cell.set_fused(false);
    const Var src(random_tensor(Position::kElems, 12, rng));
    const Tensor start = random_tensor(Position::kPaths, 12, rng);
    const Position pos(229, rng);
    const Var x = nn::gather_rows(src, pos.elem_ids);
    const Var h = nn::gather_rows(Var(start), pos.path_rows);
    const Tensor composed = cell.step_composed(x, h).value();
    const Tensor want = nn::scatter_rows(Var(start), pos.path_rows,
                                         Var(composed)).value();

    const nn::NoGradGuard guard;
    EXPECT_TRUE(bitwise_equal(cell.step(x, h).value(), composed));
    Var hidden{Tensor(start)};
    cell.step_indexed(src, pos.elem_ids, hidden, pos.path_rows);
    EXPECT_TRUE(bitwise_equal(hidden.value(), want));
  }
}

// ---- model level ------------------------------------------------------------

const data::Dataset& nsfnet_samples() {
  static const data::Dataset ds = [] {
    data::GeneratorConfig cfg;
    cfg.target_packets = 4'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 2, cfg, 17));
  }();
  return ds;
}

TEST(ForwardOracle, TapedEqualsNoTapeBitwise) {
  const data::Dataset& ds = nsfnet_samples();
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const core::ModelKind kind :
         {core::ModelKind::kOriginal, core::ModelKind::kExtended})
      for (const core::NodeUpdateRule rule :
           {core::NodeUpdateRule::kSumPathStates,
            core::NodeUpdateRule::kPositionalMessages})
        for (const bool link_mean : {false, true})
          for (const bool node_mean : {false, true})
            for (const std::size_t dim : {4, 10, 12, 16}) {
              SCOPED_TRACE(std::string(backend->name) + " " +
                           std::string(core::to_string(kind)) + " rule=" +
                           std::to_string(static_cast<int>(rule)) +
                           " link_mean=" + std::to_string(link_mean) +
                           " node_mean=" + std::to_string(node_mean) +
                           " dim=" + std::to_string(dim));
              core::ModelConfig cfg;
              cfg.state_dim = dim;
              cfg.readout_hidden = 8;
              cfg.iterations = 3;
              cfg.node_rule = rule;
              cfg.link_mean_aggregation = link_mean;
              cfg.node_mean_aggregation = node_mean;
              const core::Model model(kind, cfg);
              for (const auto& s : ds.samples()) {
                const Tensor taped = model.forward(s, sc).value();
                const nn::NoGradGuard guard;
                EXPECT_TRUE(bitwise_equal(model.forward(s, sc).value(), taped));
              }
            }
  }
}

// fused_gru = false changes the forward's bits (the composed step rounds
// differently) — proof the flag still reaches the no-tape path.
TEST(ForwardOracle, UnfusedConfigStaysComposed) {
  const data::Dataset& ds = nsfnet_samples();
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig cfg;
  cfg.state_dim = 12;
  core::ModelConfig unfused_cfg = cfg;
  unfused_cfg.fused_gru = false;
  const core::Model fused(core::ModelKind::kExtended, cfg);
  const core::Model unfused(core::ModelKind::kExtended, unfused_cfg);
  const data::Sample& s = ds.samples()[0];
  const Tensor unfused_taped = unfused.forward(s, sc).value();
  const nn::NoGradGuard guard;
  const Tensor unfused_free = unfused.forward(s, sc).value();
  EXPECT_TRUE(bitwise_equal(unfused_free, unfused_taped));
  EXPECT_FALSE(bitwise_equal(unfused_free, fused.forward(s, sc).value()));
}

// ---- index guards at the model boundary ---------------------------------------

/// Low enough that the NSFNET samples have labelled paths, so
/// Trainer::sample_loss runs the forward.
constexpr std::uint64_t kMinDelivered = 1;

/// One way a Sample can be corrupt.  `extended_only` marks fields the
/// original model never reads (node ids, queue sizes): for it the
/// corruption is inert.
struct Corruption {
  const char* name;
  bool scale_invariant;
  bool extended_only;
  void (*apply)(data::Sample&);
};

void corrupt_link_id(data::Sample& s) {
  s.paths[0].links[0] = static_cast<std::uint32_t>(s.num_links());
}
void corrupt_node_id(data::Sample& s) { s.paths[0].nodes[0] = s.num_nodes; }

// The ids reach the GRU's guards; the other fields are read before them,
// by the scale-invariant features, the initial link and node states and
// build_plan.
const Corruption kCorruptions[] = {
    {"link id", false, false, corrupt_link_id},
    {"node id", false, true, corrupt_node_id},
    // Far past the end, so an unchecked access faults instead of
    // landing in heap slack.
    {"link id, scale-invariant features", true, false,
     [](data::Sample& s) {
       s.paths[0].links[0] = std::numeric_limits<std::uint32_t>::max();
     }},
    {"short capacity vector", false, false,
     [](data::Sample& s) { s.link_capacity_bps.resize(s.num_links() / 2); }},
    {"short queue vector", false, true,
     [](data::Sample& s) { s.queue_pkts.resize(s.num_nodes / 2); }},
    {"path with fewer nodes than links", false, true,
     [](data::Sample& s) {
       data::PathRecord& p = s.paths[0];
       p.nodes.resize(p.links.size() - 1);
     }},
};

TEST(ModelIndexGuards, CorruptedIdsThrowOutOfRange) {
  const data::Dataset& ds = nsfnet_samples();
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const core::ModelKind kind :
         {core::ModelKind::kOriginal, core::ModelKind::kExtended})
      for (const Corruption& c : kCorruptions) {
        SCOPED_TRACE(std::string(backend->name) + " " +
                     std::string(core::to_string(kind)) + " " + c.name);
        core::ModelConfig cfg;
        cfg.state_dim = 12;
        cfg.scale_invariant_features = c.scale_invariant;
        // Mean aggregation counts ids before the first gather; the next
        // test covers that guard.
        cfg.node_mean_aggregation = false;
        data::Sample bad = ds.samples()[0];
        c.apply(bad);
        serve::ModelBundle bundle;
        bundle.model = core::make_model(kind, cfg);
        bundle.scaler = sc;
        const serve::InferenceEngine engine(std::move(bundle));
        const core::Model& model = engine.model();
        // The taped forward training runs: the guards throw before the
        // path-RNN sweep writes its arena.
        const auto taped_loss = [&] {
          return core::Trainer::sample_loss(model, bad, sc, kMinDelivered);
        };
        if (c.extended_only && kind == core::ModelKind::kOriginal) {
          {
            const nn::NoGradGuard guard;
            const Var pred = model.forward(bad, sc);
            for (const double v : pred.value().flat())
              EXPECT_TRUE(std::isfinite(v));
          }
          for (const double v : engine.predict(bad)) EXPECT_TRUE(std::isfinite(v));
          const Var loss = taped_loss();
          ASSERT_TRUE(loss.defined());
          EXPECT_TRUE(std::isfinite(loss.value().item()));
          continue;
        }
        {
          const nn::NoGradGuard guard;
          EXPECT_THROW((void)model.forward(bad, sc), std::out_of_range);
        }
        EXPECT_THROW((void)engine.predict(bad), std::out_of_range);
        ASSERT_TRUE(core::Trainer::sample_loss(model, ds.samples()[0], sc,
                                               kMinDelivered)
                        .defined());  // the clean sample reaches the forward
        EXPECT_THROW((void)taped_loss(), std::out_of_range);
      }
  }
}

// Mean aggregation counts messages per id before the first gather runs;
// a corrupted id must not write past its counter array, with a tape or
// without.
TEST(ModelIndexGuards, MeanAggregationRejectsCorruptedIds) {
  const data::Dataset& ds = nsfnet_samples();
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig cfg;
  cfg.state_dim = 12;
  cfg.link_mean_aggregation = true;
  cfg.node_mean_aggregation = true;
  const core::Model model(core::ModelKind::kExtended, cfg);
  for (const Backend* backend : backends()) {
    const ScopedBackendOverride pin(*backend);
    for (const auto corrupt : {corrupt_link_id, corrupt_node_id}) {
      data::Sample bad = ds.samples()[0];
      corrupt(bad);
      EXPECT_THROW(
          (void)core::Trainer::sample_loss(model, bad, sc, kMinDelivered),
          std::out_of_range);
      const nn::NoGradGuard guard;
      EXPECT_THROW((void)model.forward(bad, sc), std::out_of_range);
    }
  }
}

// Scenario enums select one-hot input columns.  A value past the known
// members must throw before initial_path_states / initial_link_states
// write its column: unchecked, traffic = 200 writes past the state
// tensor's heap buffer.
void expect_scenario_enum_rejected(void (*corrupt)(data::Sample&),
                                   const char* field) {
  const data::Dataset& ds = nsfnet_samples();
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig cfg;
  cfg.state_dim = 12;
  cfg.scenario_features = true;
  const nn::NoGradGuard guard;
  for (const core::ModelKind kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    SCOPED_TRACE(core::to_string(kind));
    const core::Model model(kind, cfg);
    data::Sample s = ds.samples()[0];
    s.scenario_recorded = true;
    EXPECT_NO_THROW((void)model.forward(s, sc));
    corrupt(s);
    try {
      (void)model.forward(s, sc);
      ADD_FAILURE() << field << " out of range accepted";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelEnumGuards, OutOfRangeTrafficProcessThrows) {
  expect_scenario_enum_rejected(
      [](data::Sample& s) {
        s.scenario.traffic = static_cast<sim::TrafficProcess>(200);
      },
      "traffic process");
}

TEST(ModelEnumGuards, OutOfRangeSchedulerPolicyThrows) {
  expect_scenario_enum_rejected(
      [](data::Sample& s) {
        s.scenario.policy = static_cast<sim::SchedulerPolicy>(200);
      },
      "scheduler policy");
}

}  // namespace

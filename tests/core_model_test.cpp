// Tests for the RouteNet model of both kinds: shapes, determinism, feature
// sensitivity (the architectural point of the paper), gradient flow into
// every parameter, weight persistence, and trainability.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "nn/ops.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;

data::Dataset small_dataset(std::size_t n = 6, std::uint64_t seed = 5) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 8'000;
  return data::Dataset(
      data::generate_dataset(topo::ring(5), n, cfg, seed));
}

core::ModelConfig tiny_config() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 8;
  mc.iterations = 2;
  return mc;
}

TEST(ModelForward, OutputShapeMatchesPaths) {
  const data::Dataset ds = small_dataset(2);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  const core::Model orig(core::ModelKind::kOriginal, tiny_config());
  const core::Model ext(core::ModelKind::kExtended, tiny_config());
  for (const auto& s : ds.samples()) {
    const nn::NoGradGuard guard;
    const nn::Var a = orig.forward(s, sc);
    const nn::Var b = ext.forward(s, sc);
    EXPECT_EQ(a.rows(), s.paths.size());
    EXPECT_EQ(a.cols(), 1u);
    EXPECT_EQ(b.rows(), s.paths.size());
    EXPECT_EQ(b.cols(), 1u);
  }
}

TEST(ModelForward, DeterministicGivenWeights) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  const core::Model m(core::ModelKind::kExtended, tiny_config());
  const nn::NoGradGuard guard;
  const nn::Var a = m.forward(ds[0], sc);
  const nn::Var b = m.forward(ds[0], sc);
  for (std::size_t i = 0; i < a.rows(); ++i)
    EXPECT_DOUBLE_EQ(a.value()(i, 0), b.value()(i, 0));
}

TEST(ModelForward, InitSeedChangesPredictions) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig c1 = tiny_config();
  core::ModelConfig c2 = tiny_config();
  c2.init_seed = 777;
  const core::Model m1(core::ModelKind::kExtended, c1);
  const core::Model m2(core::ModelKind::kExtended, c2);
  const nn::NoGradGuard guard;
  EXPECT_NE(m1.forward(ds[0], sc).value()(0, 0),
            m2.forward(ds[0], sc).value()(0, 0));
}

// The architectural point of the paper: the extended model *sees* queue
// sizes; the original is provably blind to them.
TEST(QueueSensitivity, ExtendedSeesQueuesOriginalDoesNot) {
  const data::Dataset ds = small_dataset(2);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  data::Sample flipped = ds[0];
  for (auto& q : flipped.queue_pkts)
    q = (q == topo::kTinyQueuePackets) ? topo::kStandardQueuePackets
                                       : topo::kTinyQueuePackets;

  const nn::NoGradGuard guard;
  const core::Model orig(core::ModelKind::kOriginal, tiny_config());
  const core::Model ext(core::ModelKind::kExtended, tiny_config());

  const nn::Var orig_a = orig.forward(ds[0], sc);
  const nn::Var orig_b = orig.forward(flipped, sc);
  const nn::Var ext_a = ext.forward(ds[0], sc);
  const nn::Var ext_b = ext.forward(flipped, sc);

  double orig_diff = 0.0, ext_diff = 0.0;
  for (std::size_t i = 0; i < orig_a.rows(); ++i) {
    orig_diff += std::abs(orig_a.value()(i, 0) - orig_b.value()(i, 0));
    ext_diff += std::abs(ext_a.value()(i, 0) - ext_b.value()(i, 0));
  }
  EXPECT_DOUBLE_EQ(orig_diff, 0.0);  // original cannot react to queues
  EXPECT_GT(ext_diff, 1e-6);         // extended must react
}

TEST(TrafficSensitivity, BothModelsReactToTraffic) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  data::Sample heavier = ds[0];
  for (auto& p : heavier.paths) p.traffic_bps *= 3.0;
  const nn::NoGradGuard guard;
  for (const core::ModelKind kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    const std::unique_ptr<core::Model> m =
        core::make_model(kind, tiny_config());
    const nn::Var a = m->forward(ds[0], sc);
    const nn::Var b = m->forward(heavier, sc);
    double diff = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
      diff += std::abs(a.value()(i, 0) - b.value()(i, 0));
    EXPECT_GT(diff, 1e-6) << m->name();
  }
}

TEST(ModelGradients, FlowIntoEveryParameter) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  for (const bool extended : {false, true}) {
    std::unique_ptr<core::Model> m;
    if (extended)
      m = core::make_model(core::ModelKind::kExtended, tiny_config());
    else
      m = core::make_model(core::ModelKind::kOriginal, tiny_config());
    const nn::Var loss =
        core::Trainer::sample_loss(*m, ds[0], sc, /*min_delivered=*/1);
    ASSERT_TRUE(loss.defined());
    loss.backward();
    for (auto& [name, v] : m->named_params()) {
      double norm = 0.0;
      for (const double g : v.grad().flat()) norm += g * g;
      EXPECT_GT(norm, 0.0) << (extended ? "ext " : "orig ") << name;
    }
  }
}

TEST(ModelGradients, NodeRuleVariantsBothTrain) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  for (const auto rule : {core::NodeUpdateRule::kSumPathStates,
                          core::NodeUpdateRule::kPositionalMessages}) {
    core::ModelConfig mc = tiny_config();
    mc.node_rule = rule;
    const core::Model m(core::ModelKind::kExtended, mc);
    const nn::Var loss = core::Trainer::sample_loss(m, ds[0], sc, 1);
    ASSERT_TRUE(loss.defined());
    loss.backward();
    // RNN_N must receive gradient under both rules.
    for (auto& [name, v] : m.named_params())
      if (name.rfind("rnn_n", 0) == 0) {
        double norm = 0.0;
        for (const double g : v.grad().flat()) norm += g * g;
        EXPECT_GT(norm, 0.0) << name;
      }
  }
}

TEST(ModelPersistence, SaveLoadReproducesPredictions) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  const std::string path = "/tmp/rnx_model_test.rnxw";
  core::Model a(core::ModelKind::kExtended, tiny_config());
  a.save_weights(path);
  core::ModelConfig other = tiny_config();
  other.init_seed = 999;  // different init, same architecture
  core::Model b(core::ModelKind::kExtended, other);
  b.load_weights(path);
  const nn::NoGradGuard guard;
  const nn::Var pa = a.forward(ds[0], sc);
  const nn::Var pb = b.forward(ds[0], sc);
  for (std::size_t i = 0; i < pa.rows(); ++i)
    EXPECT_DOUBLE_EQ(pa.value()(i, 0), pb.value()(i, 0));
  std::filesystem::remove(path);
}

TEST(ModelPersistence, ArchitectureMismatchRejected) {
  const std::string path = "/tmp/rnx_model_test2.rnxw";
  core::Model orig(core::ModelKind::kOriginal, tiny_config());
  orig.save_weights(path);
  core::Model ext(core::ModelKind::kExtended, tiny_config());
  EXPECT_THROW(ext.load_weights(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Training, LossDecreasesOnSmallDataset) {
  const data::Dataset ds = small_dataset(8, 11);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::Model m(core::ModelKind::kExtended, tiny_config());
  core::TrainConfig tc;
  tc.epochs = 12;
  tc.batch_samples = 2;  // 4 optimizer steps per epoch on 8 samples
  tc.lr = 3e-3;
  tc.verbose = false;
  core::Trainer trainer(m, tc);
  const auto history = trainer.fit(ds, sc);
  ASSERT_EQ(history.size(), 12u);
  EXPECT_LT(history.back().train_loss, 0.5 * history.front().train_loss);
}

TEST(Training, IterationCountMatters) {
  // T=0 would mean no message passing; we assert T is respected by
  // checking that different T gives different predictions.
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig c1 = tiny_config();
  c1.iterations = 1;
  core::ModelConfig c4 = tiny_config();
  c4.iterations = 4;
  const core::Model m1(core::ModelKind::kExtended, c1);
  const core::Model m4(core::ModelKind::kExtended, c4);
  const nn::NoGradGuard guard;
  EXPECT_NE(m1.forward(ds[0], sc).value()(0, 0),
            m4.forward(ds[0], sc).value()(0, 0));
}

// Single path 0->1->2 on a line: every link receives exactly one
// path-position message, so mean and sum aggregation coincide.
data::Sample single_path_sample() {
  data::Sample s;
  s.topo_name = "line3";
  s.num_nodes = 3;
  s.links = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  s.link_capacity_bps = {1e6, 1e6, 1e6, 1e6};
  s.queue_pkts = {32, 1, 32};
  data::PathRecord p0;
  p0.src = 0;
  p0.dst = 2;
  p0.nodes = {0, 1, 2};
  p0.links = {0, 2};
  p0.traffic_bps = 1e5;
  p0.mean_delay_s = 1e-3;
  p0.delivered = 100;
  s.paths = {p0};
  s.validate();
  return s;
}

TEST(LinkMeanAggregation, NoOpWhenEachLinkCarriesOneMessage) {
  const data::Sample s = single_path_sample();
  const data::Scaler sc = data::Scaler::fit({&s, 1});
  core::ModelConfig off = tiny_config();
  core::ModelConfig on = tiny_config();
  on.link_mean_aggregation = true;
  const nn::NoGradGuard guard;
  // Every 1/count factor is exactly 1.0, so both variants of both
  // architectures agree bitwise.
  const auto predict = [&](core::ModelKind kind, const core::ModelConfig& mc) {
    return core::Model(kind, mc).forward(s, sc).value();
  };
  const nn::Tensor a0 = predict(core::ModelKind::kOriginal, off);
  const nn::Tensor a1 = predict(core::ModelKind::kOriginal, on);
  const nn::Tensor b0 = predict(core::ModelKind::kExtended, off);
  const nn::Tensor b1 = predict(core::ModelKind::kExtended, on);
  for (std::size_t i = 0; i < a0.size(); ++i)
    EXPECT_EQ(a0.flat()[i], a1.flat()[i]);
  for (std::size_t i = 0; i < b0.size(); ++i)
    EXPECT_EQ(b0.flat()[i], b1.flat()[i]);
}

TEST(LinkMeanAggregation, ChangesMultiPathForwardAndStaysFinite) {
  // ring(5) all-pairs routing shares links across paths, so the mean
  // genuinely rescales messages — outputs must differ from the sum
  // aggregation yet stay finite.
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig on = tiny_config();
  on.link_mean_aggregation = true;
  const nn::NoGradGuard guard;
  for (const bool extended : {false, true}) {
    const std::unique_ptr<core::Model> base = core::make_model(
        extended ? core::ModelKind::kExtended : core::ModelKind::kOriginal,
        tiny_config());
    const std::unique_ptr<core::Model> mean = core::make_model(
        extended ? core::ModelKind::kExtended : core::ModelKind::kOriginal,
        on);
    const nn::Tensor a = base->forward(ds[0], sc).value();
    const nn::Tensor b = mean->forward(ds[0], sc).value();
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(std::isfinite(b.flat()[i]));
      any_diff |= a.flat()[i] != b.flat()[i];
    }
    EXPECT_TRUE(any_diff) << (extended ? "ext" : "orig");
  }
}

TEST(ScaleInvariantFeatures, ForwardIgnoresScalerMoments) {
  // The whole point of the mode: inputs are sample-local ratios, so the
  // (normalized) forward no longer depends on which dataset the scaler
  // was fitted on.
  const data::Dataset ds = small_dataset(2);
  const data::Scaler fit_a = data::Scaler::fit({&ds.samples()[0], 1});
  const data::Scaler fit_b = data::Scaler::fit({&ds.samples()[1], 1});
  core::ModelConfig si = tiny_config();
  si.scale_invariant_features = true;
  const core::Model model(core::ModelKind::kExtended, si);
  const nn::NoGradGuard guard;
  const nn::Tensor pa = model.forward(ds[0], fit_a).value();
  const nn::Tensor pb = model.forward(ds[0], fit_b).value();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(std::isfinite(pa.flat()[i]));
    EXPECT_EQ(pa.flat()[i], pb.flat()[i]);
  }
  // And the features really enter the pass: z-scored vs scale-invariant
  // inputs give different predictions for the same weights.
  const core::Model plain(core::ModelKind::kExtended, tiny_config());
  const nn::Tensor pz = plain.forward(ds[0], fit_a).value();
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    any_diff |= pa.flat()[i] != pz.flat()[i];
  EXPECT_TRUE(any_diff);
}

TEST(Training, SampleLossUndefinedWhenNoValidLabels) {
  const data::Dataset ds = small_dataset(1);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  data::Sample s = ds[0];
  for (auto& p : s.paths) p.delivered = 0;
  const core::Model m(core::ModelKind::kExtended, tiny_config());
  EXPECT_FALSE(core::Trainer::sample_loss(m, s, sc, 10).defined());
}

TEST(Training, EarlyStoppingTriggers) {
  const data::Dataset ds = small_dataset(6, 13);
  const auto [val, train] = ds.split(2);
  const data::Scaler sc = data::Scaler::fit(train.samples());
  core::Model m(core::ModelKind::kExtended, tiny_config());
  core::TrainConfig tc;
  tc.epochs = 50;
  tc.patience = 2;
  tc.lr = 0.0;  // no learning -> val loss flat -> stop after patience
  // Adam rejects lr=0, so use a tiny lr instead.
  tc.lr = 1e-12;
  tc.verbose = false;
  core::Trainer trainer(m, tc);
  const auto history = trainer.fit(train, sc, &val);
  EXPECT_LE(history.size(), 4u);  // stopped long before 50
}

}  // namespace

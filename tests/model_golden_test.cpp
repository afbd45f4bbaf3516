// Golden regression pin for the RouteNet model and the training loop.
//
// Every other model test compares two computations with each other
// (thread counts, resume vs uninterrupted, streaming vs in-memory), so a
// refactor that moved both sides the same way would pass them all.
// These constants were captured from the two-class implementation
// (separate original/extended forwards, separate fit/fit_stream loops)
// on the scalar kernel backend, which is bitwise-reproducible on every
// host.  A mismatch means a forward or the training trajectory changed.
//
// Pinned: FNV-1a digests of
//   - the predictions of the original and extended models on fixed
//     GEANT2 and NSFNET samples, under the default config and under the
//     optional aggregation variants;
//   - the weights after a 2-epoch fit and after a 2-epoch fit_stream
//     (one lane; a 5-sample set so the last batch of each epoch is
//     partial).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "data/source.hpp"
#include "nn/kernels.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

std::uint64_t fnv1a64(std::uint64_t h, const nn::Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.flat().data());
  for (std::size_t i = 0; i < t.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t weights_digest(const core::Model& model) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [name, var] : model.named_params())
    h = fnv1a64(h, var.value());
  return h;
}

data::Dataset golden_dataset(const topo::Topology& t, std::size_t n,
                             std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  return data::Dataset(data::generate_dataset(t, n, cfg, seed));
}

core::ModelConfig golden_config() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 3;
  mc.init_seed = 11;
  return mc;
}

class ModelGolden : public ::testing::Test {
 protected:
  ModelGolden() : scalar_(nn::kernels::scalar_backend()) {
    util::set_log_level(util::LogLevel::kWarn);
  }

  // Digest of the predictions of both kinds on both topologies.
  static std::uint64_t predictions_digest(const core::ModelConfig& mc) {
    static const data::Dataset geant2 = golden_dataset(topo::geant2(), 1, 31);
    static const data::Dataset nsfnet = golden_dataset(topo::nsfnet(), 1, 32);
    static const data::Scaler scaler = data::Scaler::fit(nsfnet.samples());
    std::uint64_t h = kFnvOffset;
    const nn::NoGradGuard guard;
    for (const core::ModelKind kind :
         {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
      const std::unique_ptr<core::Model> model = core::make_model(kind, mc);
      h = fnv1a64(h, model->forward(geant2[0], scaler).value());
      h = fnv1a64(h, model->forward(nsfnet[0], scaler).value());
    }
    return h;
  }

  static const data::Dataset& train_set() {
    static const data::Dataset ds = golden_dataset(topo::ring(5), 5, 33);
    return ds;
  }

  static core::TrainConfig train_config() {
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_samples = 2;
    tc.lr = 0.01;
    tc.threads = 1;
    tc.verbose = false;
    return tc;
  }

  nn::kernels::ScopedBackendOverride scalar_;
};

TEST_F(ModelGolden, PredictionsMatchTwoClassImplementation) {
  const std::uint64_t h = predictions_digest(golden_config());
  EXPECT_EQ(h, 0x641ece241cb4e95dull) << std::hex << "0x" << h;
}

TEST_F(ModelGolden, AggregationVariantsMatchTwoClassImplementation) {
  core::ModelConfig link_mean = golden_config();
  link_mean.link_mean_aggregation = true;
  const std::uint64_t h_link = predictions_digest(link_mean);
  EXPECT_EQ(h_link, 0x9f6f7095d9f82541ull) << std::hex << "0x" << h_link;

  core::ModelConfig positional = golden_config();
  positional.node_rule = core::NodeUpdateRule::kPositionalMessages;
  positional.node_mean_aggregation = false;
  const std::uint64_t h_pos = predictions_digest(positional);
  EXPECT_EQ(h_pos, 0xdbb7fb8162c17f4eull) << std::hex << "0x" << h_pos;
}

TEST_F(ModelGolden, FitWeightsMatchTwoLoopImplementation) {
  const data::Scaler scaler = data::Scaler::fit(train_set().samples());
  for (const auto& [kind, golden] :
       {std::pair{core::ModelKind::kOriginal, 0x59f3917af92b01cdull},
        std::pair{core::ModelKind::kExtended, 0x2794c44c7f122941ull}}) {
    const std::unique_ptr<core::Model> model =
        core::make_model(kind, golden_config());
    core::Trainer trainer(*model, train_config());
    (void)trainer.fit(train_set(), scaler);
    EXPECT_EQ(weights_digest(*model), golden)
        << core::to_string(kind) << std::hex << " 0x"
        << weights_digest(*model);
  }
}

TEST_F(ModelGolden, FitStreamWeightsMatchTwoLoopImplementation) {
  const data::Scaler scaler = data::Scaler::fit(train_set().samples());
  for (const auto& [kind, golden] :
       {std::pair{core::ModelKind::kOriginal, 0x304838fe3e98fa76ull},
        std::pair{core::ModelKind::kExtended, 0x5a778ee23985346aull}}) {
    const std::unique_ptr<core::Model> model =
        core::make_model(kind, golden_config());
    core::Trainer trainer(*model, train_config());
    data::DatasetSource src(train_set());
    (void)trainer.fit_stream(src, scaler);
    EXPECT_EQ(weights_digest(*model), golden)
        << core::to_string(kind) << std::hex << " 0x"
        << weights_digest(*model);
  }
}

}  // namespace

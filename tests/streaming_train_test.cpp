// Streaming training/eval equivalence (DESIGN.md §D): consuming a
// sharded on-disk store through SampleSource must reproduce the
// in-memory pipeline bit for bit — same train-loss history, same final
// weights, same eval loss, same scaler moments, same predictions —
// while never materializing the whole dataset.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "data/shards.hpp"
#include "data/source.hpp"
#include "eval/metrics.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;
using data::Dataset;

class StreamingTrainTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSamples = 6;
  static constexpr std::size_t kPerShard = 2;

  StreamingTrainTest() {
    // PID-suffixed: parallel ctest processes must not share (and
    // remove_all) each other's store.
    dir_ = std::filesystem::temp_directory_path() /
           ("rnx_streaming_train." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    data::GeneratorConfig cfg;
    cfg.target_packets = 5'000;
    ds_ = std::make_unique<Dataset>(
        data::generate_dataset(topo::ring(4), kSamples, cfg, 97));
    data::ShardWriter writer(manifest(), kPerShard, 97,
                             data::config_digest(cfg));
    for (const auto& s : ds_->samples()) writer.add(s);
    (void)writer.finish();
    scaler_ = std::make_unique<data::Scaler>(
        data::Scaler::fit(ds_->samples(), 10));
  }
  ~StreamingTrainTest() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string manifest() const {
    return (dir_ / "train.rnxm").string();
  }

  [[nodiscard]] static core::TrainConfig train_config(std::size_t threads) {
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_samples = 4;  // trailing partial batch included
    tc.threads = threads;
    tc.verbose = false;
    return tc;
  }

  [[nodiscard]] static std::unique_ptr<core::Model> fresh_model() {
    core::ModelConfig mc;
    mc.state_dim = 8;
    mc.readout_hidden = 12;
    mc.iterations = 2;
    mc.init_seed = 5;
    return core::make_model(core::ModelKind::kExtended, mc);
  }

  static void expect_identical_weights(const core::Model& a,
                                       const core::Model& b) {
    const auto pa = a.named_params();
    const auto pb = b.named_params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      const auto& ta = pa[i].second.value();
      const auto& tb = pb[i].second.value();
      ASSERT_EQ(ta.size(), tb.size());
      for (std::size_t j = 0; j < ta.size(); ++j)
        ASSERT_EQ(ta.flat()[j], tb.flat()[j])
            << pa[i].first << "[" << j << "]";
    }
  }

  std::filesystem::path dir_;
  std::unique_ptr<Dataset> ds_;
  std::unique_ptr<data::Scaler> scaler_;
};

TEST_F(StreamingTrainTest, StreamedFitEqualsInMemoryFitBitwise) {
  // Same sample sequence through both paths: fit_stream over the
  // in-memory source vs. fit_stream over the sharded store.
  const auto model_mem = fresh_model();
  {
    data::DatasetSource src(*ds_);
    core::Trainer trainer(*model_mem, train_config(1));
    const auto hist = trainer.fit_stream(src, *scaler_);
    ASSERT_EQ(hist.size(), 3u);
  }
  const auto model_stream = fresh_model();
  std::vector<core::EpochRecord> stream_hist;
  {
    data::StreamingShardSource src(manifest(), /*prefetch=*/2);
    core::Trainer trainer(*model_stream, train_config(1));
    stream_hist = trainer.fit_stream(src, *scaler_);
  }
  expect_identical_weights(*model_mem, *model_stream);

  // And the parallel streaming path agrees with the serial one.
  const auto model_par = fresh_model();
  {
    data::StreamingShardSource src(manifest(), /*prefetch=*/2);
    core::Trainer trainer(*model_par, train_config(4));
    const auto hist = trainer.fit_stream(src, *scaler_);
    ASSERT_EQ(hist.size(), stream_hist.size());
    for (std::size_t e = 0; e < hist.size(); ++e)
      EXPECT_EQ(hist[e].train_loss, stream_hist[e].train_loss);
  }
  expect_identical_weights(*model_mem, *model_par);
}

TEST_F(StreamingTrainTest, StreamedTrainLossEqualsInMemoryTrainLoss) {
  const auto model_a = fresh_model();
  const auto model_b = fresh_model();
  core::Trainer trainer_a(*model_a, train_config(1));
  core::Trainer trainer_b(*model_b, train_config(1));
  data::DatasetSource mem(*ds_);
  data::StreamingShardSource stream(manifest(), 3);
  const auto hist_mem = trainer_a.fit_stream(mem, *scaler_);
  const auto hist_stream = trainer_b.fit_stream(stream, *scaler_);
  ASSERT_EQ(hist_mem.size(), hist_stream.size());
  for (std::size_t e = 0; e < hist_mem.size(); ++e)
    EXPECT_EQ(hist_mem[e].train_loss, hist_stream[e].train_loss)
        << "epoch " << e;
}

TEST_F(StreamingTrainTest, StreamedEvaluateLossEqualsInMemory) {
  const auto model = fresh_model();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::Trainer trainer(*model, train_config(threads));
    const double mem_loss = trainer.evaluate_loss(*ds_, *scaler_);
    data::StreamingShardSource src(manifest(), 2);
    const double stream_loss = trainer.evaluate_loss(src, *scaler_);
    EXPECT_EQ(mem_loss, stream_loss) << "threads=" << threads;
  }
}

TEST_F(StreamingTrainTest, ScalerFitFromSourceMatchesInMemory) {
  data::StreamingShardSource src(manifest(), 2);
  const data::Scaler streamed = data::Scaler::fit(src, 10);
  const auto expect_moments = [](const data::Moments& a,
                                 const data::Moments& b) {
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
  };
  expect_moments(streamed.traffic_moments(), scaler_->traffic_moments());
  expect_moments(streamed.capacity_moments(), scaler_->capacity_moments());
  expect_moments(streamed.queue_moments(), scaler_->queue_moments());
  expect_moments(streamed.log_delay_moments(),
                 scaler_->log_delay_moments());
  expect_moments(streamed.log_jitter_moments(),
                 scaler_->log_jitter_moments());
}

TEST_F(StreamingTrainTest, PredictSourceMatchesPredictDataset) {
  const auto model = fresh_model();
  const auto pp_mem = eval::predict_dataset(*model, *ds_, *scaler_, 10);
  data::StreamingShardSource src(manifest(), 2);
  const auto pp_stream = eval::predict_source(*model, src, *scaler_, 10);
  ASSERT_EQ(pp_stream.size(), pp_mem.size());
  for (std::size_t i = 0; i < pp_mem.size(); ++i) {
    EXPECT_EQ(pp_stream.truth[i], pp_mem.truth[i]);
    EXPECT_EQ(pp_stream.pred[i], pp_mem.pred[i]);
  }
}

TEST_F(StreamingTrainTest, PredictSourcePerSampleCallbackCoversAllPaths) {
  const auto model = fresh_model();
  std::size_t samples_seen = 0, paths_seen = 0;
  bool in_order = true;
  data::StreamingShardSource src(manifest(), 2);
  (void)eval::predict_source(
      *model, src, *scaler_, 10, core::PredictionTarget::kDelay, nullptr,
      [&](std::size_t i, const data::Sample& s, const nn::Tensor& pred) {
        in_order &= i == samples_seen;
        ++samples_seen;
        paths_seen += s.paths.size();
        EXPECT_EQ(pred.rows(), s.paths.size());
      });
  EXPECT_TRUE(in_order);
  EXPECT_EQ(samples_seen, kSamples);
  EXPECT_EQ(paths_seen, ds_->total_paths());
}

TEST_F(StreamingTrainTest, FitStreamKeepsModelCacheDetachmentScoped) {
  // The trainer never attaches a plan cache: after a streaming fit and
  // an in-memory fit the model still has none.
  const auto model = fresh_model();
  core::Trainer trainer(*model, train_config(1));
  {
    data::StreamingShardSource src(manifest(), 2);
    (void)trainer.fit_stream(src, *scaler_);
  }
  EXPECT_EQ(model->plan_cache(), nullptr);
  (void)trainer.fit(*ds_, *scaler_);
  EXPECT_EQ(model->plan_cache(), nullptr);
}

}  // namespace

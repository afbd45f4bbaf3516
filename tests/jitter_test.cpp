// Jitter as a regression target (paper abstract: RouteNet estimates
// "delay or jitter").  Verifies the label plumbing and that the extended
// model actually learns jitter on a small dataset.
#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "eval/metrics.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;

data::Dataset jitter_dataset(std::size_t n, std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 20'000;
  cfg.util_lo = 0.6;
  cfg.util_hi = 0.95;
  return data::Dataset(data::generate_dataset(topo::ring(5), n, cfg, seed));
}

TEST(Jitter, ScalerRoundTrips) {
  const data::Dataset ds = jitter_dataset(4, 3);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  for (const double j : {1e-8, 1e-6, 1e-4})
    EXPECT_NEAR(sc.target_to_jitter(sc.jitter_to_target(j)), j, 1e-15);
  EXPECT_THROW((void)sc.jitter_to_target(0.0), std::invalid_argument);
  // Jitter statistics are distinct from delay statistics.
  EXPECT_NE(sc.log_jitter_moments().mean, sc.log_delay_moments().mean);
}

TEST(Jitter, ValidRowsUseJitterLabel) {
  data::Dataset ds = jitter_dataset(1, 5);
  data::Sample s = ds[0];
  s.paths[0].jitter_s2 = 0.0;  // delay label fine, jitter label unusable
  const auto delay_rows =
      core::valid_label_rows(s, 1, core::PredictionTarget::kDelay);
  const auto jitter_rows =
      core::valid_label_rows(s, 1, core::PredictionTarget::kJitter);
  EXPECT_EQ(jitter_rows.size() + 1, delay_rows.size());
}

TEST(Jitter, TrainingLearnsJitter) {
  const data::Dataset all = jitter_dataset(40, 7);
  const auto [test, train] = all.split(8);
  const data::Scaler sc = data::Scaler::fit(train.samples());
  core::ModelConfig mc;
  mc.state_dim = 10;
  mc.iterations = 3;
  core::Model m(core::ModelKind::kExtended, mc);
  core::TrainConfig tc;
  tc.epochs = 25;
  tc.batch_samples = 2;
  tc.lr = 3e-3;
  tc.target = core::PredictionTarget::kJitter;
  tc.verbose = false;
  core::Trainer trainer(m, tc);
  const auto history = trainer.fit(train, sc);
  EXPECT_LT(history.back().train_loss, 0.6 * history.front().train_loss);

  const auto pp = eval::predict_dataset(m, test, sc, 10,
                                        core::PredictionTarget::kJitter);
  ASSERT_GT(pp.size(), 50u);
  const auto s = eval::summarize(pp);
  EXPECT_GT(s.pearson, 0.5);  // clearly predictive of jitter
  for (const double p : pp.pred) EXPECT_GT(p, 0.0);
}

TEST(Jitter, DelayTargetUnaffectedByPlumbing) {
  // Default-target behaviour must be byte-identical to the delay path.
  const data::Dataset ds = jitter_dataset(2, 9);
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.iterations = 2;
  const core::Model m(core::ModelKind::kExtended, mc);
  const nn::Var a = core::Trainer::sample_loss(m, ds[0], sc, 10);
  const nn::Var b = core::Trainer::sample_loss(
      m, ds[0], sc, 10, core::PredictionTarget::kDelay);
  EXPECT_DOUBLE_EQ(a.value().item(), b.value().item());
}

}  // namespace

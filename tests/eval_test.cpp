// Tests for src/eval: metric math on synthetic prediction sets and the
// prediction pooling helper.
#include <gtest/gtest.h>

#include <cmath>

#include "core/plan.hpp"
#include "core/model.hpp"
#include "data/generator.hpp"
#include "eval/metrics.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;
using eval::PairedPredictions;

TEST(Metrics, RelativeErrorsSignedAndAbsolute) {
  PairedPredictions pp;
  pp.truth = {1.0, 2.0, 4.0};
  pp.pred = {1.1, 1.0, 4.0};
  const auto rel = eval::relative_errors(pp);
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_NEAR(rel[0], 0.1, 1e-12);
  EXPECT_NEAR(rel[1], -0.5, 1e-12);
  EXPECT_NEAR(rel[2], 0.0, 1e-12);
  const auto ape = eval::absolute_relative_errors(pp);
  EXPECT_NEAR(ape[1], 0.5, 1e-12);
}

TEST(Metrics, RelativeErrorsRejectNonPositiveTruth) {
  PairedPredictions pp;
  pp.truth = {0.0};
  pp.pred = {1.0};
  EXPECT_THROW(eval::relative_errors(pp), std::logic_error);
}

TEST(Metrics, SummaryOnPerfectPredictions) {
  PairedPredictions pp;
  pp.truth = {1.0, 2.0, 3.0, 4.0};
  pp.pred = pp.truth;
  const auto s = eval::summarize(pp);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mae, 0.0);
  EXPECT_DOUBLE_EQ(s.rmse, 0.0);
  EXPECT_DOUBLE_EQ(s.mape, 0.0);
  EXPECT_NEAR(s.r2, 1.0, 1e-12);
  EXPECT_NEAR(s.pearson, 1.0, 1e-12);
}

TEST(Metrics, SummaryHandComputed) {
  PairedPredictions pp;
  pp.truth = {1.0, 2.0};
  pp.pred = {1.5, 1.5};
  const auto s = eval::summarize(pp);
  EXPECT_NEAR(s.mae, 0.5, 1e-12);
  EXPECT_NEAR(s.rmse, 0.5, 1e-12);
  EXPECT_NEAR(s.mape, (0.5 + 0.25) / 2, 1e-12);
  // SS_res = 0.5, SS_tot = 0.5 -> r2 = 0.
  EXPECT_NEAR(s.r2, 0.0, 1e-12);
}

TEST(Metrics, AnticorrelatedPredictions) {
  PairedPredictions pp;
  pp.truth = {1.0, 2.0, 3.0};
  pp.pred = {3.0, 2.0, 1.0};
  const auto s = eval::summarize(pp);
  EXPECT_NEAR(s.pearson, -1.0, 1e-12);
  EXPECT_LT(s.r2, 0.0);  // worse than the mean predictor
}

TEST(Metrics, EmptySetThrows) {
  EXPECT_THROW((void)eval::summarize(PairedPredictions{}), std::invalid_argument);
}

TEST(PredictDataset, PoolsOnlyValidPathsAndDenormalizes) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 8'000;
  const data::Dataset ds(
      data::generate_dataset(topo::ring(5), 3, cfg, 21));
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.iterations = 2;
  core::Model m(core::ModelKind::kExtended, mc);

  const auto pp = eval::predict_dataset(m, ds, sc, 10);
  std::size_t expected = 0;
  for (const auto& s : ds.samples())
    expected += core::valid_label_rows(s, 10).size();
  EXPECT_EQ(pp.size(), expected);
  for (std::size_t i = 0; i < pp.size(); ++i) {
    EXPECT_GT(pp.truth[i], 0.0);
    EXPECT_GT(pp.pred[i], 0.0);  // exp() denormalization: always positive
    EXPECT_LT(pp.pred[i], 10.0);  // sane scale (seconds)
  }
}

TEST(PredictDataset, HigherThresholdPoolsFewer) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  const data::Dataset ds(
      data::generate_dataset(topo::ring(5), 2, cfg, 23));
  const data::Scaler sc = data::Scaler::fit(ds.samples());
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.iterations = 2;
  core::Model m(core::ModelKind::kExtended, mc);
  const auto loose = eval::predict_dataset(m, ds, sc, 1);
  const auto strict = eval::predict_dataset(m, ds, sc, 200);
  EXPECT_GT(loose.size(), strict.size());
}

}  // namespace

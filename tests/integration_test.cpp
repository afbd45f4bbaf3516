// Cross-module integration: a miniature of the paper's full §3 protocol.
//
// These tests run the complete pipeline (simulate -> dataset -> scaler ->
// train both models -> evaluate) at reduced scale and assert the *shape*
// of the paper's findings: the extended architecture fits queue-varied
// data better than the original, and its advantage carries over to a
// topology never seen in training.
#include <gtest/gtest.h>

#include <filesystem>

#include "eval/experiment.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

eval::Fig2Config mini_config() {
  eval::Fig2Config cfg;
  cfg.train_samples = 32;
  cfg.geant2_test_samples = 6;
  cfg.nsfnet_test_samples = 6;
  cfg.gen.target_packets = 150'000;  // ~270 pkts/path: clean labels
  cfg.gen.util_lo = 0.7;   // queue-dominant load regime
  cfg.gen.util_hi = 0.95;
  cfg.model.state_dim = 12;  // a served width: the AVX2 GRU kernels run
  cfg.model.readout_hidden = 16;
  cfg.model.iterations = 3;
  cfg.train.epochs = 35;
  cfg.train.batch_samples = 4;
  cfg.train.lr = 2e-3;
  cfg.train.verbose = false;
  cfg.cache_dir.clear();  // no disk caching inside tests
  cfg.verbose = false;
  return cfg;
}

TEST(Integration, Fig2ProtocolShapeHolds) {
  util::set_log_level(util::LogLevel::kWarn);
  const eval::Fig2Result res = eval::run_fig2(mini_config());

  ASSERT_EQ(res.curves.size(), 4u);
  const auto& ext_g = res.curve("routenet-ext", "geant2");
  const auto& orig_g = res.curve("routenet", "geant2");
  const auto& ext_n = res.curve("routenet-ext", "nsfnet");
  EXPECT_THROW((void)res.curve("nope", "geant2"), std::out_of_range);

  // Each curve pools a substantial number of paths.
  EXPECT_GT(ext_g.summary.n, 1'000u);
  EXPECT_GT(ext_n.summary.n, 300u);

  // The paper's headline: with queue-size variation in the data, the
  // extended architecture is clearly more accurate than the original.
  EXPECT_LT(ext_g.summary.median_ape, orig_g.summary.median_ape);

  // The GEANT2 medians the scalar reference backend trains to.  Any
  // backend must land within a tenth of the gap between the two models
  // of them, so a kernel change that moves trained accuracy by a
  // visible share of the headline fails here.
  constexpr double kScalarExtMedianApe = 0.12044;
  constexpr double kScalarOrigMedianApe = 0.18107;
  const double tol = 0.1 * (kScalarOrigMedianApe - kScalarExtMedianApe);
  EXPECT_NEAR(ext_g.summary.median_ape, kScalarExtMedianApe, tol);
  EXPECT_NEAR(orig_g.summary.median_ape, kScalarOrigMedianApe, tol);

  // Generalization: the extended model remains predictive on the unseen
  // topology (positively correlated, bounded error).
  EXPECT_GT(ext_n.summary.pearson, 0.3);

  // Training made progress on both models.
  ASSERT_FALSE(res.ext_history.empty());
  EXPECT_LT(res.ext_history.back().train_loss,
            res.ext_history.front().train_loss);
  EXPECT_LT(res.orig_history.back().train_loss,
            res.orig_history.front().train_loss);
}

TEST(Integration, DatasetCacheRoundTrip) {
  util::set_log_level(util::LogLevel::kWarn);
  eval::Fig2Config cfg = mini_config();
  cfg.train_samples = 3;
  cfg.geant2_test_samples = 2;
  cfg.nsfnet_test_samples = 2;
  cfg.cache_dir = "/tmp/rnx_integration_cache";
  std::filesystem::remove_all(cfg.cache_dir);

  const eval::Fig2Datasets first = eval::make_fig2_datasets(cfg);
  EXPECT_EQ(first.train.size(), 3u);
  // Three cache files must now exist.
  std::size_t files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(cfg.cache_dir))
    files += e.is_regular_file() ? 1 : 0;
  EXPECT_EQ(files, 3u);

  // Second call loads from cache and yields identical labels.
  const eval::Fig2Datasets second = eval::make_fig2_datasets(cfg);
  ASSERT_EQ(second.train.size(), first.train.size());
  EXPECT_DOUBLE_EQ(second.train[0].paths[0].mean_delay_s,
                   first.train[0].paths[0].mean_delay_s);
  std::filesystem::remove_all(cfg.cache_dir);
}

TEST(Integration, TrainTestTopologiesMatchPaper) {
  // The protocol trains on GEANT2 only and evaluates on both GEANT2 and
  // NSFNET, mirroring §3 of the paper.
  eval::Fig2Config cfg = mini_config();
  cfg.train_samples = 2;
  cfg.geant2_test_samples = 2;
  cfg.nsfnet_test_samples = 2;
  const eval::Fig2Datasets ds = eval::make_fig2_datasets(cfg);
  for (const auto& s : ds.train.samples()) EXPECT_EQ(s.topo_name, "geant2");
  for (const auto& s : ds.geant2_test.samples())
    EXPECT_EQ(s.topo_name, "geant2");
  for (const auto& s : ds.nsfnet_test.samples())
    EXPECT_EQ(s.topo_name, "nsfnet");
  for (const auto& s : ds.nsfnet_test.samples())
    EXPECT_EQ(s.num_nodes, 14u);
}

}  // namespace

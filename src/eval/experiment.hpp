// End-to-end experiment drivers shared by benches and examples.
//
// run_fig2() reproduces the paper's §3 protocol at configurable scale:
// generate queue-varied datasets on GEANT2 (train + held-out test) and
// NSFNET (never trained on), train the original and the extended
// RouteNet on the same data, and evaluate all four (model, topology)
// combinations — the four curves of Fig. 2.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "eval/metrics.hpp"

namespace rnx::eval {

struct Fig2Config {
  std::size_t train_samples = 160;
  std::size_t geant2_test_samples = 40;
  std::size_t nsfnet_test_samples = 40;
  data::GeneratorConfig gen;       ///< queue-varied scenario generator
  core::ModelConfig model;         ///< shared by both architectures
  core::TrainConfig train;
  std::uint64_t data_seed = 2019;  ///< dataset RNG root
  /// Directory for the on-disk dataset cache; empty = no caching.
  std::string cache_dir = "data";
  bool verbose = true;
};

/// One curve of Fig. 2: a (model, topology) combination.
struct Fig2Curve {
  std::string model;     ///< "routenet" or "routenet-ext"
  std::string topology;  ///< "geant2" or "nsfnet"
  PairedPredictions predictions;
  RegressionSummary summary;
  std::vector<double> rel_errors;  ///< signed, per path
};

struct Fig2Result {
  std::vector<Fig2Curve> curves;  ///< ext/geant2, orig/geant2, ext/nsfnet, orig/nsfnet
  std::vector<core::EpochRecord> ext_history;
  std::vector<core::EpochRecord> orig_history;
  double generate_seconds = 0.0;
  double train_seconds = 0.0;

  [[nodiscard]] const Fig2Curve& curve(const std::string& model,
                                       const std::string& topology) const;
};

[[nodiscard]] Fig2Result run_fig2(const Fig2Config& cfg);

/// Generate (or load from cache) the three datasets of the Fig. 2
/// protocol: GEANT2 train, GEANT2 test, NSFNET test.
struct Fig2Datasets {
  data::Dataset train;
  data::Dataset geant2_test;
  data::Dataset nsfnet_test;
  double generate_seconds = 0.0;
};
[[nodiscard]] Fig2Datasets make_fig2_datasets(const Fig2Config& cfg);

}  // namespace rnx::eval

// Evaluation metrics over model predictions.
//
// The paper's headline plot (Fig. 2) is the CDF of the relative error of
// delay predictions; relative_errors() + util::Cdf reproduce it.  The
// summary adds the usual regression metrics for the tables.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"

namespace rnx::data {
class SampleSource;
}

namespace rnx::eval {

/// Ground-truth and predicted mean delays (seconds), paired per path,
/// pooled over a whole dataset.
struct PairedPredictions {
  std::vector<double> truth;
  std::vector<double> pred;

  [[nodiscard]] std::size_t size() const noexcept { return truth.size(); }
};

/// Streaming predict over one pass of a SampleSource (DESIGN.md §D):
/// samples are batched through Model::forward_batch (inference mode)
/// and the label-valid paths are pooled in sample order, de-normalized
/// back to seconds (delay) or seconds^2 (jitter) per `target`.  A
/// streamed source is pulled in bounded windows, so residency stays
/// O(window + prefetch); an in-memory source goes out as one batch, so
/// a pool balances mixed graph sizes over the whole pass.  `model` is
/// taken non-const on purpose: a serve::ModelRegistry engine's model
/// has the registry's plan cache attached and is reachable only as
/// `const core::Model&`, so the type keeps a cache-attached model out
/// of every eval pass (a streamed sample's address is reused once
/// dropped, and an address-keyed cache would serve it a stale plan).
/// With `per_sample` set, every sample gets a prediction (no
/// label-based skipping) and the callback fires in sample order with
/// (index, sample, predictions) — the CSV export hook.
[[nodiscard]] PairedPredictions predict_source(
    core::Model& model, data::SampleSource& src, const data::Scaler& scaler,
    std::uint64_t min_delivered,
    core::PredictionTarget target = core::PredictionTarget::kDelay,
    util::ThreadPool* pool = nullptr,
    const std::function<void(std::size_t, const data::Sample&,
                             const nn::Tensor&)>& per_sample = nullptr);

/// predict_source over an in-memory dataset (a borrowing DatasetSource).
[[nodiscard]] PairedPredictions predict_dataset(
    core::Model& model, const data::Dataset& ds, const data::Scaler& scaler,
    std::uint64_t min_delivered,
    core::PredictionTarget target = core::PredictionTarget::kDelay);

/// Signed relative errors (pred - truth) / truth.
[[nodiscard]] std::vector<double> relative_errors(
    const PairedPredictions& pp);
/// |pred - truth| / truth.
[[nodiscard]] std::vector<double> absolute_relative_errors(
    const PairedPredictions& pp);

struct RegressionSummary {
  std::size_t n = 0;
  double mae = 0.0;         ///< seconds
  double rmse = 0.0;        ///< seconds
  double mape = 0.0;        ///< mean |rel err| (fraction)
  double median_ape = 0.0;  ///< median |rel err|
  double p90_ape = 0.0;     ///< 90th percentile |rel err|
  double r2 = 0.0;          ///< coefficient of determination
  double pearson = 0.0;     ///< linear correlation
};

[[nodiscard]] RegressionSummary summarize(const PairedPredictions& pp);

/// Render the summary as the CLI metric table (ms for delay, ms^2 for
/// jitter).  Shared by rnx_train and rnx_predict: the CI train->serve
/// smoke diffs their outputs line for line, so there must be exactly
/// one formatting implementation.
void print_summary(std::ostream& os, const RegressionSummary& s,
                   core::PredictionTarget target);

}  // namespace rnx::eval

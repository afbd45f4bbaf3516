#include "eval/metrics.hpp"

#include <cmath>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "core/plan.hpp"
#include "data/source.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace rnx::eval {

PairedPredictions predict_dataset(core::Model& model,
                                  const data::Dataset& ds,
                                  const data::Scaler& scaler,
                                  std::uint64_t min_delivered,
                                  core::PredictionTarget target) {
  data::DatasetSource src(ds);
  return predict_source(model, src, scaler, min_delivered, target);
}

PairedPredictions predict_source(
    core::Model& model, data::SampleSource& src, const data::Scaler& scaler,
    std::uint64_t min_delivered, core::PredictionTarget target,
    util::ThreadPool* pool,
    const std::function<void(std::size_t, const data::Sample&,
                             const nn::Tensor&)>& per_sample) {
  const bool delay = target == core::PredictionTarget::kDelay;

  src.reset();
  const std::size_t lanes = pool ? pool->size() : 1;
  const std::size_t window =
      src.in_memory() ? src.size() : std::max<std::size_t>(4 * lanes, 8);
  std::vector<std::shared_ptr<const data::Sample>> hold;
  hold.reserve(window);
  PairedPredictions pp;
  std::size_t base_index = 0;

  const auto flush = [&] {
    if (hold.empty()) return;
    const std::size_t n = hold.size();
    std::vector<const data::Sample*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = hold[i].get();
    std::vector<std::vector<nn::Index>> valid_rows(n);
    std::vector<char> skip(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      valid_rows[i] = core::valid_label_rows(*ptrs[i], min_delivered, target);
      // With a per-sample consumer every sample needs its predictions;
      // metrics-only passes skip label-less samples, which contribute
      // nothing and so do not pay a discarded forward.
      skip[i] = (!per_sample && valid_rows[i].empty()) ? 1 : 0;
    }
    const std::vector<nn::Tensor> preds =
        model.forward_batch(ptrs, scaler, pool, nullptr, &skip);
    for (std::size_t i = 0; i < n; ++i) {
      const data::Sample& s = *ptrs[i];
      if (per_sample) per_sample(base_index + i, s, preds[i]);
      for (const auto row : valid_rows[i]) {
        pp.truth.push_back(delay ? s.paths[row].mean_delay_s
                                 : s.paths[row].jitter_s2);
        pp.pred.push_back(delay ? scaler.target_to_delay(preds[i](row, 0))
                                : scaler.target_to_jitter(preds[i](row, 0)));
      }
    }
    base_index += n;
    hold.clear();
  };

  while (auto sp = src.next()) {
    hold.push_back(std::move(sp));
    if (hold.size() == window) flush();
  }
  flush();
  return pp;
}

std::vector<double> relative_errors(const PairedPredictions& pp) {
  std::vector<double> out;
  out.reserve(pp.size());
  for (std::size_t i = 0; i < pp.size(); ++i) {
    if (pp.truth[i] <= 0.0)
      throw std::logic_error("relative_errors: non-positive truth");
    out.push_back((pp.pred[i] - pp.truth[i]) / pp.truth[i]);
  }
  return out;
}

std::vector<double> absolute_relative_errors(const PairedPredictions& pp) {
  std::vector<double> out = relative_errors(pp);
  for (auto& e : out) e = std::abs(e);
  return out;
}

RegressionSummary summarize(const PairedPredictions& pp) {
  if (pp.size() == 0)
    throw std::invalid_argument("summarize: empty prediction set");
  RegressionSummary s;
  s.n = pp.size();

  util::Welford truth_w, err_w;
  double se = 0.0, ae = 0.0;
  for (std::size_t i = 0; i < pp.size(); ++i) {
    const double e = pp.pred[i] - pp.truth[i];
    se += e * e;
    ae += std::abs(e);
    truth_w.add(pp.truth[i]);
    err_w.add(e);
  }
  const auto n = static_cast<double>(pp.size());
  s.mae = ae / n;
  s.rmse = std::sqrt(se / n);

  const std::vector<double> ape = absolute_relative_errors(pp);
  double ape_sum = 0.0;
  for (const double a : ape) ape_sum += a;
  s.mape = ape_sum / n;
  s.median_ape = util::percentile(ape, 50.0);
  s.p90_ape = util::percentile(ape, 90.0);

  const double ss_tot = truth_w.variance() * n;
  s.r2 = ss_tot > 0.0 ? 1.0 - se / ss_tot : 0.0;

  // Pearson correlation between truth and prediction.
  double mt = 0.0, mp = 0.0;
  for (std::size_t i = 0; i < pp.size(); ++i) {
    mt += pp.truth[i];
    mp += pp.pred[i];
  }
  mt /= n;
  mp /= n;
  double cov = 0.0, vt = 0.0, vp = 0.0;
  for (std::size_t i = 0; i < pp.size(); ++i) {
    const double a = pp.truth[i] - mt;
    const double b = pp.pred[i] - mp;
    cov += a * b;
    vt += a * a;
    vp += b * b;
  }
  s.pearson = (vt > 0.0 && vp > 0.0) ? cov / std::sqrt(vt * vp) : 0.0;
  return s;
}

void print_summary(std::ostream& os, const RegressionSummary& s,
                   core::PredictionTarget target) {
  const bool delay = target == core::PredictionTarget::kDelay;
  const std::string unit = delay ? " ms" : " ms^2";
  const double to_unit = delay ? 1e3 : 1e6;
  util::Table table({"metric", "value"});
  table.add_row({"paths", util::Table::cell(s.n)})
      .add_row({"median |rel err|",
                util::Table::cell(s.median_ape * 100, 2) + " %"})
      .add_row({"P90 |rel err|",
                util::Table::cell(s.p90_ape * 100, 2) + " %"})
      .add_row({"MAPE", util::Table::cell(s.mape * 100, 2) + " %"})
      .add_row({"MAE", util::Table::cell(s.mae * to_unit, 4) + unit})
      .add_row({"RMSE", util::Table::cell(s.rmse * to_unit, 4) + unit})
      .add_row({"Pearson r", util::Table::cell(s.pearson, 4)})
      .add_row({"R^2", util::Table::cell(s.r2, 4)});
  table.print(os);
}

}  // namespace rnx::eval

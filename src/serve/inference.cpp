#include "serve/inference.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "nn/autograd.hpp"

namespace rnx::serve {

InferenceEngine::InferenceEngine(const std::string& path)
    : InferenceEngine(load_bundle(path)) {}

InferenceEngine::InferenceEngine(ModelBundle bundle,
                                 std::shared_ptr<core::PlanCache> cache)
    : plan_cache_(std::move(cache)),
      model_(std::move(bundle.model)),
      scaler_(bundle.scaler),
      target_(bundle.target) {
  if (!model_)
    throw std::invalid_argument("InferenceEngine: bundle holds no model");
  model_->set_plan_cache(plan_cache_.get());
}

std::vector<double> InferenceEngine::to_physical(
    const nn::Tensor& pred) const {
  std::vector<double> out(pred.rows());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = target_ == core::PredictionTarget::kDelay
                 ? scaler_.target_to_delay(pred(i, 0))
                 : scaler_.target_to_jitter(pred(i, 0));
  return out;
}

std::vector<double> InferenceEngine::predict(const data::Sample& sample,
                                             util::ThreadPool* pool) const {
  const nn::NoGradGuard guard;
  return to_physical(model_->forward(sample, scaler_, pool).value());
}

std::vector<std::vector<double>> InferenceEngine::predict_batch(
    std::span<const data::Sample> samples, util::ThreadPool* pool) const {
  // A concurrent caller that finds the pool busy runs its batch inline
  // (try_parallel_for), so no caller ever waits idle.
  std::vector<const data::Sample*> ptrs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) ptrs[i] = &samples[i];
  std::vector<std::exception_ptr> errors;
  const std::vector<nn::Tensor> preds =
      model_->forward_batch(ptrs, scaler_, pool, &errors);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);  // first failing sample, in order
  std::vector<std::vector<double>> out(samples.size());
  for (std::size_t si = 0; si < samples.size(); ++si)
    out[si] = to_physical(preds[si]);
  return out;
}

double InferenceEngine::predict_mean(const data::Sample& sample) const {
  const std::vector<double> preds = predict(sample);
  if (preds.empty())
    throw std::invalid_argument("predict_mean: sample has no paths");
  double sum = 0.0;
  for (const double p : preds) sum += p;
  return sum / static_cast<double>(preds.size());
}

}  // namespace rnx::serve

// Serving layer: load a model bundle once, answer prediction requests.
//
// The engine owns the reconstructed model and the training-set scaler.
// Predictions come back in physical units — seconds for delay,
// seconds^2 for jitter — ready for an operator-facing API.  It owns
// neither a plan cache nor a thread pool: a standalone engine builds
// the message-passing plan on every forward, as training and
// evaluation do, and batch fan-out runs on a pool the caller passes.
//
// Thread-safety (DESIGN.md §B, §B2): predict() and predict_batch() may
// be called concurrently from any number of threads — forward() only
// reads the weights and autograd's no-grad mode is thread-local.
// predict_batch() fans out on the caller's pool with try_parallel_for:
// a caller that finds the pool busy runs its batch inline, so no caller
// ever blocks idle.  Cross-request coalescing is serve::BatchScheduler's
// job; it calls predict() once per sample, on the sample's own engine,
// and passes its pool to a lone sample's predict() so that forward
// splits over the idle lanes.
//
// Only the engines a serve::ModelRegistry builds get a plan cache, the
// registry's shared one (DESIGN.md §G).  Their model is exposed only as
// `const core::Model&`, which keeps it out of eval::predict_source's
// streamed, address-recycling passes, and the registry's
// invalidate()/clear_plan_cache() hooks carry core::PlanCache's
// address-lifetime contract.  The engine itself holds no mutex.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "serve/bundle.hpp"
#include "util/thread_pool.hpp"

namespace rnx::serve {

class InferenceEngine {
 public:
  /// Load the bundle at `path`.
  explicit InferenceEngine(const std::string& path);
  /// Adopt an already-loaded bundle (must hold a model).  A non-null
  /// `cache` is attached to the model: ModelRegistry::make_engine passes
  /// the registry's shared cache, and nothing else passes one.
  explicit InferenceEngine(ModelBundle bundle,
                           std::shared_ptr<core::PlanCache> cache = nullptr);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Per-path predictions for one scenario, in the sample's path order,
  /// in physical units (seconds or seconds^2 per the bundle's target).
  /// Safe to call concurrently.  A `pool` splits the forward over its
  /// idle lanes (core::Model::forward), with the serial bits; a busy
  /// pool runs it inline.  BatchScheduler passes its pool for a batch
  /// of one sample.
  [[nodiscard]] std::vector<double> predict(
      const data::Sample& sample, util::ThreadPool* pool = nullptr) const;

  /// Batched request: one prediction vector per sample, fanned out over
  /// the caller's `pool` (serial when null, inline when the pool is
  /// busy).  Safe to call concurrently; outputs are bitwise-identical to
  /// per-sample predict() either way.  Throws the first failing sample's
  /// error (in sample order).
  [[nodiscard]] std::vector<std::vector<double>> predict_batch(
      std::span<const data::Sample> samples,
      util::ThreadPool* pool = nullptr) const;

  /// Mean predicted value over a scenario's paths — the what-if loop's
  /// scalar objective (examples/what_if_queue_upgrade.cpp).
  [[nodiscard]] double predict_mean(const data::Sample& sample) const;

  // -- bundle context (read-only) ---------------------------------------
  [[nodiscard]] const core::Model& model() const noexcept { return *model_; }
  [[nodiscard]] const data::Scaler& scaler() const noexcept {
    return scaler_;
  }
  [[nodiscard]] core::PredictionTarget target() const noexcept {
    return target_;
  }

 private:
  /// One forward's normalized column in physical units.
  [[nodiscard]] std::vector<double> to_physical(const nn::Tensor& pred) const;

  /// The registry's shared cache, co-owned so it outlives every forward
  /// of an engine a request still holds (and, declared first, the model
  /// that points at it); null for a standalone engine.
  std::shared_ptr<core::PlanCache> plan_cache_;
  std::unique_ptr<core::Model> model_;
  data::Scaler scaler_;
  core::PredictionTarget target_;
};

}  // namespace rnx::serve

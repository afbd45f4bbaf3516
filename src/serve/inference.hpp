// Serving layer: load a model bundle once, answer prediction requests.
//
// The engine owns the reconstructed model, the training-set scaler, a
// core::PlanCache shared across requests (repeated what-if queries over
// the same scenario pay build_plan once — and, inside a ModelRegistry,
// shared across *engines*), and an optional ThreadPool for batch
// fan-out.  Predictions come back in physical units — seconds for
// delay, seconds^2 for jitter — ready for an operator-facing API.
//
// Thread-safety (DESIGN.md §B, §B2): predict() and predict_batch() may
// be called concurrently from any number of threads — forward() only
// reads the weights, the plan cache takes its own lock, and autograd's
// no-grad mode is thread-local.  predict_batch() fans out on the
// engine's pool with try_parallel_for: a caller that finds the pool busy
// runs its batch inline, so no caller ever blocks idle.  Cross-request
// coalescing is serve::BatchScheduler's job.
//
// This engine is the only code that attaches a plan cache to a model;
// training and evaluation build each plan per forward.  The attached
// model is exposed only as `const core::Model&`, which keeps it out of
// eval::predict_source's streamed, address-recycling passes.  Plan-cache
// entries are keyed by sample identity (address): a caller that
// destroys or mutates request samples and then recycles their addresses
// must invalidate()/clear_plan_cache() first, same contract as
// core::PlanCache.
//
// The engine itself holds no mutex: its shared mutable state lives in
// the annotated components it composes — core::PlanCache and
// util::ThreadPool — whose lock discipline the static-analysis gate
// proves at compile time (DESIGN.md §L).
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/plan_cache.hpp"
#include "serve/bundle.hpp"
#include "util/thread_pool.hpp"

namespace rnx::serve {

class InferenceEngine {
 public:
  /// Load the bundle at `path`.  `threads` sizes the batch fan-out pool
  /// (1 = serial batches, 0 = all hardware threads).
  explicit InferenceEngine(const std::string& path, std::size_t threads = 1);
  /// Adopt an already-loaded bundle (must hold a model).
  explicit InferenceEngine(ModelBundle bundle, std::size_t threads = 1);
  /// Adopt a bundle and attach `cache` instead of an engine-private plan
  /// cache — the ModelRegistry path, where every engine shares one cache
  /// and the registry's pool (so `threads` defaults to poolless).
  InferenceEngine(ModelBundle bundle, std::shared_ptr<core::PlanCache> cache,
                  std::size_t threads = 1);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;
  ~InferenceEngine();

  /// Per-path predictions for one scenario, in the sample's path order,
  /// in physical units (seconds or seconds^2 per the bundle's target).
  /// Safe to call concurrently.
  [[nodiscard]] std::vector<double> predict(const data::Sample& sample) const;

  /// Batched request: one prediction vector per sample, fanned out over
  /// the engine's pool (inline when another call holds it).  Safe to
  /// call concurrently; outputs are bitwise-identical to per-sample
  /// predict() either way.  Throws the first failing sample's error (in
  /// sample order).
  [[nodiscard]] std::vector<std::vector<double>> predict_batch(
      std::span<const data::Sample> samples) const;

  /// Scattered batch over sample pointers: the BatchScheduler's
  /// execution hook (batches gather samples from many queued requests).
  /// With `errors` non-null, each sample's forward error lands in its
  /// slot (the prediction slot stays empty) instead of failing the whole
  /// batch.  `pool` may belong to the caller (e.g. the registry); if it
  /// is busy the batch runs inline — never blocks.
  [[nodiscard]] std::vector<std::vector<double>> predict_ptrs(
      std::span<const data::Sample* const> samples, util::ThreadPool* pool,
      std::vector<std::exception_ptr>* errors = nullptr) const;

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
  [[nodiscard]] std::size_t threads() const noexcept;

  // -- plan-cache lifetime hooks (see header comment) -------------------
  void invalidate(const data::Sample& sample) const;
  void clear_plan_cache() const;
  [[nodiscard]] const core::PlanCache& plan_cache() const noexcept {
    return *plan_cache_;
  }

 private:
  [[nodiscard]] double denormalize(double target_value) const;

  std::unique_ptr<core::Model> model_;
  data::Scaler scaler_;
  core::PredictionTarget target_;
  std::shared_ptr<core::PlanCache> plan_cache_;  ///< private or registry-shared
  mutable std::optional<util::ThreadPool> pool_;  ///< threads > 1 only
};

}  // namespace rnx::serve

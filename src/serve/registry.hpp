// Named bundle registry: one serving process, many models.
//
// A production digital-twin deployment serves heterogeneous queries —
// delay and jitter targets, scenario-featured and plain bundles, v1 and
// v2 formats — from one process.  The registry owns one InferenceEngine
// per named bundle plus the two resources they share (DESIGN.md §B2):
//
//  * one core::PlanCache, the only plan memo in serving (DESIGN.md §G)
//    — message-passing plans depend only on the sample's
//    topology/routing and the use_nodes flag, not on weights, so a
//    scenario queried against several models pays build_plan once.
//    Entries are keyed by sample address: a caller that mutates or
//    destroys a served sample calls invalidate() (or clear_plan_cache())
//    before serving it, or its address, again;
//  * one util::ThreadPool — a single process gets one set of fan-out
//    lanes, however many bundles it serves (per-engine pools would
//    oversubscribe the host).
//
// Lifecycle: registration and lookup are mutex-synchronized, so bundles
// can be added — and hot-swapped via swap_bundle() — while schedulers
// serve.  Lookup by unknown name is a typed UnknownModelError, so a
// routing typo is distinguishable from every other failure.
//
// Hot reload (DESIGN.md §R): swap_bundle() fully constructs the new
// engine BEFORE publishing it under the name, so no lookup can ever see
// a torn bundle.  Requests that resolved the old engine keep it alive
// through their shared_ptr (BatchScheduler's registry path co-owns the
// engine per request); the old engine is retired, and drain() blocks
// until every retired engine's last in-flight request has released it.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/plan_cache.hpp"
#include "serve/errors.hpp"
#include "serve/inference.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace rnx::serve {

class ModelRegistry {
 public:
  /// `threads` sizes the shared fan-out pool (1 = no pool, 0 = all
  /// hardware threads) handed to the batch scheduler.
  explicit ModelRegistry(std::size_t threads = 1);
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Register `bundle` under `name`.  Throws std::invalid_argument on an
  /// empty or duplicate name.  Returns the wrapping engine (borrowed).
  InferenceEngine& add(std::string name, ModelBundle bundle);
  /// Load the bundle at `path` and register it under `name`.
  InferenceEngine& add(std::string name, const std::string& path);

  /// Atomic hot reload: replace the engine serving `name` with one
  /// freshly built from `bundle`.  The new engine is fully constructed
  /// before it becomes visible; lookups before the swap resolve the old
  /// engine (kept alive by their shared_ptr), lookups after it resolve
  /// the new one — never a torn state.  The old engine moves to the
  /// retired list until its last holder releases it (see drain()).
  /// Throws std::invalid_argument when `name` is not registered.
  void swap_bundle(std::string_view name, ModelBundle bundle);
  /// Load the bundle at `path` and swap it in under `name`.
  void swap_bundle(std::string_view name, const std::string& path);

  /// Block until every retired engine (from swap_bundle) has been
  /// released by its last in-flight request, then discard them.  Call
  /// after BatchScheduler::drain() — or any time — to bound the memory
  /// of repeated hot reloads.
  void drain();
  /// Retired engines still held by at least one in-flight request.
  [[nodiscard]] std::size_t retired_alive() const;

  /// The engine serving `name`, or nullptr when unregistered.  The raw
  /// pointer is stable only until a swap_bundle for the name retires the
  /// engine AND its last co-owner releases it; serving paths that must
  /// survive hot reloads use find_shared().
  [[nodiscard]] const InferenceEngine* find(
      std::string_view name) const noexcept;
  /// The engine serving `name` with shared ownership (nullptr when
  /// unregistered): the holder pins the engine across a concurrent
  /// swap_bundle — what BatchScheduler's registry path stores per
  /// request.
  [[nodiscard]] std::shared_ptr<const InferenceEngine> find_shared(
      std::string_view name) const noexcept;
  /// As find(), but an unknown name throws UnknownModelError naming the
  /// registered bundles.
  [[nodiscard]] const InferenceEngine& at(std::string_view name) const;

  /// Registered names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  /// The shared fan-out pool (nullptr when threads == 1).
  [[nodiscard]] util::ThreadPool* pool() const noexcept {
    return pool_ ? &*pool_ : nullptr;
  }
  [[nodiscard]] const core::PlanCache& plan_cache() const noexcept {
    return *cache_;
  }

  // -- shared plan-cache lifetime hooks (core::PlanCache contract) ------
  void invalidate(const data::Sample& sample) { cache_->invalidate(sample); }
  void clear_plan_cache() { cache_->clear(); }

 private:
  [[nodiscard]] std::shared_ptr<InferenceEngine> make_engine(
      ModelBundle bundle) const;

  std::shared_ptr<core::PlanCache> cache_;
  mutable std::optional<util::ThreadPool> pool_;  ///< threads > 1 only
  mutable util::Mutex mu_;
  /// Registration order; linear scan (registries are small).
  std::vector<std::pair<std::string, std::shared_ptr<InferenceEngine>>>
      engines_ RNX_GUARDED_BY(mu_);
  /// Engines displaced by swap_bundle, observed (not owned) until their
  /// last in-flight request lets go — drain()'s completion condition.
  std::vector<std::weak_ptr<InferenceEngine>> retired_ RNX_GUARDED_BY(mu_);
};

}  // namespace rnx::serve

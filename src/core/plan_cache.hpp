// Memoized message-passing plans.
//
// build_plan() is pure in the sample's topology/routing.  The cache keys
// plans by sample *identity* (object address) and the use_nodes flag, so
// repeated what-if queries over one resident scenario build its plan
// once.  Only serve::ModelRegistry owns one, shared by the engines it
// builds; a standalone serve::InferenceEngine, training, evaluation and
// the benches build the plan on every forward, which costs ~1% of it.
//
// Identity keying makes the cache O(1) with zero hashing of sample
// contents, but ties an entry's validity to the sample object's lifetime:
// callers must invalidate() (or clear()) before a keyed sample is
// destroyed or mutated.
//
// Thread-safe: lookups and inserts take an internal mutex; on a miss the
// plan is built outside the lock, so concurrent misses may build the same
// plan twice but only one copy is kept (first writer wins; the plans are
// identical because build_plan is deterministic).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/plan.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace rnx::core {

class PlanCache {
 public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for (sample, use_nodes), building and caching it on a miss.
  /// The returned pointer stays valid independently of later invalidation
  /// (shared ownership).
  [[nodiscard]] std::shared_ptr<const MpPlan> get(const data::Sample& sample,
                                                  bool use_nodes);

  /// Drop both variants (use_nodes true/false) cached for this sample.
  void invalidate(const data::Sample& sample);
  /// Drop everything (the counters survive).
  void clear();

  /// Consistent point-in-time view of all counters under one lock.
  /// Invariant the tests pin: hits + misses == lookups.
  struct Stats {
    std::size_t size = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Key {
    const data::Sample* sample;
    bool use_nodes;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<const void*>{}(k.sample) ^
             (k.use_nodes ? 0x9e3779b97f4a7c15ULL : 0);
    }
  };

  mutable util::Mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const MpPlan>, KeyHash> map_
      RNX_GUARDED_BY(mu_);
  std::uint64_t hits_ RNX_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ RNX_GUARDED_BY(mu_) = 0;
};

}  // namespace rnx::core

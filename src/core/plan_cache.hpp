// Memoized message-passing plans, with an optional byte budget.
//
// build_plan() is pure in the sample's topology/routing.  The cache keys
// plans by sample *identity* (object address) and the use_nodes flag, so
// repeated what-if queries over one resident scenario build its plan
// once.  Only serve::InferenceEngine attaches a cache (one per engine, or
// one per ModelRegistry shared by its engines); training, evaluation and
// the benches build the plan on every forward, which costs ~1% of it.
//
// Identity keying makes the cache O(1) with zero hashing of sample
// contents, but ties an entry's validity to the sample object's lifetime:
// callers must invalidate() (or clear()) before a keyed sample is
// destroyed or mutated.
//
// Byte budget (DESIGN.md §G): set_byte_budget(B) caps the sum of
// MpPlan::bytes() over resident entries; inserts that push the total over
// B evict least-recently-used entries until it fits.  Eviction only drops
// the cache's reference — pointers already handed out stay valid (shared
// ownership), so even a plan larger than the whole budget serves its
// caller and is simply not retained.  Budget 0 (the default) means
// unlimited.
//
// Thread-safe: lookups and inserts take an internal mutex; on a miss the
// plan is built outside the lock, so concurrent misses may build the same
// plan twice but only one copy is kept (first writer wins; the plans are
// identical because build_plan is deterministic).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/plan.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace rnx::core {

class PlanCache {
 public:
  /// byte_budget caps resident plan bytes (0 = unlimited).
  explicit PlanCache(std::size_t byte_budget = 0)
      : byte_budget_(byte_budget) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for (sample, use_nodes), building and caching it on a miss.
  /// The returned pointer stays valid independently of later invalidation
  /// or eviction (shared ownership).
  [[nodiscard]] std::shared_ptr<const MpPlan> get(const data::Sample& sample,
                                                  bool use_nodes);

  /// Drop both variants (use_nodes true/false) cached for this sample.
  void invalidate(const data::Sample& sample);
  /// Drop everything (counters and peak_bytes survive; bytes drops to 0).
  void clear();
  /// Change the byte budget (0 = unlimited); evicts immediately if the
  /// resident set no longer fits.
  void set_byte_budget(std::size_t budget);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  /// Consistent point-in-time view of all counters under one lock
  /// (separate getters can interleave with concurrent inserts).  The
  /// serving stats snapshot reports this (serve/stats.hpp).  Invariants
  /// the tests pin: hits + misses == lookups; bytes <= peak_bytes;
  /// bytes <= budget whenever a budget is set.
  struct Stats {
    std::size_t size = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;       ///< resident plan bytes right now
    std::size_t peak_bytes = 0;  ///< high-water mark of bytes
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
  struct Entry {
    std::shared_ptr<const MpPlan> plan;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru;  ///< position in lru_ (front = hottest)
  };

  /// Drop one entry (map + LRU list + byte accounting).
  void drop_locked(std::unordered_map<Key, Entry, KeyHash>::iterator it)
      RNX_REQUIRES(mu_);
  /// Evict LRU entries until bytes_ fits the budget.
  void enforce_budget_locked() RNX_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> map_ RNX_GUARDED_BY(mu_);
  /// Front = most recently used.
  std::list<Key> lru_ RNX_GUARDED_BY(mu_);
  std::size_t byte_budget_ RNX_GUARDED_BY(mu_) = 0;  // 0 = unlimited
  std::size_t bytes_ RNX_GUARDED_BY(mu_) = 0;
  std::size_t peak_bytes_ RNX_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ RNX_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ RNX_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ RNX_GUARDED_BY(mu_) = 0;
};

}  // namespace rnx::core

#include "core/plan_cache.hpp"

namespace rnx::core {

std::shared_ptr<const MpPlan> PlanCache::get(const data::Sample& sample,
                                             bool use_nodes) {
  const Key key{&sample, use_nodes};
  {
    const util::MutexLock lock(mu_);
    if (const auto it = map_.find(key); it != map_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Build outside the lock: plans for large samples are expensive and
  // build_plan is deterministic, so a duplicate concurrent build is
  // wasted work at worst, never an inconsistency.
  auto plan = std::make_shared<const MpPlan>(build_plan(sample, use_nodes));
  const util::MutexLock lock(mu_);
  // On a lost race the first writer's copy stays and is served.
  return map_.try_emplace(key, std::move(plan)).first->second;
}

void PlanCache::invalidate(const data::Sample& sample) {
  const util::MutexLock lock(mu_);
  for (const bool use_nodes : {false, true})
    map_.erase(Key{&sample, use_nodes});
}

void PlanCache::clear() {
  const util::MutexLock lock(mu_);
  map_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  const util::MutexLock lock(mu_);
  return Stats{map_.size(), hits_ + misses_, hits_, misses_};
}

}  // namespace rnx::core

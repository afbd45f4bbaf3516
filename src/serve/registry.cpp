#include "serve/registry.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace rnx::serve {

ModelRegistry::ModelRegistry(std::size_t threads)
    : cache_(std::make_shared<core::PlanCache>()) {
  if (threads == 0) threads = util::ThreadPool::hardware_threads();
  if (threads > 1) pool_.emplace(threads);
}

std::shared_ptr<InferenceEngine> ModelRegistry::make_engine(
    ModelBundle bundle) const {
  // Engines share the registry cache; a scheduler built on the registry
  // pool fans each batch's samples out over it.
  return std::make_shared<InferenceEngine>(std::move(bundle), cache_);
}

InferenceEngine& ModelRegistry::add(std::string name, ModelBundle bundle) {
  if (name.empty())
    throw std::invalid_argument("ModelRegistry: bundle name must not be empty");
  // Construct OUTSIDE the lock: loading weights is slow and a failed
  // build must leave the registry untouched.
  std::shared_ptr<InferenceEngine> engine = make_engine(std::move(bundle));
  InferenceEngine& ref = *engine;
  const util::MutexLock lock(mu_);
  for (const auto& [n, e] : engines_)
    if (n == name)
      throw std::invalid_argument("ModelRegistry: duplicate bundle name '" +
                                  name + "'");
  engines_.emplace_back(std::move(name), std::move(engine));
  return ref;
}

InferenceEngine& ModelRegistry::add(std::string name,
                                    const std::string& path) {
  return add(std::move(name), load_bundle(path));
}

void ModelRegistry::swap_bundle(std::string_view name, ModelBundle bundle) {
  // Build the replacement COMPLETELY before taking the lock: the swap
  // below is a pointer exchange, so no lookup window ever observes a
  // half-constructed engine, and a bad bundle leaves serving untouched.
  std::shared_ptr<InferenceEngine> fresh = make_engine(std::move(bundle));
  std::shared_ptr<InferenceEngine> old;
  {
    const util::MutexLock lock(mu_);
    for (auto& [n, engine] : engines_) {
      if (n != name) continue;
      old = std::exchange(engine, std::move(fresh));
      retired_.push_back(old);
      // `old` drops its local reference OUTSIDE the lock (declared in
      // the enclosing scope): if this was the last holder, the engine's
      // destructor does not run under mu_.
      return;
    }
  }
  throw std::invalid_argument("ModelRegistry: swap_bundle of unregistered "
                              "model '" + std::string(name) + "'");
}

void ModelRegistry::swap_bundle(std::string_view name,
                                const std::string& path) {
  swap_bundle(name, load_bundle(path));
}

std::size_t ModelRegistry::retired_alive() const {
  const util::MutexLock lock(mu_);
  std::size_t alive = 0;
  for (const auto& w : retired_)
    if (!w.expired()) ++alive;
  return alive;
}

void ModelRegistry::drain() {
  using namespace std::chrono_literals;
  for (;;) {
    {
      const util::MutexLock lock(mu_);
      std::erase_if(retired_,
                    [](const std::weak_ptr<InferenceEngine>& w) {
                      return w.expired();
                    });
      if (retired_.empty()) return;
    }
    // Holders are in-flight requests draining through the scheduler;
    // poll rather than wiring a condition through every release path.
    std::this_thread::sleep_for(200us);
  }
}

const InferenceEngine* ModelRegistry::find(
    std::string_view name) const noexcept {
  const util::MutexLock lock(mu_);
  for (const auto& [n, engine] : engines_)
    if (n == name) return engine.get();
  return nullptr;
}

std::shared_ptr<const InferenceEngine> ModelRegistry::find_shared(
    std::string_view name) const noexcept {
  const util::MutexLock lock(mu_);
  for (const auto& [n, engine] : engines_)
    if (n == name) return engine;
  return nullptr;
}

const InferenceEngine& ModelRegistry::at(std::string_view name) const {
  if (const InferenceEngine* engine = find(name)) return *engine;
  std::string known;
  {
    const util::MutexLock lock(mu_);
    for (const auto& [n, engine] : engines_)
      known += (known.empty() ? "" : ", ") + n;
  }
  throw UnknownModelError("ModelRegistry: unknown model '" +
                          std::string(name) + "' (registered: " +
                          (known.empty() ? "<none>" : known) + ")");
}

std::vector<std::string> ModelRegistry::names() const {
  const util::MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(engines_.size());
  for (const auto& [n, engine] : engines_) out.push_back(n);
  return out;
}

std::size_t ModelRegistry::size() const {
  const util::MutexLock lock(mu_);
  return engines_.size();
}

}  // namespace rnx::serve

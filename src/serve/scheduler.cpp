#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/kernels.hpp"
#include "serve/inference.hpp"
#include "serve/registry.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace rnx::serve {

namespace {

// Admission validation: a request whose every sample has finite,
// non-negative traffic, finite positive capacities and no empty path.
// The forward would throw for a non-finite traffic or capacity anyway,
// but only after the request took a batch slot, and it lets negative
// and zero values and empty paths through to finite but meaningless
// predictions.  Queue sizes are not checked: an original-kind model
// never reads them.
bool valid_request(std::span<const data::Sample> samples) {
  for (const data::Sample& s : samples) {
    for (const data::PathRecord& p : s.paths)
      if (!std::isfinite(p.traffic_bps) || p.traffic_bps < 0.0 ||
          p.links.empty())
        return false;
    for (const double c : s.link_capacity_bps)
      if (!std::isfinite(c) || c <= 0.0) return false;
  }
  return true;
}

}  // namespace

BatchScheduler::BatchScheduler(SchedulerConfig cfg, util::ThreadPool* pool)
    : cfg_(std::move(cfg)), pool_(pool) {
  if (cfg_.max_queue_depth == 0)
    throw std::invalid_argument("BatchScheduler: max_queue_depth must be > 0");
  if (cfg_.max_batch_samples == 0)
    throw std::invalid_argument(
        "BatchScheduler: max_batch_samples must be > 0");
  if (cfg_.max_linger.count() < 0)
    throw std::invalid_argument("BatchScheduler: max_linger must be >= 0");
  if (cfg_.now && !cfg_.manual_drain)
    throw std::invalid_argument(
        "BatchScheduler: a scripted clock requires manual_drain (the "
        "drainer thread sleeps on the real clock)");
  if (!cfg_.manual_drain) drainer_ = std::thread([this] { drain_loop(); });
}

BatchScheduler::~BatchScheduler() { shutdown(); }

BatchScheduler::ClockPoint BatchScheduler::clock_now() const {
  return cfg_.now ? cfg_.now() : std::chrono::steady_clock::now();
}

Submitted BatchScheduler::submit(const InferenceEngine& engine,
                                 std::span<const data::Sample> samples,
                                 SubmitOptions opts) {
  return submit_impl(&engine, nullptr, samples, opts);
}

Submitted BatchScheduler::submit_impl(
    const InferenceEngine* engine,
    std::shared_ptr<const InferenceEngine> keep_alive,
    std::span<const data::Sample> samples, SubmitOptions opts) {
  Submitted out;
  std::promise<PredictionSet> empty_done;
  bool notify = false;
  const bool valid = valid_request(samples);  // outside the lock
  {
    const util::MutexLock lock(mu_);
    if (shutdown_) {
      // A downed scheduler accounts nothing: kShutdown submissions stay
      // outside the submitted == admitted + shed conservation law.
      out.error = ServeError::kShutdown;
      return out;
    }
    ++stats_.submitted;
    if (draining_) {
      // Graceful drain sheds new arrivals while completing admitted
      // work; unlike shutdown, these ARE counted (the server is up and
      // refusing, not gone).
      out.error = ServeError::kDraining;
      ++stats_.shed;
    } else if (!valid) {
      out.error = ServeError::kInvalidRequest;
      ++stats_.shed;
      ++stats_.invalid;
    } else if (opts.deadline.count() < 0) {
      // Already unmeetable: refuse at admission rather than admitting a
      // request whose only possible outcome is expiry.
      out.error = ServeError::kDeadlineExceeded;
      ++stats_.shed;
    } else if (samples.empty()) {
      // Nothing to batch: resolve immediately (outside the lock).
      ++stats_.admitted;
      ++stats_.completed;
      out.result = empty_done.get_future();
    } else if (pending_.size() >= cfg_.max_queue_depth) {
      out.error = ServeError::kOverloaded;
      ++stats_.shed;
    } else {
      ++stats_.admitted;
      Request req{engine,
                  samples,
                  std::promise<PredictionSet>(),
                  clock_now(),
                  ClockPoint{},
                  false,
                  std::make_shared<std::atomic<bool>>(false),
                  std::move(keep_alive)};
      if (opts.deadline.count() > 0) {
        req.has_deadline = true;
        req.deadline = req.enqueued + opts.deadline;
      }
      out.result = req.promise.get_future();
      out.cancel_flag = req.cancelled;
      pending_.push_back(std::move(req));
      stats_.queue_depth = pending_.size();
      stats_.peak_queue_depth =
          std::max(stats_.peak_queue_depth, stats_.queue_depth);
      notify = !cfg_.manual_drain;
    }
  }
  if (out.admitted() && samples.empty()) empty_done.set_value({});
  if (notify) cv_.notify_one();
  return out;
}

Submitted BatchScheduler::submit(const ModelRegistry& registry,
                                 std::string_view model,
                                 std::span<const data::Sample> samples,
                                 SubmitOptions opts) {
  std::shared_ptr<const InferenceEngine> engine = registry.find_shared(model);
  if (engine == nullptr) {
    const util::MutexLock lock(mu_);
    Submitted out;
    if (shutdown_) {
      // Same rule as the engine path: a downed scheduler accounts
      // nothing, whatever the refusal reason.
      out.error = ServeError::kShutdown;
      return out;
    }
    ++stats_.submitted;
    ++stats_.shed;
    out.error = ServeError::kUnknownModel;
    return out;
  }
  const InferenceEngine* raw = engine.get();
  return submit_impl(raw, std::move(engine), samples, opts);
}

bool BatchScheduler::front_ready_locked(ClockPoint now) const {
  if (pending_.empty()) return false;
  if (draining_) return true;  // no lingering while draining
  if (now - pending_.front().enqueued >= cfg_.max_linger) return true;
  std::size_t samples = 0;
  for (const Request& r : pending_) {
    samples += r.samples.size();
    if (samples >= cfg_.max_batch_samples) return true;
  }
  return false;
}

BatchScheduler::Batch BatchScheduler::take_front_locked() {
  Batch out;
  if (pending_.empty()) return out;
  std::size_t samples = 0;
  while (!pending_.empty()) {
    const std::size_t k = pending_.front().samples.size();
    if (!out.empty() && samples + k > cfg_.max_batch_samples) break;
    samples += k;
    out.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  stats_.queue_depth = pending_.size();
  ++stats_.batches;
  stats_.batch_samples += samples;
  stats_.peak_batch_samples =
      std::max<std::uint64_t>(stats_.peak_batch_samples, samples);
  executing_ += out.size();  // released at the end of execute()
  return out;
}

std::vector<BatchScheduler::DeadRequest> BatchScheduler::collect_dead_locked(
    ClockPoint now) {
  std::vector<DeadRequest> dead;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const bool cancel =
        it->cancelled && it->cancelled->load(std::memory_order_relaxed);
    const bool expired = !cancel && it->has_deadline && now >= it->deadline;
    if (!cancel && !expired) {
      ++it;
      continue;
    }
    dead.push_back({std::move(*it), cancel});
    it = pending_.erase(it);
  }
  if (!dead.empty()) {
    stats_.queue_depth = pending_.size();
    // Counters commit under the lock BEFORE the promises resolve (same
    // discipline as execute); executing_ bridges the gap for drain().
    for (const DeadRequest& d : dead)
      d.was_cancelled ? ++stats_.cancelled : ++stats_.expired;
    executing_ += dead.size();
  }
  return dead;
}

void BatchScheduler::resolve_dead(std::vector<DeadRequest>& dead) {
  if (dead.empty()) return;
  for (DeadRequest& d : dead) {
    if (d.was_cancelled) {
      d.req.promise.set_exception(std::make_exception_ptr(CancelledError(
          "BatchScheduler: request cancelled before execution")));
    } else {
      d.req.promise.set_exception(std::make_exception_ptr(
          DeadlineExceededError("BatchScheduler: deadline exceeded before "
                                "execution (request expired in queue)")));
    }
  }
  {
    const util::MutexLock lock(mu_);
    executing_ -= dead.size();
  }
  drained_cv_.notify_all();
}

void BatchScheduler::reap() {
  std::vector<DeadRequest> dead;
  {
    const util::MutexLock lock(mu_);
    dead = collect_dead_locked(clock_now());
  }
  resolve_dead(dead);
}

void BatchScheduler::execute(Batch batch) {
  if (batch.empty()) return;
  // One item per (request, sample), each forwarded on its own request's
  // engine by the same per-sample predict() the serial path runs, so a
  // batch spanning engines keeps every lane busy until its last item.
  struct Item {
    const InferenceEngine* engine;
    const data::Sample* sample;
  };
  std::vector<Item> items;
  for (const Request& r : batch)
    for (const data::Sample& s : r.samples) items.push_back({r.engine, &s});

  // Injected execution faults (serve.execute[.slow]): a stalled model —
  // param microseconds, default 1ms — and a whole-batch failure, both at
  // the point a real engine would stall or throw.
  if (util::fault_fires("serve.execute.slow")) {
    const std::uint64_t us =
        util::FaultInjector::instance().param("serve.execute.slow");
    std::this_thread::sleep_for(std::chrono::microseconds(us ? us : 1000));
  }
  PredictionSet values(items.size());
  std::vector<std::exception_ptr> errors(items.size());
  std::exception_ptr batch_error;
  try {
    if (util::fault_fires("serve.execute"))
      throw util::FaultInjectedError(
          "injected whole-batch execution failure (serve.execute)");
    // A lone item's forward splits over the pool; a batch of several
    // fans its items out over it instead.
    util::ThreadPool* const split = items.size() == 1 ? pool_ : nullptr;
    const auto run = [&](std::size_t i) {
      try {
        values[i] = items[i].engine->predict(*items[i].sample, split);
      } catch (...) {
        errors[i] = std::current_exception();  // fails its request only
      }
    };
    // A pool busy with another batch runs this one inline, never waits.
    const bool pooled = pool_ != nullptr && pool_->size() > 1 &&
                        items.size() > 1 &&
                        pool_->try_parallel_for(items.size(), run);
    if (!pooled)
      for (std::size_t i = 0; i < items.size(); ++i) run(i);
  } catch (...) {
    // Whole-batch failure (not a per-sample forward error): every
    // request in the batch fails with the same cause.
    batch_error = std::current_exception();
  }

  const ClockPoint done = clock_now();
  std::vector<std::exception_ptr> request_err(batch.size());
  std::uint64_t completed = 0, failed = 0, latency_sum = 0, latency_max = 0;
  std::size_t off = 0;
  for (std::size_t ri = 0; ri < batch.size(); ++ri) {
    const std::size_t k = batch[ri].samples.size();
    std::exception_ptr err = batch_error;
    for (std::size_t i = off; err == nullptr && i < off + k; ++i)
      if (errors[i]) err = errors[i];  // first bad sample, in sample order
    request_err[ri] = err;
    err == nullptr ? ++completed : ++failed;
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        done - batch[ri].enqueued);
    const auto us = static_cast<std::uint64_t>(
        std::max<std::chrono::microseconds::rep>(waited.count(), 0));
    latency_sum += us;
    latency_max = std::max(latency_max, us);
    off += k;
  }

  // Commit the counters BEFORE resolving any promise: a caller that has
  // observed its future resolve must find its request already counted
  // (the soak test reads stats right after every writer's get() returns).
  {
    const util::MutexLock lock(mu_);
    stats_.completed += completed;
    stats_.failed += failed;
    stats_.latency_us_sum += latency_sum;
    stats_.latency_us_max = std::max(stats_.latency_us_max, latency_max);
  }

  off = 0;
  for (std::size_t ri = 0; ri < batch.size(); ++ri) {
    Request& r = batch[ri];
    const std::size_t k = r.samples.size();
    if (request_err[ri] != nullptr) {
      r.promise.set_exception(request_err[ri]);
    } else {
      PredictionSet slice(std::make_move_iterator(values.begin() + off),
                          std::make_move_iterator(values.begin() + off + k));
      r.promise.set_value(std::move(slice));
    }
    off += k;
  }

  // Every future in the batch is now resolved: release the executing_
  // hold taken in take_front_locked so drain() can observe completion.
  {
    const util::MutexLock lock(mu_);
    executing_ -= batch.size();
  }
  drained_cv_.notify_all();
}

std::size_t BatchScheduler::pump() {
  std::size_t executed = 0;
  reap();
  for (;;) {
    Batch batch;
    {
      const util::MutexLock lock(mu_);
      if (!front_ready_locked(clock_now())) break;
      batch = take_front_locked();
    }
    execute(std::move(batch));
    ++executed;
  }
  return executed;
}

std::size_t BatchScheduler::flush() {
  std::size_t executed = 0;
  reap();
  for (;;) {
    Batch batch;
    {
      const util::MutexLock lock(mu_);
      batch = take_front_locked();
    }
    if (batch.empty()) break;
    execute(std::move(batch));
    ++executed;
  }
  return executed;
}

void BatchScheduler::drain() {
  {
    const util::MutexLock lock(mu_);
    if (shutdown_) return;
    draining_ = true;
  }
  cv_.notify_all();  // wake the drainer: lingering is over
  // Execute everything admitted.  With a drainer thread this races it
  // benignly (flush is documented safe alongside it); in manual mode
  // this IS the drain.  Expired/cancelled requests resolve typed.
  flush();
  const util::MutexLock lock(mu_);
  while (!shutdown_ && !(pending_.empty() && executing_ == 0))
    drained_cv_.wait(mu_);
}

void BatchScheduler::shutdown() {
  std::deque<Request> orphans;
  {
    const util::MutexLock lock(mu_);
    shutdown_ = true;
    orphans.swap(pending_);
    stats_.queue_depth = 0;
    stats_.cancelled += orphans.size();
  }
  cv_.notify_all();
  drained_cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  for (Request& r : orphans)
    r.promise.set_exception(std::make_exception_ptr(ShutdownError(
        "BatchScheduler: shut down with the request still pending")));
}

void BatchScheduler::drain_loop() {
  util::MutexLock lock(mu_);
  while (!shutdown_) {
    if (pending_.empty()) {
      while (!shutdown_ && pending_.empty()) cv_.wait(mu_);
      continue;
    }
    const ClockPoint now = std::chrono::steady_clock::now();
    std::vector<DeadRequest> dead = collect_dead_locked(now);
    if (!dead.empty()) {
      lock.unlock();
      resolve_dead(dead);
      lock.lock();
      continue;
    }
    if (!front_ready_locked(now)) {
      // Wake for whichever comes first: the front's linger cut or the
      // earliest pending deadline (an expired request must resolve on
      // time even when no new submission arrives to nudge the drainer).
      ClockPoint wake = pending_.front().enqueued + cfg_.max_linger;
      for (const Request& r : pending_)
        if (r.has_deadline && r.deadline < wake) wake = r.deadline;
      cv_.wait_until(mu_, wake);
      continue;
    }
    Batch batch = take_front_locked();
    lock.unlock();
    execute(std::move(batch));
    lock.lock();
  }
}

ServeStats BatchScheduler::stats() const {
  const util::MutexLock lock(mu_);
  ServeStats out = stats_;
  out.kernel_isa = nn::kernels::active().name;
  out.kernel_reason = nn::kernels::dispatch_reason();
  return out;
}

}  // namespace rnx::serve

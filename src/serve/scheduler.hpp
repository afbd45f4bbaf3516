// Micro-batching request scheduler: the serving layer's concurrency core
// (DESIGN.md §B2).
//
// Callers enqueue predict requests (one or many samples against one
// InferenceEngine); a drainer coalesces the queue front into
// micro-batches whatever the engines, fans each batch's samples over the
// shared util::ThreadPool — every sample through its own request's
// InferenceEngine::predict, a lone sample's forward split over the pool
// instead — and completes per-request futures.
// Concurrent callers *pool their work* instead of waiting in line.
//
// Admission control: the pending queue is bounded (max_queue_depth
// requests).  A request that arrives at a full queue is shed immediately
// with ServeError::kOverloaded — submit() never blocks, so an overloaded
// server degrades by refusing work, not by growing latency without
// bound.  A request with an invalid sample is refused with
// ServeError::kInvalidRequest.
//
// Batch formation (exact, pinned by tests/serve_scheduler_test.cpp):
// requests wait in strict admission order; a batch is always formed from
// the queue *front* and extends over the longest prefix of requests,
// whatever their engines, whose combined sample count stays within
// max_batch_samples (requests are never split; a single request larger
// than max_batch_samples forms its own oversized batch).  The front
// batch is executed when either (a) the queue's prefix reaches
// max_batch_samples — the full cut — or (b) the front request has
// waited at least max_linger — the linger cut.  No request overtakes an
// earlier one: batches *start* in admission order, though concurrent
// executors may finish them out of order.
//
// Determinism: batching cannot change results.  Every sample's forward
// pass is an independent pure function of (weights, sample, scaler)
// written into its own output slot; no reduction ever crosses samples
// (§T), so any grouping of requests into batches — mixed engines
// included — and any lane count yields outputs bitwise-identical to
// serial InferenceEngine::predict, the very function each sample runs
// (a lone sample's split forward keeps the serial bits, §T).
// The test rig exercises exactly this: scripted clock, manual drain, and
// bitwise comparison against the serial path.
//
// Modes: with manual_drain=false a drainer thread waits out linger
// deadlines on the real clock.  With manual_drain=true no thread is
// spawned and time is read from the injected cfg.now — tests script the
// clock and call pump()/flush(), so linger expiry, full cuts and
// shedding are asserted exactly, with no sleeps and no flakiness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "data/sample.hpp"
#include "serve/errors.hpp"
#include "serve/stats.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace rnx::util {
class ThreadPool;
}

namespace rnx::serve {

class InferenceEngine;
class ModelRegistry;

/// Per-request result: one prediction vector per submitted sample, in
/// the sample's path order, physical units (see InferenceEngine).
using PredictionSet = std::vector<std::vector<double>>;

struct SchedulerConfig {
  /// Pending requests admitted before shedding (units: requests).
  std::size_t max_queue_depth = 1024;
  /// Full-cut threshold: a batch executes once the queue's front
  /// requests, whatever their engines, reach this many samples.
  std::size_t max_batch_samples = 32;
  /// Linger cut: the longest a front request waits for batch-mates.
  std::chrono::microseconds max_linger{200};
  /// No drainer thread; tests drive batch formation via pump()/flush().
  bool manual_drain = false;
  /// Scripted time source for the deterministic rig.  Only valid with
  /// manual_drain (the drainer thread sleeps on the real clock).
  /// Defaults to std::chrono::steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> now;
};

/// Per-request submission options.
struct SubmitOptions {
  /// Completion deadline, measured from admission on the scheduler's
  /// clock; zero means none.  A request whose deadline passes before its
  /// batch starts executing resolves with DeadlineExceededError (counted
  /// `expired`) WITHOUT paying the forward pass; a negative deadline is
  /// unmeetable and is shed at admission with kDeadlineExceeded.  Once a
  /// batch starts executing it always completes (expiry is checked at
  /// scheduling points, never mid-forward).
  std::chrono::microseconds deadline{0};
};

/// Admission handle: `error == ServeError::kNone` means the request was
/// admitted and `result` will resolve; otherwise the request was refused
/// and `result` is invalid.
struct Submitted {
  ServeError error = ServeError::kNone;
  std::future<PredictionSet> result;
  /// Cooperative cancellation flag; set for admitted non-empty requests.
  std::shared_ptr<std::atomic<bool>> cancel_flag;
  [[nodiscard]] bool admitted() const noexcept {
    return error == ServeError::kNone;
  }
  /// Ask the scheduler to drop this request.  Honored at the next
  /// scheduling point if the request is still queued (future resolves
  /// with CancelledError, counted `cancelled`); a request already
  /// executing completes normally.  Never blocks; safe to call twice.
  void request_cancel() const noexcept {
    if (cancel_flag) cancel_flag->store(true, std::memory_order_relaxed);
  }
};

class BatchScheduler {
 public:
  /// `pool` (borrowed, may be null) fans batch forwards out; it must
  /// outlive the scheduler.  Throws std::invalid_argument on a zero
  /// depth/batch bound or a scripted clock without manual_drain.
  explicit BatchScheduler(SchedulerConfig cfg,
                          util::ThreadPool* pool = nullptr);
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueue `samples` against `engine`.  Never blocks; a full queue
  /// sheds with kOverloaded, a downed scheduler with kShutdown, a
  /// draining one with kDraining, and a request with a sample the
  /// forward cannot answer meaningfully with kInvalidRequest: a
  /// non-finite or negative traffic_bps, a capacity that is not finite
  /// and positive, or a path with no links.  The caller keeps `samples` alive and
  /// unmodified until the future resolves (the batch references them in
  /// place — plan-cache keying is by sample address).  An empty span
  /// completes immediately.
  [[nodiscard]] Submitted submit(const InferenceEngine& engine,
                                 std::span<const data::Sample> samples,
                                 SubmitOptions opts = {});

  /// Registry-routed submission: resolves `model` by name and sheds with
  /// kUnknownModel when the registry holds no such bundle.  The request
  /// keeps the resolved engine alive (shared ownership), so a concurrent
  /// ModelRegistry::swap_bundle never frees an engine under its request:
  /// requests admitted before the swap finish on the old engine, requests
  /// after it run on the new one, even when both share a batch.
  [[nodiscard]] Submitted submit(const ModelRegistry& registry,
                                 std::string_view model,
                                 std::span<const data::Sample> samples,
                                 SubmitOptions opts = {});

  /// Execute every batch that is *ready* (full cut or expired linger)
  /// right now; returns the number of batches executed.  The manual
  /// rig's drain primitive.
  std::size_t pump();

  /// Execute everything pending regardless of linger; returns batches
  /// executed.  Safe alongside a live drainer thread.
  std::size_t flush();

  /// Graceful drain: stop admitting (new submissions shed with
  /// kDraining), execute every already-admitted request — expired or
  /// cancelled ones resolve with their typed error, the rest complete
  /// normally — and return once every admitted future has been resolved
  /// (zero lost futures).  Works in both drainer-thread and manual
  /// modes; idempotent.  The scheduler stays in the draining state
  /// afterwards — the graceful half of shutdown(), which remains the
  /// terminal call.
  void drain();

  /// Stop accepting work, join the drainer, and fail every pending
  /// request with ShutdownError (counted as cancelled).  Idempotent;
  /// the destructor calls it.  In-flight batches complete normally.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] util::ThreadPool* pool() const noexcept { return pool_; }

 private:
  using ClockPoint = std::chrono::steady_clock::time_point;
  struct Request {
    const InferenceEngine* engine;
    std::span<const data::Sample> samples;
    std::promise<PredictionSet> promise;
    ClockPoint enqueued;
    ClockPoint deadline{};
    bool has_deadline = false;
    std::shared_ptr<std::atomic<bool>> cancelled;
    /// Registry-routed requests co-own their engine so a hot swap can
    /// never free it under an in-flight batch (null on the engine path,
    /// where the caller owns the engine).
    std::shared_ptr<const InferenceEngine> keep_alive;
  };
  using Batch = std::vector<Request>;
  /// A request swept out of the queue before execution, with why.
  struct DeadRequest {
    Request req;
    bool was_cancelled = false;  ///< else: deadline expired
  };

  [[nodiscard]] Submitted submit_impl(
      const InferenceEngine* engine,
      std::shared_ptr<const InferenceEngine> keep_alive,
      std::span<const data::Sample> samples, SubmitOptions opts);
  [[nodiscard]] ClockPoint clock_now() const;
  /// True when the front batch may execute at `now` (full or linger cut;
  /// while draining, any pending request is ready).
  [[nodiscard]] bool front_ready_locked(ClockPoint now) const
      RNX_REQUIRES(mu_);
  /// Pop the front batch (longest request prefix within the sample
  /// bound, engines mixed); empty when nothing is pending.
  [[nodiscard]] Batch take_front_locked() RNX_REQUIRES(mu_);
  /// Sweep cancelled/expired requests out of the queue (counters
  /// committed under the lock; callers resolve them via resolve_dead).
  [[nodiscard]] std::vector<DeadRequest> collect_dead_locked(ClockPoint now)
      RNX_REQUIRES(mu_);
  /// Resolve swept requests with their typed error, outside the lock.
  void resolve_dead(std::vector<DeadRequest>& dead);
  /// collect + resolve in one step; every scheduling entry point calls
  /// this first so expiry/cancellation is observed before batching.
  void reap();
  /// Run one batch and resolve its promises; updates counters.
  void execute(Batch batch);
  void drain_loop();

  const SchedulerConfig cfg_;
  util::ThreadPool* const pool_;

  mutable util::Mutex mu_;
  util::CondVar cv_;          ///< wakes the drainer thread
  util::CondVar drained_cv_;  ///< drain() completion signal
  std::deque<Request> pending_ RNX_GUARDED_BY(mu_);
  bool shutdown_ RNX_GUARDED_BY(mu_) = false;
  bool draining_ RNX_GUARDED_BY(mu_) = false;
  /// Requests taken from the queue whose futures are not yet resolved —
  /// bridges the gap between the counter commit and the promise
  /// resolution so drain() cannot return with a future still pending.
  std::size_t executing_ RNX_GUARDED_BY(mu_) = 0;
  /// Counters (kernel tags filled per snapshot).
  ServeStats stats_ RNX_GUARDED_BY(mu_);
  std::thread drainer_;
};

}  // namespace rnx::serve

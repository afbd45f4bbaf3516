// Shared-queue thread pool for data-parallel loops.
//
// The pool exposes one primitive, parallel_for: run fn(i) for every i in
// [0, count), distributing indices over the workers with an atomic
// counter (dynamic scheduling — per-sample work in training is very
// uneven, so static chunking would idle workers).  The calling thread
// participates, so a pool of size 1 degenerates to an inline loop with no
// synchronization traffic beyond one atomic.  On Linux a worker that
// wakes on its caller's CPU moves off it (thread_pool.cpp), so a short
// job gets the parallelism it was split for.
//
// Determinism contract (DESIGN.md §T): the pool itself makes no ordering
// promises — which worker runs which index is scheduling-dependent.
// Callers that need reproducible results write into pre-sized per-index
// slots and reduce the slots in index order afterwards; the trainer's
// gradient merge does exactly that, which is why training results are
// bitwise-identical for *any* thread count.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace rnx::util {

class ThreadPool {
 public:
  /// A pool that runs parallel_for on `threads` lanes total (the caller
  /// counts as one lane, so `threads - 1` workers are spawned).
  /// threads == 0 is normalized to 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  [[nodiscard]] std::size_t size() const noexcept { return lanes_; }

  /// Run fn(i) for i in [0, count); blocks until every index finished.
  /// fn runs concurrently on up to size() lanes (including the caller).
  /// If any invocation throws, the first exception (in completion order)
  /// is rethrown here after all indices were dispatched.
  /// Safe to call from several threads at once: the pool runs one job at
  /// a time and concurrent callers queue on an internal job mutex (use
  /// try_parallel_for to fall back to inline work instead of waiting).
  /// Not reentrant: fn must not call parallel_for on the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// As parallel_for, but if another job currently owns the pool, returns
  /// false immediately without running anything — the caller is expected
  /// to do the work inline on its own thread.  The serving scheduler uses
  /// this so concurrent batch executions never block each other on the
  /// pool (DESIGN.md §B2).
  [[nodiscard]] bool try_parallel_for(std::size_t count,
                                      const std::function<void(std::size_t)>& fn);

  /// Jobs run so far: parallel_for calls and accepted try_parallel_for
  /// calls with count > 0.
  [[nodiscard]] std::uint64_t jobs() const;

  /// Best-effort hardware concurrency, never 0.
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();
  void run_job(std::size_t count, const std::function<void(std::size_t)>& fn)
      RNX_REQUIRES(job_mu_);

  std::size_t lanes_;
  std::vector<std::thread> workers_;

  /// Serializes whole jobs: held for the duration of one parallel_for
  /// call, guarding no data of its own (the job state below is under
  /// mu_, which workers take and drop per index).
  Mutex job_mu_;  // rnx-lint: allow(guarded-by) — serializes, guards no field
  mutable Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  std::uint64_t generation_ RNX_GUARDED_BY(mu_) = 0;  ///< bumped per job
  bool shutdown_ RNX_GUARDED_BY(mu_) = false;
  // Current job; count_ == 0 between jobs, so late-waking workers skip.
  const std::function<void(std::size_t)>* fn_ RNX_GUARDED_BY(mu_) = nullptr;
  std::size_t count_ RNX_GUARDED_BY(mu_) = 0;
  int caller_cpu_ RNX_GUARDED_BY(mu_) = -1;  ///< CPU of the job's caller
  std::size_t next_ RNX_GUARDED_BY(mu_) = 0;  ///< next index to claim
  std::size_t done_ RNX_GUARDED_BY(mu_) = 0;  ///< indices finished
  std::exception_ptr first_error_ RNX_GUARDED_BY(mu_);
};

}  // namespace rnx::util

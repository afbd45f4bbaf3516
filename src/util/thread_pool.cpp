#include "util/thread_pool.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace rnx::util {

namespace {

/// The CPU the calling thread runs on, or -1 where unknown.
int current_cpu() noexcept {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

// A worker woken for a job on the CPU its caller runs on adds no
// parallelism until the scheduler's balancer separates them, which can
// take longer than a whole short job: a woken thread is placed on its
// previous CPU when that is idle, else often on the waker's, and two
// threads that once shared a CPU keep doing so.  Such a worker moves
// off by excluding that CPU from its affinity for a moment; restoring
// the mask leaves it where it landed.
void leave_cpu(int cpu) noexcept {
#if defined(__linux__)
  if (cpu < 0 || sched_getcpu() != cpu) return;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      !CPU_ISSET(cpu, &mask) || CPU_COUNT(&mask) < 2)
    return;
  cpu_set_t away = mask;
  CPU_CLR(cpu, &away);
  if (sched_setaffinity(0, sizeof(away), &away) == 0)
    (void)sched_setaffinity(0, sizeof(mask), &mask);
#else
  (void)cpu;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : lanes_(std::max<std::size_t>(threads, 1)) {
  workers_.reserve(lanes_ - 1);
  for (std::size_t i = 0; i + 1 < lanes_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::uint64_t ThreadPool::jobs() const {
  const MutexLock lock(mu_);
  return generation_;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  MutexLock lock(mu_);
  for (;;) {
    while (!shutdown_ && !(generation_ != seen && next_ < count_))
      cv_start_.wait(mu_);
    if (shutdown_) return;
    seen = generation_;
    const int caller_cpu = caller_cpu_;
    lock.unlock();
    leave_cpu(caller_cpu);
    lock.lock();
    while (generation_ == seen && next_ < count_) {
      // Snapshot the job function POINTER under the lock: fn_ is only
      // rebound between generations, but the pre-annotation code read it
      // after unlock() — exactly the "probably fine" unguarded read the
      // thread-safety analysis rejects (DESIGN.md §L).
      const std::function<void(std::size_t)>* const fn = fn_;
      const std::size_t i = next_++;
      lock.unlock();
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && !first_error_) first_error_ = err;
      if (++done_ == count_) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const MutexLock job(job_mu_);
  run_job(count, fn);
}

bool ThreadPool::try_parallel_for(std::size_t count,
                                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return true;
  if (!job_mu_.try_lock()) return false;
  const MutexLock job(job_mu_, kAdoptLock);
  run_job(count, fn);
  return true;
}

void ThreadPool::run_job(std::size_t count,
                         const std::function<void(std::size_t)>& fn) {
  MutexLock lock(mu_);
  fn_ = &fn;
  caller_cpu_ = current_cpu();
  count_ = count;
  next_ = 0;
  done_ = 0;
  first_error_ = nullptr;
  ++generation_;
  if (lanes_ > 1 && count > 1) cv_start_.notify_all();

  // The calling thread is a full lane.
  while (next_ < count_) {
    const std::size_t i = next_++;
    lock.unlock();
    std::exception_ptr err;
    try {
      fn(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !first_error_) first_error_ = err;
    if (++done_ == count_) cv_done_.notify_all();
  }
  while (done_ != count_) cv_done_.wait(mu_);

  count_ = 0;  // idle: late-waking workers fall back to sleep
  fn_ = nullptr;
  if (first_error_) {
    const std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace rnx::util

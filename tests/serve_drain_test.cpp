// Serving degradation rig (DESIGN.md §R): per-request deadlines,
// cooperative cancellation, graceful drain, and hot bundle reload —
// asserted exactly on the scripted clock wherever possible, with
// real-clock threaded tests pinning only schedule-independent facts
// (zero lost futures, pinned engines, conservation laws).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "serve/errors.hpp"
#include "serve/inference.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;
using std::chrono::microseconds;

const data::Dataset& test_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 4, gen, 17));
  }();
  return ds;
}

serve::ModelBundle make_bundle(std::uint64_t init_seed = 5) {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 2;
  mc.init_seed = init_seed;
  serve::ModelBundle b;
  b.model = core::make_model(core::ModelKind::kExtended, mc);
  b.scaler = data::Scaler::fit(test_dataset().samples(), 5);
  b.target = core::PredictionTarget::kDelay;
  b.min_delivered = 5;
  return b;
}

struct ScriptedClock {
  std::chrono::steady_clock::time_point t{};
  void advance_us(std::int64_t us) { t += microseconds(us); }
  [[nodiscard]] auto fn() {
    return [this] { return t; };
  }
};

serve::SchedulerConfig manual_cfg(ScriptedClock& clock,
                                  std::size_t depth = 64,
                                  std::size_t max_batch = 8,
                                  std::int64_t linger_us = 100) {
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = depth;
  cfg.max_batch_samples = max_batch;
  cfg.max_linger = microseconds(linger_us);
  cfg.manual_drain = true;
  cfg.now = clock.fn();
  return cfg;
}

std::span<const data::Sample> one(std::size_t i) {
  return {&test_dataset()[i], 1};
}

serve::SubmitOptions with_deadline(std::int64_t us) {
  serve::SubmitOptions opts;
  opts.deadline = microseconds(us);
  return opts;
}

// ---- deadlines ------------------------------------------------------------

TEST(ServeDeadline, ExpiryResolvesTypedWithoutPayingTheForward) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  serve::Submitted sub = sched.submit(engine, one(0), with_deadline(50));
  ASSERT_TRUE(sub.admitted());
  clock.advance_us(49);
  EXPECT_EQ(sched.pump(), 0u);  // one microsecond early: still live
  clock.advance_us(1);
  EXPECT_EQ(sched.pump(), 0u);  // expired: reaped, no batch executed
  EXPECT_THROW((void)sub.result.get(), serve::DeadlineExceededError);

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.batches, 0u);  // no forward pass was paid
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.in_flight(), 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  // Expired requests are excluded from the latency accounting.
  EXPECT_EQ(st.latency_us_sum, 0u);
}

TEST(ServeDeadline, MetDeadlineCompletesNormally) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 8, /*linger_us=*/100));

  serve::Submitted sub = sched.submit(engine, one(1), with_deadline(500));
  clock.advance_us(100);  // linger cut fires well before the deadline
  EXPECT_EQ(sched.pump(), 1u);
  EXPECT_EQ(sub.result.get()[0], engine.predict(test_dataset()[1]));
  EXPECT_EQ(sched.stats().expired, 0u);
  EXPECT_EQ(sched.stats().completed, 1u);
}

TEST(ServeDeadline, NegativeDeadlineShedAtAdmission) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  const serve::Submitted sub =
      sched.submit(engine, one(0), with_deadline(-1));
  EXPECT_FALSE(sub.admitted());
  EXPECT_EQ(sub.error, serve::ServeError::kDeadlineExceeded);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.admitted, 0u);
}

TEST(ServeDeadline, ExpiredRequestDoesNotPoisonBatchmates) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 8, /*linger_us=*/100));

  serve::Submitted doomed = sched.submit(engine, one(0), with_deadline(10));
  serve::Submitted fine = sched.submit(engine, one(1));
  clock.advance_us(100);  // past the deadline AND the linger cut
  EXPECT_EQ(sched.pump(), 1u);  // one batch: the survivor alone
  EXPECT_THROW((void)doomed.result.get(), serve::DeadlineExceededError);
  EXPECT_EQ(fine.result.get()[0], engine.predict(test_dataset()[1]));
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.batch_samples, 1u);  // the expired sample never executed
}

// ---- cancellation ---------------------------------------------------------

TEST(ServeCancel, CancelBeforeExecutionResolvesTyped) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  serve::Submitted sub = sched.submit(engine, one(0));
  ASSERT_TRUE(sub.admitted());
  sub.request_cancel();
  sub.request_cancel();  // idempotent
  clock.advance_us(100);
  EXPECT_EQ(sched.pump(), 0u);  // reaped before any batch formed
  EXPECT_THROW((void)sub.result.get(), serve::CancelledError);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(st.in_flight(), 0u);
}

TEST(ServeCancel, CancelAfterCompletionIsANoOp) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  serve::Submitted sub = sched.submit(engine, one(2));
  clock.advance_us(100);
  EXPECT_EQ(sched.pump(), 1u);
  sub.request_cancel();  // too late: the request already completed
  clock.advance_us(100);
  EXPECT_EQ(sched.pump(), 0u);
  EXPECT_EQ(sub.result.get()[0], engine.predict(test_dataset()[2]));
  EXPECT_EQ(sched.stats().cancelled, 0u);
  EXPECT_EQ(sched.stats().completed, 1u);
}

// ---- graceful drain -------------------------------------------------------

TEST(ServeDrain, CompletesAdmittedAndShedsNew) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 8, /*linger_us=*/100));

  serve::Submitted a = sched.submit(engine, one(0));
  serve::Submitted b = sched.submit(engine, one(1));
  // Clock never advances: linger has NOT expired — drain must execute
  // the admitted work anyway.
  sched.drain();
  EXPECT_EQ(a.result.get()[0], engine.predict(test_dataset()[0]));
  EXPECT_EQ(b.result.get()[0], engine.predict(test_dataset()[1]));

  // The scheduler stays draining: new work is shed, typed and COUNTED
  // (unlike shutdown's uncounted kShutdown refusals).
  const serve::Submitted late = sched.submit(engine, one(2));
  EXPECT_FALSE(late.admitted());
  EXPECT_EQ(late.error, serve::ServeError::kDraining);

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.in_flight(), 0u);
  EXPECT_EQ(st.submitted, st.admitted + st.shed);

  sched.drain();  // idempotent
  sched.shutdown();  // and shutdown still terminates cleanly afterwards
}

TEST(ServeDrain, ResolvesExpiredAndCancelledTyped) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  serve::Submitted expired = sched.submit(engine, one(0), with_deadline(10));
  serve::Submitted cancelled = sched.submit(engine, one(1));
  serve::Submitted live = sched.submit(engine, one(2));
  cancelled.request_cancel();
  clock.advance_us(50);  // past the deadline, short of the linger
  sched.drain();

  EXPECT_THROW((void)expired.result.get(), serve::DeadlineExceededError);
  EXPECT_THROW((void)cancelled.result.get(), serve::CancelledError);
  EXPECT_EQ(live.result.get()[0], engine.predict(test_dataset()[2]));
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.admitted,
            st.completed + st.failed + st.cancelled + st.expired);
}

TEST(ServeDrain, ThreadedDrainLosesNoFutures) {
  const serve::InferenceEngine engine(make_bundle());
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = 256;
  cfg.max_batch_samples = 4;
  cfg.max_linger = microseconds(200);
  serve::BatchScheduler sched(cfg);  // real clock + drainer thread

  // Mixed workload: tight deadlines (may expire), no deadlines, and a
  // few cancellations — outcomes are timing-dependent, but drain() must
  // resolve EVERY admitted future whatever the interleaving.
  constexpr std::size_t kRequests = 48;
  std::vector<serve::Submitted> subs;
  subs.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::int64_t deadline_us = i % 3 == 0 ? 1 : 0;
    subs.push_back(sched.submit(engine, one(i % test_dataset().size()),
                                with_deadline(deadline_us)));
    if (i % 7 == 0) subs.back().request_cancel();
  }
  sched.drain();

  std::size_t resolved = 0, admitted = 0;
  for (serve::Submitted& sub : subs) {
    if (!sub.admitted()) continue;
    ++admitted;
    ASSERT_EQ(sub.result.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
      (void)sub.result.get();
      ++resolved;
    } catch (const std::exception&) {
      ++resolved;  // typed failure is still a resolution
    }
  }
  EXPECT_EQ(resolved, admitted);

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, kRequests);
  EXPECT_EQ(st.submitted, st.admitted + st.shed);
  EXPECT_EQ(st.admitted,
            st.completed + st.failed + st.cancelled + st.expired);
  EXPECT_EQ(st.in_flight(), 0u);

  const serve::Submitted late = sched.submit(engine, one(0));
  EXPECT_EQ(late.error, serve::ServeError::kDraining);
}

// ---- hot bundle reload ----------------------------------------------------

TEST(ServeHotReload, SwapIsAtomicAndPinsInFlightRequests) {
  serve::ModelRegistry registry(1);
  registry.add("m", make_bundle(/*init_seed=*/5));
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  std::shared_ptr<const serve::InferenceEngine> old_engine =
      registry.find_shared("m");
  const std::vector<double> expect_old =
      old_engine->predict(test_dataset()[0]);

  // Admit against the OLD engine, then hot-swap before execution.
  serve::Submitted pinned = sched.submit(registry, "m", one(0));
  ASSERT_TRUE(pinned.admitted());
  old_engine.reset();  // only the in-flight request pins the old engine now
  registry.swap_bundle("m", make_bundle(/*init_seed=*/6));
  EXPECT_EQ(registry.retired_alive(), 1u);

  // A post-swap submission resolves the NEW engine...
  serve::Submitted fresh = sched.submit(registry, "m", one(0));
  clock.advance_us(100);
  // ...and both share one batch, each request on the engine it pinned.
  EXPECT_EQ(sched.pump(), 1u);

  const std::vector<double> got_old = pinned.result.get()[0];
  const std::vector<double> got_new = fresh.result.get()[0];
  EXPECT_EQ(got_old, expect_old);
  EXPECT_EQ(got_new, registry.at("m").predict(test_dataset()[0]));
  EXPECT_NE(got_old, got_new);  // different weights, different function

  // Last holder released at execution: the retired engine is gone and
  // registry drain is immediate.
  EXPECT_EQ(registry.retired_alive(), 0u);
  registry.drain();
  EXPECT_EQ(registry.size(), 1u);
}

// Swaps under a live drainer: batches mix "a" requests pinned to either
// weight set with "b" requests, and each answer must come from the
// engine its request resolved at admission.
TEST(ServeHotReload, SwapUnderThreadedLoadPinsEachRequest) {
  const data::Dataset& ds = test_dataset();
  const serve::InferenceEngine a5(make_bundle(5)), a7(make_bundle(7));
  const serve::InferenceEngine b6(make_bundle(6));
  std::vector<std::vector<double>> expect_a5, expect_a7, expect_b;
  for (const data::Sample& s : ds.samples()) {
    expect_a5.push_back(a5.predict(s));
    expect_a7.push_back(a7.predict(s));
    expect_b.push_back(b6.predict(s));
  }
  ASSERT_NE(expect_a5, expect_a7);  // the two variants are distinguishable

  serve::ModelRegistry registry(2);
  registry.add("a", make_bundle(5));
  registry.add("b", make_bundle(6));
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = 10'000;  // the soak must not shed
  cfg.max_batch_samples = 8;
  cfg.max_linger = microseconds(200);
  serve::BatchScheduler sched(cfg, registry.pool());

  constexpr std::size_t kWriters = 4, kPerWriter = 30;
  std::atomic<std::size_t> mismatches{0}, answered{0}, writers_left{kWriters};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        const bool to_a = (w + i) % 2 == 0;
        const std::size_t si = (w * 3 + i) % ds.size();
        serve::Submitted sub = sched.submit(registry, to_a ? "a" : "b",
                                            one(si));
        if (!sub.admitted()) {  // no ASSERT here: the swap loop awaits us
          ++mismatches;
          continue;
        }
        const std::vector<double> got = sub.result.get().at(0);
        ++answered;
        const bool ok = to_a ? got == expect_a5[si] || got == expect_a7[si]
                             : got == expect_b[si];
        if (!ok) ++mismatches;
      }
      --writers_left;
    });
  std::size_t swaps = 0;
  while (writers_left.load() > 0 || swaps < 2) {
    registry.swap_bundle("a", make_bundle(swaps % 2 == 0 ? 7 : 5));
    ++swaps;
    std::this_thread::sleep_for(microseconds(500));
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(answered.load(), kWriters * kPerWriter);
  EXPECT_EQ(mismatches.load(), 0u);
  sched.drain();
  registry.drain();
  EXPECT_EQ(registry.retired_alive(), 0u);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.completed, kWriters * kPerWriter);
  EXPECT_EQ(st.admitted,
            st.completed + st.failed + st.cancelled + st.expired);
  EXPECT_EQ(st.in_flight(), 0u);
}

TEST(ServeHotReload, SwapUnknownNameThrowsAndChangesNothing) {
  serve::ModelRegistry registry(1);
  registry.add("m", make_bundle());
  EXPECT_THROW(registry.swap_bundle("ghost", make_bundle()),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"m"});
  EXPECT_EQ(registry.retired_alive(), 0u);
}

TEST(ServeHotReload, RepeatedSwapsStayBounded) {
  serve::ModelRegistry registry(1);
  registry.add("m", make_bundle(1));
  for (std::uint64_t seed = 2; seed <= 5; ++seed)
    registry.swap_bundle("m", make_bundle(seed));
  // No in-flight holders: every retired engine is already dead.
  EXPECT_EQ(registry.retired_alive(), 0u);
  registry.drain();
  // The surviving engine is the last swap's.
  const serve::InferenceEngine fresh(make_bundle(5));
  EXPECT_EQ(registry.at("m").predict(test_dataset()[0]),
            fresh.predict(test_dataset()[0]));
}

}  // namespace

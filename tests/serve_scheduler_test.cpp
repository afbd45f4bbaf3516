// Deterministic rig for the micro-batching scheduler (DESIGN.md §B2).
//
// Every batching decision — linger expiry, full-batch cut, request
// atomicity, overload shedding, shutdown — is asserted *exactly*, with a
// scripted clock and manual drain: no sleeps, no real time, no flaky
// timing.  The threaded tests (the many-writer soaks) assert only
// schedule-independent facts: every request answered exactly once, every
// answer bitwise-identical to serial predict(), counters conserved.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "serve/inference.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

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

/// The rig's time source: starts at the steady-clock epoch, moves only
/// when the test says so.
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

TEST(ServeScheduler, LingerExpiryIsExact) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 8, 100));

  serve::Submitted sub = sched.submit(engine, one(0));
  ASSERT_TRUE(sub.admitted());
  EXPECT_EQ(sched.pump(), 0u);  // no linger elapsed, batch not full
  clock.advance_us(99);
  EXPECT_EQ(sched.pump(), 0u);  // one microsecond short
  clock.advance_us(1);
  EXPECT_EQ(sched.pump(), 1u);  // linger boundary is inclusive

  const serve::PredictionSet got = sub.result.get();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], engine.predict(test_dataset()[0]));
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.queue_depth, 0u);
}

TEST(ServeScheduler, FullBatchCutsWithoutLinger) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, /*max_batch=*/3, 100));

  std::vector<serve::Submitted> subs;
  for (std::size_t i = 0; i < 3; ++i) subs.push_back(sched.submit(engine, one(i)));
  // Clock never moved: the cut is the sample-count threshold, not time.
  EXPECT_EQ(sched.pump(), 1u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(subs[i].result.get()[0], engine.predict(test_dataset()[i]));
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batch_samples, 3u);
  EXPECT_EQ(st.peak_batch_samples, 3u);
}

TEST(ServeScheduler, PartialBatchWaitsForLingerOrFill) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 3, 100));

  serve::Submitted a = sched.submit(engine, one(0));
  serve::Submitted b = sched.submit(engine, one(1));
  EXPECT_EQ(sched.pump(), 0u);  // 2 of 3 samples, linger running
  serve::Submitted c = sched.submit(engine, one(2));
  EXPECT_EQ(sched.pump(), 1u);  // third arrival fills the batch
  for (serve::Submitted* s : {&a, &b, &c})
    EXPECT_FALSE(s->result.get().empty());
}

TEST(ServeScheduler, RequestsAreNeverSplit) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, /*max_batch=*/3, 100));

  // Two 2-sample requests: 2 + 2 > 3, and requests are atomic, so the
  // scheduler must form two 2-sample batches, never a 3 + 1 split.
  serve::Submitted a =
      sched.submit(engine, std::span(&test_dataset()[0], 2));
  serve::Submitted b =
      sched.submit(engine, std::span(&test_dataset()[2], 2));
  clock.advance_us(100);
  EXPECT_EQ(sched.pump(), 2u);
  EXPECT_EQ(a.result.get().size(), 2u);
  EXPECT_EQ(b.result.get().size(), 2u);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.peak_batch_samples, 2u);
}

TEST(ServeScheduler, OversizedRequestFormsItsOwnBatch) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, /*max_batch=*/2, 100));

  serve::Submitted big =
      sched.submit(engine, std::span(&test_dataset()[0], 4));
  EXPECT_EQ(sched.pump(), 1u);  // 4 >= 2: full cut fires immediately
  EXPECT_EQ(big.result.get().size(), 4u);
  EXPECT_EQ(sched.stats().peak_batch_samples, 4u);
}

TEST(ServeScheduler, MultiEngineRequestsShareFifoBatches) {
  const serve::InferenceEngine a(make_bundle(5));
  const serve::InferenceEngine b(make_bundle(6));  // different weights
  // Batches are cut by sample count alone, in admission order: {a,a,b,a}
  // is one batch under a bound of 8, and {a,a} then {b,a} under 2.
  for (const auto& [max_batch, batches] :
       {std::pair<std::size_t, std::size_t>{8, 1}, {2, 2}}) {
    ScriptedClock clock;
    serve::BatchScheduler sched(manual_cfg(clock, 64, max_batch, 100));

    serve::Submitted s0 = sched.submit(a, one(0));
    serve::Submitted s1 = sched.submit(a, one(1));
    serve::Submitted s2 = sched.submit(b, one(1));
    serve::Submitted s3 = sched.submit(a, one(2));
    clock.advance_us(100);
    EXPECT_EQ(sched.pump(), batches) << "max_batch=" << max_batch;
    const serve::ServeStats st = sched.stats();
    EXPECT_EQ(st.batches, batches) << "max_batch=" << max_batch;
    EXPECT_EQ(st.batch_samples, 4u);
    EXPECT_EQ(st.peak_batch_samples, std::min<std::size_t>(max_batch, 4));

    // Each sample still runs on its own request's engine.
    EXPECT_EQ(s0.result.get()[0], a.predict(test_dataset()[0]));
    EXPECT_EQ(s1.result.get()[0], a.predict(test_dataset()[1]));
    EXPECT_EQ(s2.result.get()[0], b.predict(test_dataset()[1]));
    EXPECT_EQ(s3.result.get()[0], a.predict(test_dataset()[2]));
  }
  // The two engines disagree on the shared sample (different weights),
  // so the routing assertions above are not vacuous.
  EXPECT_NE(a.predict(test_dataset()[1]), b.predict(test_dataset()[1]));
}

TEST(ServeScheduler, OverloadShedsWithTypedErrorInsteadOfBlocking) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, /*depth=*/2, 8, 100));

  serve::Submitted a = sched.submit(engine, one(0));
  serve::Submitted b = sched.submit(engine, one(1));
  serve::Submitted c = sched.submit(engine, one(2));
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(c.error, serve::ServeError::kOverloaded);
  EXPECT_FALSE(c.result.valid());  // a shed request never owned a future

  serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.queue_depth, 2u);
  EXPECT_EQ(st.peak_queue_depth, 2u);

  // Draining reopens admission.
  EXPECT_EQ(sched.flush(), 1u);
  serve::Submitted d = sched.submit(engine, one(2));
  EXPECT_TRUE(d.admitted());
  sched.flush();
  st = sched.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.admitted + st.shed, st.submitted);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.in_flight(), 0u);
}

TEST(ServeScheduler, EmptyRequestCompletesImmediately) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  serve::Submitted sub = sched.submit(engine, {});
  ASSERT_TRUE(sub.admitted());
  ASSERT_EQ(sub.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(sub.result.get().empty());
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.batches, 0u);  // nothing was ever queued
}

TEST(ServeScheduler, ShutdownFailsPendingWithTypedError) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock));

  serve::Submitted pending = sched.submit(engine, one(0));
  sched.shutdown();
  EXPECT_THROW(pending.result.get(), serve::ShutdownError);

  serve::Submitted after = sched.submit(engine, one(1));
  EXPECT_EQ(after.error, serve::ServeError::kShutdown);

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.submitted, 1u);  // post-shutdown submissions not counted
  EXPECT_EQ(st.admitted,
            st.completed + st.failed + st.cancelled + st.in_flight());
}

TEST(ServeScheduler, LatencyCountersComeFromTheScriptedClock) {
  const serve::InferenceEngine engine(make_bundle());
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 8, 100));

  serve::Submitted a = sched.submit(engine, one(0));
  clock.advance_us(250);
  EXPECT_EQ(sched.pump(), 1u);
  serve::Submitted b = sched.submit(engine, one(1));
  clock.advance_us(100);
  EXPECT_EQ(sched.pump(), 1u);
  a.result.get();
  b.result.get();

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.latency_us_max, 250u);
  EXPECT_EQ(st.latency_us_sum, 350u);
  EXPECT_DOUBLE_EQ(st.mean_latency_us(), 175.0);
}

TEST(ServeScheduler, FlushExecutesEverythingRegardlessOfLinger) {
  const serve::InferenceEngine a(make_bundle(5));
  const serve::InferenceEngine b(make_bundle(6));
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock, 64, 8, 1'000'000));

  serve::Submitted s0 = sched.submit(a, one(0));
  serve::Submitted s1 = sched.submit(b, one(1));
  EXPECT_EQ(sched.pump(), 0u);  // a full second of linger left
  EXPECT_EQ(sched.flush(), 1u);  // one batch holds both engines
  EXPECT_FALSE(s0.result.get().empty());
  EXPECT_FALSE(s1.result.get().empty());
}

// The determinism contract: any grouping of requests into micro-batches
// yields outputs bitwise-identical to serial predict().
TEST(ServeScheduler, OutputsBitwiseIdenticalToSerialPredictForAnyBatchSize) {
  const serve::InferenceEngine engine(make_bundle());
  const data::Dataset& ds = test_dataset();
  std::vector<std::vector<double>> expected;
  for (const data::Sample& s : ds.samples()) expected.push_back(engine.predict(s));

  for (const std::size_t max_batch : {1u, 2u, 4u, 8u}) {
    ScriptedClock clock;
    serve::BatchScheduler sched(manual_cfg(clock, 64, max_batch, 100));
    std::vector<serve::Submitted> subs;
    for (std::size_t i = 0; i < ds.size(); ++i)
      subs.push_back(sched.submit(engine, one(i)));
    clock.advance_us(100);
    sched.pump();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const serve::PredictionSet got = subs[i].result.get();
      ASSERT_EQ(got.size(), 1u) << "max_batch=" << max_batch;
      EXPECT_EQ(got[0], expected[i]) << "max_batch=" << max_batch;
    }
  }
}

TEST(ServeScheduler, ConfigIsValidated) {
  ScriptedClock clock;
  serve::SchedulerConfig cfg = manual_cfg(clock);
  cfg.max_queue_depth = 0;
  EXPECT_THROW(serve::BatchScheduler s(cfg), std::invalid_argument);
  cfg = manual_cfg(clock);
  cfg.max_batch_samples = 0;
  EXPECT_THROW(serve::BatchScheduler s(cfg), std::invalid_argument);
  cfg = manual_cfg(clock);
  cfg.max_linger = microseconds(-1);
  EXPECT_THROW(serve::BatchScheduler s(cfg), std::invalid_argument);
  cfg = manual_cfg(clock);
  cfg.manual_drain = false;  // scripted clock + drainer thread: rejected
  EXPECT_THROW(serve::BatchScheduler s(cfg), std::invalid_argument);
}

// Threaded-mode soak: many writers, real clock, real drainer.  Asserts
// only schedule-independent facts — exactly-once completion, bitwise
// equality with the serial path, counter conservation — so it cannot
// flake on timing.
TEST(ServeScheduler, ManyWriterSoakAnswersEveryRequestExactlyOnce) {
  const serve::InferenceEngine engine(make_bundle());
  const data::Dataset& ds = test_dataset();
  std::vector<std::vector<double>> expected;
  for (const data::Sample& s : ds.samples()) expected.push_back(engine.predict(s));

  util::ThreadPool pool(2);
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = 10'000;  // soak must not shed
  cfg.max_batch_samples = 8;
  cfg.max_linger = microseconds(50);
  serve::BatchScheduler sched(cfg, &pool);

  constexpr std::size_t kWriters = 8, kPerWriter = 25;
  std::atomic<std::size_t> mismatches{0}, answered{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        const std::size_t si = (w * 7 + i) % ds.size();
        serve::Submitted sub = sched.submit(engine, one(si));
        ASSERT_TRUE(sub.admitted());
        const serve::PredictionSet got = sub.result.get();
        ++answered;
        if (got.size() != 1 || got[0] != expected[si]) ++mismatches;
      }
    });
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(answered.load(), kWriters * kPerWriter);
  EXPECT_EQ(mismatches.load(), 0u);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, kWriters * kPerWriter);
  EXPECT_EQ(st.admitted, st.submitted);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.completed, st.admitted);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.in_flight(), 0u);
  EXPECT_EQ(st.batch_samples, st.completed);  // single-sample requests
}

// The soak again with two engines of different weights on a 2-lane
// pool: batches now mix engines, and every answer must still come from
// the writer's own engine.
TEST(ServeScheduler, TwoEngineSoakAnswersEveryRequestExactlyOnce) {
  const serve::InferenceEngine a(make_bundle(5));
  const serve::InferenceEngine b(make_bundle(6));
  const serve::InferenceEngine* engines[2] = {&a, &b};
  const data::Dataset& ds = test_dataset();
  std::vector<std::vector<double>> expected[2];
  for (std::size_t e = 0; e < 2; ++e)
    for (const data::Sample& s : ds.samples())
      expected[e].push_back(engines[e]->predict(s));
  ASSERT_NE(expected[0], expected[1]);  // routing is observable

  util::ThreadPool pool(2);
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = 10'000;  // soak must not shed
  cfg.max_batch_samples = 8;
  // Long enough that writers blocked on earlier answers find company.
  cfg.max_linger = microseconds(1000);
  serve::BatchScheduler sched(cfg, &pool);

  constexpr std::size_t kWriters = 8, kPerWriter = 25;
  std::atomic<std::size_t> mismatches{0}, answered{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        const std::size_t e = (w + i) % 2;  // alternate engines
        const std::size_t si = (w * 7 + i) % ds.size();
        serve::Submitted sub = sched.submit(*engines[e], one(si));
        ASSERT_TRUE(sub.admitted());
        const serve::PredictionSet got = sub.result.get();
        ++answered;
        if (got.size() != 1 || got[0] != expected[e][si]) ++mismatches;
      }
    });
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(answered.load(), kWriters * kPerWriter);
  EXPECT_EQ(mismatches.load(), 0u);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, kWriters * kPerWriter);
  EXPECT_EQ(st.admitted, st.submitted);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.completed, st.admitted);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.in_flight(), 0u);
  EXPECT_EQ(st.batch_samples, st.completed);  // single-sample requests
  EXPECT_GT(st.mean_batch_samples(), 1.0);
}

// A batch of one request's one sample splits its forward over the
// registry's idle lane (one pool job, the split forward's) and resolves
// to the serial predict() bit for bit; the counters are those of any
// one-request batch.
TEST(ServeScheduler, LoneRequestSplitsItsForwardOverThePool) {
  serve::ModelRegistry registry(2);
  registry.add("ext", make_bundle());
  const serve::InferenceEngine& engine = registry.at("ext");
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock), registry.pool());
  util::ThreadPool& pool = *registry.pool();

  const std::uint64_t jobs = pool.jobs();
  serve::Submitted sub = sched.submit(registry, "ext", one(2));
  ASSERT_TRUE(sub.admitted());
  EXPECT_EQ(sched.flush(), 1u);
  EXPECT_EQ(pool.jobs(), jobs + 1);
  EXPECT_EQ(sub.result.get(),
            (serve::PredictionSet{engine.predict(test_dataset()[2])}));

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batch_samples, 1u);
  EXPECT_EQ(st.peak_batch_samples, 1u);
  EXPECT_EQ(st.in_flight(), 0u);
}

// Three one-sample requests form one batch that fans its items out over
// the pool, as before: one pool job, each item a serial forward.
TEST(ServeScheduler, MultiRequestBatchStillFansOutPerItem) {
  serve::ModelRegistry registry(2);
  registry.add("ext", make_bundle());
  const serve::InferenceEngine& engine = registry.at("ext");
  ScriptedClock clock;
  serve::BatchScheduler sched(manual_cfg(clock), registry.pool());
  util::ThreadPool& pool = *registry.pool();

  const std::uint64_t jobs = pool.jobs();
  std::vector<serve::Submitted> subs;
  for (std::size_t i = 0; i < 3; ++i) {
    subs.push_back(sched.submit(registry, "ext", one(i)));
    ASSERT_TRUE(subs.back().admitted());
  }
  EXPECT_EQ(sched.flush(), 1u);
  EXPECT_EQ(pool.jobs(), jobs + 1);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(subs[i].result.get(),
              (serve::PredictionSet{engine.predict(test_dataset()[i])}));

  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batch_samples, 3u);
  EXPECT_EQ(st.peak_batch_samples, 3u);
  EXPECT_EQ(st.in_flight(), 0u);
}

}  // namespace

// serve_geant2: single-sample what-if queries over a pool of distinct
// GEANT2 scenarios, sent to two extended-RouteNet bundles behind one
// BatchScheduler on a 2-lane registry pool.
//
// A run is a few cycles of two phases on one scheduler.  The open loop
// sends Poisson arrivals at the fixed rate in perfbench/workloads.json,
// paced by one thread, completions observed by one collector thread.
// Each request is timed from its *scheduled* send time, so a stall that
// delays later sends is charged to them, and the pacer's own lateness is
// reported separately.  The scheduler's drainer executes batches one at
// a time and resolves their futures in admission order, so the collector
// waiting on futures in that order sees each completion when it happens.
//
// The closed loop keeps a fixed number of requests outstanding, so the
// queue never empties; its completions per second are the capacity.
//
// Every response is compared bitwise with a serial
// InferenceEngine::predict of the same (bundle, sample) made in set-up.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <memory>
#include <span>
#include <thread>

#include "core/model.hpp"
#include "data/generator.hpp"
#include "forward_replica.hpp"
#include "nn/autograd.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rnx;

namespace {

constexpr std::size_t kLanes = 2;
constexpr std::size_t kScenarios = 48;
constexpr std::size_t kSimPackets = 20000;
// The ROADMAP baseline extended RouteNet: T=4, H=12, readout 24.
constexpr std::size_t kStateDim = 12;
constexpr std::size_t kReadoutHidden = 24;
constexpr std::size_t kIterations = 4;
constexpr std::size_t kMaxQueueDepth = 256;
constexpr std::size_t kMaxBatchSamples = 16;
constexpr std::chrono::microseconds kMaxLinger{100};
/// The pacer wakes this early and spins to the send time, so a late
/// timer wake-up does not show up as generator lag.
constexpr std::int64_t kPacerSpinNs = 2'000'000;
/// A run is kCycles cycles; the open loop takes this share of each.
constexpr std::size_t kCycles = 5;
constexpr double kOpenLoopShare = 0.8;
constexpr std::size_t kOutstanding = 16;  ///< closed-loop requests in flight
constexpr double kClosedLoopWindowS = 0.5;
/// Untimed open-loop requests before the first cycle (about a second).
constexpr std::size_t kWarmupRequests = 25;
/// Set-ups per run (SetupTimer); one set-up takes about a second.
constexpr std::size_t kSetupReps = 5;
/// p95, not p99: a 30 s run at the fixed rate holds 600 open-loop
/// requests, 30 of them beyond p95 but only 6 beyond p99.
constexpr double kTailQ = 95;

struct ServeSetup {
  std::vector<data::Sample> pool;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<std::string> names;
  /// Serial predictions, [bundle][sample].
  std::vector<std::vector<std::vector<double>>> reference;
  /// Mean time of one serial predict while computing `reference`.
  double serial_predict_ms = 0;
};

ServeSetup make_setup(const RunArgs& args) {
  ServeSetup s;
  data::GeneratorConfig gen;
  gen.target_packets = kSimPackets;
  s.pool = data::generate_dataset(topo::geant2(), kScenarios, gen,
                                  derived_seed(args, "serve.pool"), kLanes);
  const data::Scaler scaler = data::Scaler::fit(s.pool, 5);
  s.registry = std::make_unique<serve::ModelRegistry>(kLanes);
  const std::uint64_t init = derived_seed(args, "serve.init");
  for (std::uint64_t b = 0; b < 2; ++b) {
    core::ModelConfig mc;
    mc.state_dim = kStateDim;
    mc.readout_hidden = kReadoutHidden;
    mc.iterations = kIterations;
    mc.init_seed = init + 4 * b;  // the model draws init_seed .. init_seed+3
    serve::ModelBundle bundle;
    bundle.model = core::make_model(core::ModelKind::kExtended, mc);
    bundle.scaler = scaler;
    bundle.target = core::PredictionTarget::kDelay;
    bundle.min_delivered = 5;
    s.names.push_back(b == 0 ? "ext_a" : "ext_b");
    s.registry->add(s.names.back(), std::move(bundle));
  }
  const std::int64_t t0 = now_ns();
  for (const std::string& name : s.names) {
    const serve::InferenceEngine& engine = s.registry->at(name);
    auto& ref = s.reference.emplace_back();
    for (const data::Sample& sample : s.pool)
      ref.push_back(engine.predict(sample));
  }
  s.serial_predict_ms = static_cast<double>(now_ns() - t0) * 1e-6 /
                        static_cast<double>(2 * s.pool.size());
  return s;
}

struct Request {
  std::size_t bundle = 0;
  std::size_t sample = 0;
};

/// The seeded query stream: which bundle and which pool scenario.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t pool)
      : rng_(seed), pool_(pool) {}
  Request next() {
    Request r;
    r.bundle = static_cast<std::size_t>(rng_.uniform_int(0, 1));
    r.sample = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool_) - 1));
    return r;
  }

 private:
  util::RngStream rng_;
  std::size_t pool_;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

enum class Outcome { kPending, kOk, kShed, kFailed, kWrong };

/// Resolve one admitted request's future and check it against the
/// reference.
Outcome resolve(const ServeSetup& s, const Request& req,
                std::future<serve::PredictionSet>& fut) {
  try {
    const serve::PredictionSet preds = fut.get();
    return preds.size() == 1 &&
                   bitwise_equal(preds[0], s.reference[req.bundle][req.sample])
               ? Outcome::kOk
               : Outcome::kWrong;
  } catch (const std::exception&) {
    return Outcome::kFailed;
  }
}

void account(Outcome o, RunResult& out) {
  out.ops.attempt();
  if (o == Outcome::kShed) out.ops.fail("serve: shed");
  if (o == Outcome::kFailed) out.ops.fail("serve: failed");
  if (o == Outcome::kWrong) out.ops.fail("serve: response differs from serial predict");
}

serve::SchedulerConfig scheduler_config() {
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = kMaxQueueDepth;
  cfg.max_batch_samples = kMaxBatchSamples;
  cfg.max_linger = kMaxLinger;
  return cfg;
}

struct OpenSlot {
  Request req;
  std::int64_t scheduled = 0;
  std::int64_t send_start = 0;
  std::int64_t send_end = 0;
  std::int64_t ready = 0;
  serve::Submitted sub;
  Outcome outcome = Outcome::kPending;
};

struct OpenLoop {
  std::vector<OpenSlot> slots;
  serve::ServeStats stats;  ///< the scheduler's counters when the phase ended
  double wall_s = 0;
};

/// `n` requests with exponential gaps at the workload's fixed rate; each
/// `cycle` of a run draws its own gaps.
OpenLoop run_open_loop(const ServeSetup& s, const RunArgs& args,
                       serve::BatchScheduler& sched, std::size_t n,
                       std::size_t cycle, RequestStream& stream,
                       RunResult& out) {
  const double rate = args.open_loop_rps;
  util::RngStream arrivals =
      util::RngStream(args.seed).derive("serve.arrivals", cycle);
  OpenLoop run;
  run.slots.resize(n);
  double t = 0;
  for (OpenSlot& slot : run.slots) {
    t += arrivals.exponential(1.0 / rate);
    slot.req = stream.next();
    slot.scheduled = static_cast<std::int64_t>(t * 1e9);
  }

  util::BoundedQueue<std::size_t> feed(n + 1);
  std::thread collector;
  // Closes the feed and joins the collector on every exit path,
  // exceptions included, before the slots it reads go away.
  struct CloseAndJoin {
    util::BoundedQueue<std::size_t>& feed;
    std::thread& thread;
    ~CloseAndJoin() {
      feed.close();
      if (thread.joinable()) thread.join();
    }
  } const joiner{feed, collector};
  collector = std::thread([&] {
    while (const std::optional<std::size_t> i = feed.pop()) {
      OpenSlot& slot = run.slots[*i];
      if (!slot.sub.admitted()) {
        slot.outcome = Outcome::kShed;
        continue;
      }
      slot.sub.result.wait();
      slot.ready = now_ns();
      slot.outcome = resolve(s, slot.req, slot.sub.result);
    }
  });

  // The default 50 us timer slack would show up as generator lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::int64_t t0 = now_ns() + 5'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    OpenSlot& slot = run.slots[i];
    slot.scheduled += t0;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::duration_cast<Clock::duration>(
            std::chrono::nanoseconds(slot.scheduled - kPacerSpinNs))));
    while (now_ns() < slot.scheduled) {
    }
    slot.send_start = now_ns();
    slot.sub = sched.submit(*s.registry, s.names[slot.req.bundle],
                            std::span(&s.pool[slot.req.sample], 1));
    slot.send_end = now_ns();
    feed.push(i);
    if (i == n / 2) check_threads(out);
  }
  feed.close();
  collector.join();
  run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.stats = sched.stats();
  for (const OpenSlot& slot : run.slots) account(slot.outcome, out);
  return run;
}

struct ClosedLoop {
  std::uint64_t completed = 0;
  /// Completions per second of each whole window.  Capacity is their
  /// median: a burst of interference on a shared host spoils some
  /// windows, not the figure.
  std::vector<double> window_rps;
  serve::ServeStats stats;  ///< the scheduler's counters when the phase ended
};

ClosedLoop run_closed_loop(const ServeSetup& s, serve::BatchScheduler& sched,
                           double seconds,
                           RequestStream& stream, RunResult& out) {
  std::deque<std::pair<Request, serve::Submitted>> inflight;
  const auto submit_one = [&] {
    const Request req = stream.next();
    serve::Submitted sub = sched.submit(*s.registry, s.names[req.bundle],
                                        std::span(&s.pool[req.sample], 1));
    if (sub.admitted())
      inflight.emplace_back(req, std::move(sub));
    else
      account(Outcome::kShed, out);
  };

  ClosedLoop run;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  // Per window: completions and the first and last completion times.
  struct Window {
    std::size_t n = 0;
    std::int64_t first = 0, last = 0;
  };
  std::vector<Window> windows(static_cast<std::size_t>(seconds / kClosedLoopWindowS));
  for (std::size_t i = 0; i < kOutstanding; ++i) submit_one();
  for (std::size_t done = 0; !inflight.empty(); ++done) {
    auto& [req, sub] = inflight.front();
    const Outcome o = resolve(s, req, sub.result);
    account(o, out);
    inflight.pop_front();
    const std::int64_t t = now_ns();
    const auto w = static_cast<std::size_t>(
        static_cast<double>(t - start) * 1e-9 / kClosedLoopWindowS);
    if (o == Outcome::kOk && w < windows.size()) {
      ++run.completed;
      Window& win = windows[w];
      if (win.n++ == 0) win.first = t;
      win.last = t;
    }
    if (t < deadline) submit_one();
    if (done == 64) check_threads(out);
  }
  for (const Window& win : windows)
    if (win.n > 1)
      run.window_rps.push_back(
          static_cast<double>(win.n - 1) /
          (static_cast<double>(win.last - win.first) * 1e-9));
  run.stats = sched.stats();
  return run;
}

std::vector<double> open_loop_latency_ms(const OpenLoop& run) {
  std::vector<double> ms;
  for (const OpenSlot& slot : run.slots)
    if (slot.outcome == Outcome::kOk)
      ms.push_back(static_cast<double>(slot.ready - slot.scheduled) * 1e-6);
  return ms;
}

double mean(const std::vector<double>& xs) {
  double sum = 0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// A 256^3 matmul timed in this run: the dense-kernel reference the GRU
/// step's achieved rate is compared against (best of 5 calls).
double matmul_peak_gflops() {
  constexpr std::size_t kN = 256;
  util::RngStream rng(11);
  nn::Tensor a(kN, kN), b(kN, kN);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.flat()) v = rng.uniform(-1.0, 1.0);
  double best_ns = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    const nn::Tensor c = nn::matmul(a, b);
    best_ns = std::min(best_ns, static_cast<double>(now_ns() - t0));
    if (!std::isfinite(c(0, 0))) throw std::runtime_error("matmul: non-finite");
  }
  return 2.0 * kN * kN * kN / best_ns;
}

bool same_tensor(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(double)) == 0;
}

/// The core/nn split: untraced Model::forward against the traced replica,
/// alternating sample by sample over the pool for `seconds`.
void trace_forward(const ServeSetup& s, double seconds, RunResult& out) {
  const serve::InferenceEngine& engine = s.registry->at(s.names[0]);
  const core::Model& model = engine.model();
  const data::Scaler& scaler = engine.scaler();
  // A clone has no plan cache attached, so it builds its plan on every
  // forward exactly as the replica does.
  const std::unique_ptr<core::Model> plain = model.clone();
  const ForwardReplica replica(model);
  const double peak = matmul_peak_gflops();

  ForwardWork work;
  std::vector<double> forward_us;
  std::size_t traced = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const nn::NoGradGuard no_grad;
  for (std::size_t i = 0; traced < s.pool.size() || now_ns() < deadline; ++i) {
    const data::Sample& sample = s.pool[i % s.pool.size()];
    const std::int64_t t0 = now_ns();
    const nn::Var untraced = plain->forward(sample, scaler);
    forward_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    // Request ids past the open loop's, so the two kinds never share one.
    const nn::Var pred =
        replica.forward(sample, scaler, out.tracer, 1'000'000 + i, work);
    ++traced;
    if (i < s.pool.size()) {
      out.ops.attempt();
      if (!same_tensor(pred.value(), model.forward(sample, scaler).value()) ||
          !same_tensor(pred.value(), untraced.value())) {
        out.ops.fail("replica: forward differs from Model::forward");
        out.error("traced replica forward is not bitwise-equal to Model::forward");
      }
    }
  }

  const auto self = out.tracer.self_ns_by_name();
  const auto total = out.tracer.total_ns_by_name();
  const auto per_fwd_us = [&](double ns) {
    return ns * 1e-3 / static_cast<double>(traced);
  };
  const auto at = [](const auto& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  const std::vector<std::pair<const char*, double>> stages = {
      {"core.plan_build", at(self, "core.plan_build")},
      {"core.state_init", at(self, "core.state_init")},
      {"nn.gather", at(self, "nn.gather")},
      {"nn.gru_path_step", at(self, "nn.gru_path_step")},
      {"nn.scatter", at(self, "nn.scatter")},
      {"nn.segment_sum", at(self, "nn.segment_sum")},
      // The entity update owns its link/node GRU steps: inclusive time.
      {"core.entity_update", at(total, "core.entity_update")},
      {"core.readout", at(self, "core.readout")},
  };
  double stage_sum = 0;
  for (const auto& [name, ns] : stages) stage_sum += ns;
  for (const auto& [name, ns] : stages) {
    out.report.metric(std::string(name) + "_us", per_fwd_us(ns), "us");
    out.report.metric(std::string(name) + ".share", ns / stage_sum, "ratio");
  }
  const double fwd_us = mean(forward_us);
  out.report.metric("core.forward_us", fwd_us, "us");
  out.report.metric("trace.overhead_frac",
                    (per_fwd_us(stage_sum) - fwd_us) / fwd_us, "ratio");
  out.report.metric("core.plan_bytes",
                    work.plan_bytes / static_cast<double>(traced), "bytes");

  const double gru_ns =
      at(total, "nn.gru_path_step") + at(total, "nn.gru_entity_step");
  const double gflops = work.gru_flops / gru_ns;
  out.report.metric("nn.gru_step.calls",
                    static_cast<double>(work.gru_calls) / static_cast<double>(traced),
                    "count");
  out.report.metric("nn.gru_step.gflops", gflops, "GFLOP/s");
  out.report.metric("nn.gru_step.peak_frac", gflops / peak, "ratio");
  out.report.metric("nn.matmul_peak_gflops", peak, "GFLOP/s");
  const double fwd = static_cast<double>(traced);
  out.report.metric("nn.gather.bytes", work.gather_bytes / fwd, "bytes");
  out.report.metric("nn.scatter.bytes", work.scatter_bytes / fwd, "bytes");
  out.report.metric("nn.segment_sum.bytes", work.segsum_bytes / fwd, "bytes");
  out.report.note("nn_flops_bytes", "computed from tensor shapes, per forward");
  out.report.note("forwards_traced", fwd);
}

}  // namespace

void run_serve(const RunArgs& args, RunResult& out) {
  // The run alternates open- and closed-loop phases, so both metrics
  // sample the host across the whole run rather than one stretch of it.
  // The open-loop request count is fixed (rate x open share of the run),
  // so every seed's tail percentile rests on the same number of samples.
  const double cycle_s = args.seconds / static_cast<double>(kCycles);
  const double open_s = cycle_s * kOpenLoopShare;
  const auto requests = static_cast<std::size_t>(open_s * args.open_loop_rps);
  if (samples_beyond(requests * kCycles, kTailQ) < 10 ||
      cycle_s - open_s < 2 * kClosedLoopWindowS)
    throw TooShort("serve_geant2 needs ten open-loop requests beyond its "
                   "tail percentile and two closed-loop windows per cycle");

  // Set-up is repeated between cycles; those copies are only timed.
  SetupTimer setup(args.seconds, kSetupReps);
  const ServeSetup s = setup.time([&] { return make_setup(args); });
  RequestStream stream(derived_seed(args, "serve.requests"), s.pool.size());
  serve::BatchScheduler sched(scheduler_config(), s.registry->pool());
  std::vector<double> ms, window_rps;
  double open_wall_s = 0, batch_samples = 0, batches = 0;
  std::uint64_t closed_completed = 0;
  (void)run_open_loop(s, args, sched, kWarmupRequests, kCycles, stream, out);
  for (std::size_t c = 0; c < kCycles; ++c) {
    if (setup.due()) (void)setup.time([&] { return make_setup(args); });
    const OpenLoop open =
        run_open_loop(s, args, sched, requests, c, stream, out);
    const std::vector<double> cycle_ms = open_loop_latency_ms(open);
    ms.insert(ms.end(), cycle_ms.begin(), cycle_ms.end());
    open_wall_s += open.wall_s;
    const ClosedLoop closed =
        run_closed_loop(s, sched, cycle_s - open_s, stream, out);
    window_rps.insert(window_rps.end(), closed.window_rps.begin(),
                      closed.window_rps.end());
    closed_completed += closed.completed;
    batch_samples += static_cast<double>(closed.stats.batch_samples -
                                         open.stats.batch_samples);
    batches += static_cast<double>(closed.stats.batches - open.stats.batches);
  }
  setup.report(out);
  if (window_rps.empty()) {
    out.error("serve: no closed-loop window with two completions");
    return;
  }

  report_latency(ms, kTailQ, out);
  const double capacity = median(window_rps);
  out.report.metric("throughput_per_s", capacity, "1/s");
  out.report.note("serve_p50_ms", out.report.value("latency_p50_ms"));
  out.report.note("serve_p95_ms", out.report.value("latency_tail_ms"));
  out.report.note("serve_capacity_rps", capacity);
  out.report.note("open_loop_requests",
                  static_cast<double>(requests * kCycles));
  out.report.note("open_loop_rps", args.open_loop_rps);
  out.report.note("open_loop_completed_rps",
                  static_cast<double>(ms.size()) / open_wall_s);
  out.report.note("closed_loop_completed", static_cast<double>(closed_completed));
  out.report.note("closed_loop_windows", static_cast<double>(window_rps.size()));
  out.report.note("closed_loop_mean_batch_samples", batch_samples / batches);
  out.report.note("serial_predict_ms", s.serial_predict_ms);
}

void trace_serve(const RunArgs& args, double seconds, RunResult& out) {
  const ServeSetup s = make_setup(args);
  RequestStream stream(derived_seed(args, "serve.requests"), s.pool.size());
  const auto requests =
      static_cast<std::size_t>(0.4 * seconds * args.open_loop_rps);
  // The scheduler has no plan cache of its own: the registry's shared
  // cache serves both bundles, so its counters are read around the phases.
  const core::PlanCache::Stats cache_before = s.registry->plan_cache().stats();
  serve::BatchScheduler sched(scheduler_config(), s.registry->pool());
  const OpenLoop open = run_open_loop(s, args, sched, requests, 0, stream, out);
  const ClosedLoop closed =
      run_closed_loop(s, sched, 0.1 * seconds, stream, out);
  const core::PlanCache::Stats cache_after = s.registry->plan_cache().stats();

  std::vector<double> submit_us, lag_us, sojourn_us;
  for (std::size_t i = 0; i < open.slots.size(); ++i) {
    const OpenSlot& slot = open.slots[i];
    if (slot.outcome != Outcome::kOk) continue;
    const auto root = static_cast<std::int64_t>(
        out.tracer.add("serve.request", slot.scheduled, slot.ready, -1, i));
    out.tracer.add("loadgen.send_lag", slot.scheduled, slot.send_start, root, i);
    out.tracer.add("serve.submit", slot.send_start, slot.send_end, root, i);
    out.tracer.add("serve.wait", slot.send_end, slot.ready, root, i);
    submit_us.push_back(static_cast<double>(slot.send_end - slot.send_start) * 1e-3);
    lag_us.push_back(static_cast<double>(slot.send_start - slot.scheduled) * 1e-3);
    sojourn_us.push_back(static_cast<double>(slot.ready - slot.send_start) * 1e-3);
  }
  if (submit_us.empty()) {
    out.error("serve trace: no completed open-loop request");
    return;
  }
  const serve::ServeStats& st = open.stats;
  out.report.metric("serve.submit_us", median(submit_us), "us");
  out.report.metric("loadgen.lag_p99_us", nearest_rank(lag_us, 99), "us");
  out.report.metric("serve.peak_queue_depth",
                    static_cast<double>(st.peak_queue_depth), "requests");
  out.report.metric("serve.server_latency_mean_us", st.mean_latency_us(), "us");
  out.report.metric("serve.client_gap_us",
                    mean(sojourn_us) - st.mean_latency_us(), "us");
  const auto lookups =
      static_cast<double>(cache_after.lookups - cache_before.lookups);
  out.report.metric(
      "serve.plan_cache.hit_ratio",
      lookups == 0 ? 0.0
                   : static_cast<double>(cache_after.hits - cache_before.hits) /
                         lookups,
      "ratio");
  const auto batches =
      static_cast<double>(closed.stats.batches - open.stats.batches);
  out.report.metric("serve.batches", batches, "count");
  out.report.metric("serve.mean_batch_samples",
                    static_cast<double>(closed.stats.batch_samples -
                                        open.stats.batch_samples) /
                        batches,
                    "samples");
  trace_forward(s, 0.5 * seconds, out);
}

}  // namespace perfbench

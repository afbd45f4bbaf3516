// bench_serve_latency — serving-path latency/throughput vs offered load.
//
// Open-loop load generation (a pacing producer draws exponential
// inter-arrival gaps and feeds client threads through a
// util::BoundedQueue, so a slow server cannot slow the arrival process
// down — no coordinated omission) against a two-bundle ModelRegistry
// behind a threaded BatchScheduler.  Sweeps offered load as a fraction
// of the measured serial service rate and reports p50/p99 latency,
// completed throughput, shed and failed fractions and the scheduler's
// mean batch size per point; emits
// BENCH_serve_latency.json for CI tracking (RNX_BENCH_QUICK honoured).
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/model.hpp"
#include "nn/kernels.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace rnx;

serve::ModelBundle make_bundle(const data::Dataset& ds,
                               std::uint64_t init_seed) {
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.readout_hidden = 24;
  mc.iterations = 3;
  mc.init_seed = init_seed;
  serve::ModelBundle b;
  b.model = core::make_model(core::ModelKind::kExtended, mc);
  b.scaler = data::Scaler::fit(ds.samples(), 5);
  b.target = core::PredictionTarget::kDelay;
  b.min_delivered = 5;
  return b;
}

struct LoadPoint {
  double offered_rps = 0;
  double completed_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double shed_fraction = 0;    ///< refused at admission or at the door
  double failed_fraction = 0;  ///< admitted, then failed in the forward
  double mean_batch_samples = 0;
};

LoadPoint run_point(const serve::ModelRegistry& registry,
                    const std::vector<std::string>& names,
                    const data::Dataset& ds, double offered_rps,
                    std::size_t requests, std::size_t clients) {
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = 256;
  cfg.max_batch_samples = 16;
  cfg.max_linger = std::chrono::microseconds(100);
  serve::BatchScheduler sched(cfg, registry.pool());

  util::BoundedQueue<std::size_t> feed(256);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::size_t> shed(clients, 0), failed(clients, 0);

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    workers.emplace_back([&, c] {
      while (const std::optional<std::size_t> idx = feed.pop()) {
        const std::string& name = names[*idx % names.size()];
        const data::Sample& sample = ds[*idx % ds.size()];
        const auto t0 = std::chrono::steady_clock::now();
        serve::Submitted sub =
            sched.submit(registry, name, std::span(&sample, 1));
        if (!sub.admitted()) {
          ++shed[c];
          continue;
        }
        try {
          (void)sub.result.get();
        } catch (const std::exception&) {
          ++failed[c];  // failed requests leave the latency sample too
          continue;
        }
        const auto t1 = std::chrono::steady_clock::now();
        latencies[c].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });

  // Open-loop pacing: the arrival clock never waits for the server.
  util::RngStream arrivals(97);
  util::Stopwatch wall;
  std::size_t gen_dropped = 0;
  auto next_arrival = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    next_arrival += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(arrivals.exponential(1.0 / offered_rps)));
    std::this_thread::sleep_until(next_arrival);
    if (!feed.try_push(i)) ++gen_dropped;  // feed full: shed at the door
  }
  feed.close();
  for (std::thread& w : workers) w.join();
  const double wall_s = wall.seconds();

  std::vector<double> lat;
  std::size_t total_shed = gen_dropped, total_failed = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    lat.insert(lat.end(), latencies[c].begin(), latencies[c].end());
    total_shed += shed[c];
    total_failed += failed[c];
  }
  LoadPoint pt;
  pt.offered_rps = offered_rps;
  pt.completed_rps =
      wall_s > 0 ? static_cast<double>(lat.size()) / wall_s : 0.0;
  pt.p50_us = lat.empty() ? 0.0 : util::percentile(lat, 50);
  pt.p99_us = lat.empty() ? 0.0 : util::percentile(lat, 99);
  pt.shed_fraction =
      static_cast<double>(total_shed) / static_cast<double>(requests);
  pt.failed_fraction =
      static_cast<double>(total_failed) / static_cast<double>(requests);
  pt.mean_batch_samples = sched.stats().mean_batch_samples();
  return pt;
}

}  // namespace

int main() {
  benchcfg::print_banner("serve latency vs offered load");
  benchcfg::BenchResult result("serve_latency");
  std::printf("kernels: %s (%s)\n", rnx::nn::kernels::active().name,
              rnx::nn::kernels::dispatch_reason());
  result.note("isa", rnx::nn::kernels::active().name);
  result.note("dispatch_reason", rnx::nn::kernels::dispatch_reason());
  const bool quick = benchcfg::quick_mode();

  data::GeneratorConfig gen;
  gen.target_packets = quick ? 20'000 : 60'000;
  const data::Dataset ds(data::generate_dataset(
      topo::nsfnet(), quick ? 4 : 8, gen, 41));

  serve::ModelRegistry registry(/*threads=*/0);
  registry.add("delay_a", make_bundle(ds, 5));
  registry.add("delay_b", make_bundle(ds, 6));
  const std::vector<std::string> names = registry.names();

  // Serial service rate: the per-request cost with no batching at all.
  const serve::InferenceEngine& probe = registry.at("delay_a");
  util::Stopwatch probe_watch;
  constexpr std::size_t kProbe = 20;
  for (std::size_t i = 0; i < kProbe; ++i)
    (void)probe.predict(ds[i % ds.size()]);
  const double service_rps =
      static_cast<double>(kProbe) / probe_watch.seconds();
  result.add("serial_service_rps", service_rps);
  std::printf("serial service rate: %.0f req/s\n", service_rps);

  const std::size_t requests = benchcfg::scaled(quick ? 80 : 400);
  const std::size_t clients = 4;
  const std::vector<double> load_fractions =
      quick ? std::vector<double>{0.25, 0.6, 1.5}
            : std::vector<double>{0.25, 0.5, 0.9, 1.5};

  std::printf("%10s %12s %12s %10s %10s %8s %8s %6s\n", "load", "offered",
              "completed", "p50_us", "p99_us", "shed", "failed", "batch");
  for (const double f : load_fractions) {
    const LoadPoint pt =
        run_point(registry, names, ds, f * service_rps, requests, clients);
    std::printf("%9.2fx %12.1f %12.1f %10.1f %10.1f %7.1f%% %7.1f%% %6.2f\n",
                f, pt.offered_rps, pt.completed_rps, pt.p50_us, pt.p99_us,
                100.0 * pt.shed_fraction, 100.0 * pt.failed_fraction,
                pt.mean_batch_samples);
    char key[64];
    std::snprintf(key, sizeof(key), "load_%.2fx", f);
    result.add(std::string(key) + "_offered_rps", pt.offered_rps);
    result.add(std::string(key) + "_completed_rps", pt.completed_rps);
    result.add(std::string(key) + "_p50_us", pt.p50_us);
    result.add(std::string(key) + "_p99_us", pt.p99_us);
    result.add(std::string(key) + "_shed_fraction", pt.shed_fraction);
    result.add(std::string(key) + "_failed_fraction", pt.failed_fraction);
    result.add(std::string(key) + "_mean_batch_samples",
               pt.mean_batch_samples);
  }

  result.set_config("nsfnet replay, 2 bundles, clients=4, batch<=16, "
                    "linger=100us, depth=256, open-loop exponential arrivals");
  result.write();
  return 0;
}

// P1 — discrete-event simulator throughput (events/s, packets/s) across
// topology sizes and load regimes.  The DES is the data-generation
// bottleneck, so its speed bounds achievable dataset scale.  Besides the
// default FIFO + Poisson runs, one case covers the mixed-scenario
// datasets (strict priority and DRR over three classes of on-off flows)
// and one the hop-arrival path (nonzero propagation delay on every link).
#include <benchmark/benchmark.h>

#include "sim/simulator.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

void run_sim_bench(benchmark::State& state, const topo::Topology& base,
                   double util, const sim::ScenarioConfig& scenario = {}) {
  util::set_log_level(util::LogLevel::kWarn);
  topo::Topology topo = base;
  util::RngStream rng(11);
  topo::randomize_queue_sizes(topo, 0.5, rng);
  const topo::RoutingScheme rs = topo::hop_count_routing(topo);
  topo::TrafficMatrix tm =
      topo::uniform_traffic(topo.num_nodes(), 0.5, 1.0, rng);
  topo::scale_to_max_utilization(tm, topo, rs, util);
  const double total_pps = tm.total() / 8000.0;
  sim::SimConfig cfg;
  cfg.window_s = 30'000.0 / total_pps;  // ~30k packets per iteration
  cfg.warmup_s = 0.0;
  cfg.scenario = scenario;
  if (scenario.priority_classes > 1) {
    cfg.flow_class = [](topo::NodeId s, topo::NodeId d) {
      return static_cast<std::uint32_t>(s + d);  // clamped to the classes
    };
  }
  std::uint64_t events = 0, packets = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    sim::Simulator sim(topo, rs, tm, cfg);
    const sim::SimResult res = sim.run();
    events += res.total_events;
    for (const auto& p : res.paths) packets += p.generated;
    benchmark::DoNotOptimize(res.links.data());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["pkts/s"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
}

void BM_SimNsfnet(benchmark::State& state) {
  run_sim_bench(state, topo::nsfnet(),
                static_cast<double>(state.range(0)) / 100.0);
}
BENCHMARK(BM_SimNsfnet)->Arg(50)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_SimGeant2(benchmark::State& state) {
  run_sim_bench(state, topo::geant2(),
                static_cast<double>(state.range(0)) / 100.0);
}
BENCHMARK(BM_SimGeant2)->Arg(50)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_SimRandom50(benchmark::State& state) {
  util::RngStream rng(3);
  run_sim_bench(state, topo::random_connected(50, 85, rng),
                static_cast<double>(state.range(0)) / 100.0);
}
BENCHMARK(BM_SimRandom50)->Arg(70)->Unit(benchmark::kMillisecond);

// Arg: SchedulerPolicy (1 = strict priority, 2 = DRR), on-off traffic,
// three classes — the non-FIFO half of what mixed-scenario datagen runs.
void BM_SimGeant2Mixed(benchmark::State& state) {
  sim::ScenarioConfig scenario;
  scenario.policy = static_cast<sim::SchedulerPolicy>(state.range(0));
  scenario.traffic = sim::TrafficProcess::kOnOff;
  scenario.priority_classes = 3;
  run_sim_bench(state, topo::geant2(), 0.9, scenario);
}
BENCHMARK(BM_SimGeant2Mixed)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Every link carries 0.1-0.5 ms of wire latency, so each hop after the
// first is a hop-arrival event rather than the zero-delay fast path.
void BM_SimGeant2PropDelay(benchmark::State& state) {
  topo::Topology t = topo::geant2();
  for (topo::LinkId l = 0; l < t.num_links(); ++l)
    t.set_link_prop_delay(l, 1e-4 * static_cast<double>(1 + l % 5));
  run_sim_bench(state, t, 0.9);
}
BENCHMARK(BM_SimGeant2PropDelay)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

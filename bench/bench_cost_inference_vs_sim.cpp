// T-claim — "accuracy comparable to packet-level simulators with a very
// low computational cost" (paper §1).
//
// google-benchmark comparison of the per-scenario cost of (a) answering a
// delay query with one extended-RouteNet forward pass vs (b) running the
// packet-level simulation that produces the ground truth, at several
// simulation fidelities.  The GNN's cost is fixed; simulation cost grows
// with the packet budget, so the speedup factor is what the paper's
// claim is about.
#include <benchmark/benchmark.h>

#include "core/model.hpp"
#include "data/generator.hpp"
#include "sim/simulator.hpp"
#include "topo/routing.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

struct Scenario {
  topo::Topology topo = topo::geant2();
  topo::RoutingScheme routing = topo::hop_count_routing(topo);
  topo::TrafficMatrix tm{24};
  data::Sample sample;
  data::Scaler scaler;

  Scenario() : scaler(make()) {}

  data::Scaler make() {
    util::RngStream rng(7);
    topo::randomize_queue_sizes(topo, 0.5, rng);
    tm = topo::uniform_traffic(24, 0.5, 1.0, rng);
    topo::scale_to_max_utilization(tm, topo, routing, 0.8);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    util::RngStream srng(7);
    sample = data::generate_sample(topo::geant2(), gen, srng);
    return data::Scaler::fit({&sample, 1});
  }
};

Scenario& scenario() {
  static Scenario s;
  return s;
}

void BM_RouteNetExtInference(benchmark::State& state) {
  util::set_log_level(util::LogLevel::kWarn);
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.iterations = static_cast<std::size_t>(state.range(0));
  const core::Model model(core::ModelKind::kExtended, mc);
  const nn::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.forward(scenario().sample, scenario().scaler));
  }
  state.SetLabel("one full 552-path delay query, T=" +
                 std::to_string(state.range(0)));
}
BENCHMARK(BM_RouteNetExtInference)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PacketSimulation(benchmark::State& state) {
  util::set_log_level(util::LogLevel::kWarn);
  auto& sc = scenario();
  const auto packets = static_cast<double>(state.range(0));
  const double total_pps = sc.tm.total() / 8000.0;
  sim::SimConfig cfg;
  cfg.window_s = packets / total_pps;
  cfg.warmup_s = 0.1 * cfg.window_s;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim(sc.topo, sc.routing, sc.tm, cfg);
    const sim::SimResult res = sim.run();
    events += res.total_events;
    benchmark::DoNotOptimize(res.paths.data());
  }
  state.SetLabel(std::to_string(state.range(0)) + " pkts (ground truth)");
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PacketSimulation)
    ->Arg(20'000)->Arg(60'000)->Arg(200'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

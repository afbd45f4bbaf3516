// Golden regression pin for the Scheduler/TrafficModel refactor
// (DESIGN.md §S).
//
// The scenario engine extracted the output-port logic of the seed
// simulator into sim::Scheduler and the arrival sampling into
// sim::ArrivalProcess.  The default scenario (drop-tail FIFO + Poisson,
// one class) must remain *bitwise* identical to the pre-refactor
// simulator: same event count, same per-path counters, same delay
// moments to the last ulp.  The constants below were captured from the
// seed implementation (PR 2 tree, commit 2fa754f) with the exact
// configurations reproduced here; a mismatch means the refactor changed
// default behavior and every regenerated dataset silently shifted.
//
// The dataset-generator pin plays the same role one layer up: the
// generator's RNG draw sequence must not change for default configs, or
// cached/regenerated datasets stop being reproducible.
//
// The remaining pins cover what the two seed pins leave open, so an
// event-loop rewrite (DESIGN.md S1) can be checked bit for bit: every
// (policy, traffic) pair with three classes, a multi-hop run with
// propagation delay (the hop-arrival path) whose CBR flows tie on event
// time, and a mixed-topology, mixed-scenario generator stream.  Their
// constants were captured from the std::priority_queue event loop that
// preceded the 4-ary event queue.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "data/generator.hpp"
#include "data/sample_io.hpp"
#include "sim/simulator.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx;

std::uint64_t fnv1a64_bytes(std::uint64_t h, const void* data,
                            std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Order- and layout-stable digest over every per-path and per-link
// statistic (field by field, not struct dumps, so padding never leaks in).
std::uint64_t digest(const sim::SimResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& p : res.paths) {
    h = fnv1a64_bytes(h, &p.src, sizeof(p.src));
    h = fnv1a64_bytes(h, &p.dst, sizeof(p.dst));
    h = fnv1a64_bytes(h, &p.generated, sizeof(p.generated));
    h = fnv1a64_bytes(h, &p.delivered, sizeof(p.delivered));
    h = fnv1a64_bytes(h, &p.dropped, sizeof(p.dropped));
    h = fnv1a64_bytes(h, &p.mean_delay_s, sizeof(p.mean_delay_s));
    h = fnv1a64_bytes(h, &p.jitter_s2, sizeof(p.jitter_s2));
    h = fnv1a64_bytes(h, &p.min_delay_s, sizeof(p.min_delay_s));
    h = fnv1a64_bytes(h, &p.max_delay_s, sizeof(p.max_delay_s));
  }
  for (const auto& l : res.links) {
    h = fnv1a64_bytes(h, &l.arrivals, sizeof(l.arrivals));
    h = fnv1a64_bytes(h, &l.drops, sizeof(l.drops));
    h = fnv1a64_bytes(h, &l.utilization, sizeof(l.utilization));
    h = fnv1a64_bytes(h, &l.mean_queue_pkts, sizeof(l.mean_queue_pkts));
  }
  return h;
}

TEST(SimGolden, MeshedTopologyBitwiseIdenticalToSeed) {
  topo::Topology t = topo::nsfnet();
  util::RngStream rng(3);
  topo::randomize_queue_sizes(t, 0.5, rng);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm = topo::uniform_traffic(t.num_nodes(), 1.0, 2.0, rng);
  topo::scale_to_max_utilization(tm, t, rs, 0.9);
  sim::SimConfig cfg;
  cfg.window_s = 0.5;
  cfg.warmup_s = 0.05;
  cfg.seed = 7;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();

  EXPECT_EQ(res.total_events, 19371u);
  EXPECT_EQ(digest(res), 0xfa8faac927359f1cull);
  const auto& p0 = res.paths[0];
  EXPECT_EQ(p0.src, 0u);
  EXPECT_EQ(p0.dst, 1u);
  EXPECT_EQ(p0.generated, 46u);
  EXPECT_EQ(p0.delivered, 46u);
  EXPECT_EQ(p0.dropped, 0u);
  EXPECT_EQ(p0.mean_delay_s, 0x1.ae26139869d8bp-10);
  EXPECT_EQ(p0.jitter_s2, 0x1.7309d353899e1p-19);
}

TEST(SimGolden, SingleHopBitwiseIdenticalToSeed) {
  topo::Topology t = topo::line(2, 1e6);
  t.set_all_queue_sizes(8);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, 0.8e6);
  sim::SimConfig cfg;
  cfg.window_s = 30.0;
  cfg.warmup_s = 2.0;
  cfg.seed = 42;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();

  EXPECT_EQ(res.total_events, 6173u);
  EXPECT_EQ(digest(res), 0x56778cd61427e951ull);
  const auto& p = res.paths[0];
  EXPECT_EQ(p.generated, 2949u);
  EXPECT_EQ(p.delivered, 2852u);
  EXPECT_EQ(p.dropped, 97u);
  EXPECT_EQ(p.mean_delay_s, 0x1.b99c207d44099p-6);
  EXPECT_EQ(p.jitter_s2, 0x1.1147642c00799p-11);
  EXPECT_EQ(p.min_delay_s, 0x1.0d95f4acp-18);
  EXPECT_EQ(p.max_delay_s, 0x1.3928d99ccbc8p-3);
}

TEST(SimGolden, DefaultGeneratorDrawSequenceUnchanged) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  const auto ds = data::generate_dataset(topo::ring(4), 2, cfg, 7);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].paths[0].traffic_bps, 0x1.9543f8799503ep+22);
  EXPECT_EQ(ds[0].paths[0].mean_delay_s, 0x1.07e75d4ccd49cp-12);
  EXPECT_EQ(ds[0].paths[0].jitter_s2, 0x1.18b5ef4e87e8cp-24);
  EXPECT_EQ(ds[0].queue_pkts[0], 32u);
  EXPECT_EQ(ds[1].paths[0].traffic_bps, 0x1.110633023ab36p+19);
  EXPECT_EQ(ds[1].paths[0].mean_delay_s, 0x1.d68619ac434bdp-13);
  EXPECT_EQ(ds[1].paths[0].jitter_s2, 0x1.89dce49b16ca2p-25);
  // The default scenario is recorded with every sample now.
  EXPECT_TRUE(ds[0].scenario_recorded);
  EXPECT_EQ(ds[0].scenario, sim::ScenarioConfig{});
}

TEST(SimGolden, EveryScenarioPairBitwisePinned) {
  struct Pin {
    sim::SchedulerPolicy policy;
    sim::TrafficProcess traffic;
    std::uint64_t events;
    std::uint64_t digest;
  };
  using P = sim::SchedulerPolicy;
  using T = sim::TrafficProcess;
  constexpr std::array<Pin, 9> kPins{{
      {P::kFifo, T::kPoisson, 11896u, 0xee51e19db06c9f89ull},
      {P::kFifo, T::kCbr, 11647u, 0xdaa9e13d98a9847eull},
      {P::kFifo, T::kOnOff, 12665u, 0x3ef9fdf357d06ae2ull},
      {P::kStrictPriority, T::kPoisson, 11903u, 0x8e1660604ec025acull},
      {P::kStrictPriority, T::kCbr, 11640u, 0x5c4c7dc2a620753eull},
      {P::kStrictPriority, T::kOnOff, 12650u, 0xf57a0240de394330ull},
      {P::kDrr, T::kPoisson, 11877u, 0xa9370768b419d1dbull},
      {P::kDrr, T::kCbr, 11651u, 0x17e83ae14b6c9bfbull},
      {P::kDrr, T::kOnOff, 12628u, 0xf8ef37221631366aull},
  }};
  topo::Topology t = topo::nsfnet();
  util::RngStream rng(5);
  topo::randomize_queue_sizes(t, 0.5, rng);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm = topo::uniform_traffic(t.num_nodes(), 1.0, 2.0, rng);
  topo::scale_to_max_utilization(tm, t, rs, 0.9);
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(sim::to_string(pin.policy)) + "_" +
                 std::string(sim::to_string(pin.traffic)));
    sim::SimConfig cfg;
    cfg.window_s = 0.3;
    cfg.warmup_s = 0.03;
    cfg.seed = 9;
    cfg.scenario.policy = pin.policy;
    cfg.scenario.traffic = pin.traffic;
    cfg.scenario.priority_classes = 3;
    cfg.flow_class = [](topo::NodeId s, topo::NodeId d) {
      return static_cast<std::uint32_t>((s + 2 * d) % 3);
    };
    const sim::SimResult res = sim::Simulator(t, rs, tm, cfg).run();
    EXPECT_EQ(res.total_events, pin.events);
    EXPECT_EQ(digest(res), pin.digest);
  }
}

// Four-hop line with propagation delay on every link, so packets reach
// later hops through hop-arrival events.  Every flow is CBR at 1 Mb/s
// with fixed 8000-bit packets: all share one period, and on the 1 Mb/s
// first links that period equals the service time exactly, so each
// flow's next generation and its previous packet's departure fall on the
// same instant and only the insertion-order tie-break orders them.  The
// one-packet queues make that order visible (admitted or dropped).
TEST(SimGolden, PropagationDelayAndTimeTiesBitwisePinned) {
  topo::Topology t = topo::line(5, 1e6);
  t.set_all_queue_sizes(4);
  t.set_queue_size(0, 1);
  t.set_queue_size(2, 1);
  for (topo::LinkId l = 0; l < t.num_links(); ++l) {
    t.set_link_prop_delay(l, 1e-3 * static_cast<double>(1 + l % 3));
    if (l % 2 == 1) t.set_link_capacity(l, 2.5e6);
  }
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(5);
  tm.set(0, 4, 1e6);
  tm.set(1, 4, 1e6);
  tm.set(4, 0, 1e6);
  tm.set(3, 1, 1e6);
  tm.set(2, 0, 1e6);
  sim::SimConfig cfg;
  cfg.window_s = 2.0;
  cfg.warmup_s = 0.2;
  cfg.seed = 13;
  cfg.size_dist = sim::PacketSizeDist::kDeterministic;
  cfg.scenario.traffic = sim::TrafficProcess::kCbr;
  const sim::SimResult res = sim::Simulator(t, rs, tm, cfg).run();

  EXPECT_EQ(res.total_events, 5790u);
  EXPECT_EQ(digest(res), 0x52f54a6843978e00ull);
}

TEST(SimGolden, MixedGeneratorStreamBitwisePinned) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 2'000;
  cfg.mixed_scenarios = true;
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t n = 0;
  data::generate_dataset_stream(
      data::mixed_topology(), 16, cfg, 21, 1,
      [&](std::size_t, data::Sample s) {
        const std::uint64_t d = data::io::sample_digest(s);
        h = fnv1a64_bytes(h, &d, sizeof(d));
        ++n;
      });
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(h, 0xe3511889758b2fdeull);
}

}  // namespace

// Failure-injection and extreme-regime tests for the simulator and the
// dataset pipeline: severe overload, starvation, degenerate topologies,
// pathological traffic matrices.  The simulator must stay conservative
// (no lost packets in the accounting) and numerically sane everywhere.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generator.hpp"
#include "sim/mm1k.hpp"
#include "sim/simulator.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;

void expect_conservation(const sim::SimResult& res) {
  for (const auto& p : res.paths)
    EXPECT_EQ(p.generated, p.delivered + p.dropped)
        << p.src << "->" << p.dst;
}

TEST(SimStress, SevereOverloadTinyQueues) {
  // 5x overload into 1-packet queues: most packets drop, accounting
  // stays exact, delays stay at service scale.
  topo::Topology t = topo::line(2, 1e6);
  t.set_all_queue_sizes(1);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, 5e6);
  sim::SimConfig cfg;
  cfg.window_s = 20.0;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();
  expect_conservation(res);
  const auto& p = res.path(0, 1);
  EXPECT_GT(p.loss_rate(), 0.5);
  EXPECT_GT(p.delivered, 0u);
  // K=1: no queueing wait; delay is pure service (mean 8ms at 1 Mbps).
  EXPECT_LT(p.mean_delay_s, 0.1);
  // K=1 cannot pipeline: the server idles while waiting for the next
  // arrival, so utilization is lambda/(lambda+mu) = 5/6, not 1.0 —
  // exactly the M/M/1/1 closed form.
  EXPECT_NEAR(res.links[0].utilization,
              sim::mm1k_utilization(5.0 * 125.0, 125.0, 1), 0.02);
}

TEST(SimStress, NearZeroTraffic) {
  topo::Topology t = topo::line(2, 1e6);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, 80.0);  // ~0.01 pkt/s: a handful of packets
  sim::SimConfig cfg;
  cfg.window_s = 200.0;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();
  expect_conservation(res);
  const auto& p = res.path(0, 1);
  EXPECT_EQ(p.dropped, 0u);
  if (p.delivered > 0) {
    EXPECT_GT(p.mean_delay_s, 0.0);
    EXPECT_TRUE(std::isfinite(p.jitter_s2));
  }
}

TEST(SimStress, SingleFlowAmongSilentPairs) {
  // Only one pair carries traffic on GEANT2; every other path must
  // report zeros, not garbage.
  const topo::Topology t = topo::geant2();
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(24);
  tm.set(3, 17, 1e6);
  sim::SimConfig cfg;
  cfg.window_s = 2.0;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();
  EXPECT_EQ(res.paths.size(), 1u);  // silent pairs produce no flow entry
  expect_conservation(res);
  EXPECT_GT(res.path(3, 17).delivered, 100u);
}

TEST(SimStress, StarHubContention) {
  // All leaves send through the hub: hub output queues are the shared
  // bottleneck; leaf-to-leaf delays reflect hub queueing.
  topo::Topology t = topo::star(6, 1e6);
  t.set_queue_size(0, 4);  // small hub buffers
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(7);
  for (topo::NodeId a = 1; a <= 6; ++a)
    for (topo::NodeId b = 1; b <= 6; ++b)
      if (a != b) tm.set(a, b, 0.04e6);
  sim::SimConfig cfg;
  cfg.window_s = 30.0;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();
  expect_conservation(res);
  std::uint64_t hub_drops = 0;
  for (const topo::LinkId l : t.graph().out_links(0))
    hub_drops += res.links[l].drops;
  EXPECT_GT(hub_drops, 0u);  // small hub buffers under 6x fan-in
}

TEST(SimStress, LongChainManyHops) {
  // 12-hop chain end to end; delays accumulate linearly-ish, events
  // scale with hops, accounting stays exact.
  const topo::Topology t = topo::line(13, 10e6);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(13);
  tm.set(0, 12, 2e6);
  sim::SimConfig cfg;
  cfg.window_s = 10.0;
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();
  expect_conservation(res);
  const auto& p = res.path(0, 12);
  ASSERT_GT(p.delivered, 1'000u);
  // At rho=0.2 per hop: ~12 service times minimum.
  EXPECT_GT(p.mean_delay_s, 12 * 8000.0 / 10e6 * 0.9);
}

TEST(SimStress, EventCapTruncatesGracefully) {
  topo::Topology t = topo::line(2, 1e6);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, 0.5e6);
  sim::SimConfig cfg;
  cfg.window_s = 1000.0;
  cfg.max_events = 5'000;  // far below what the run needs
  sim::Simulator s(t, rs, tm, cfg);
  const sim::SimResult res = s.run();  // must not hang or throw
  EXPECT_LE(res.total_events, 5'000u);
  EXPECT_TRUE(res.truncated);
}

TEST(SimStress, EventCapCountsOnlyProcessedEvents) {
  topo::Topology t = topo::line(3, 1e6);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(3);
  tm.set(0, 2, 0.5e6);
  sim::SimConfig cfg;
  cfg.window_s = 2.0;
  const sim::SimResult full = sim::Simulator(t, rs, tm, cfg).run();
  EXPECT_FALSE(full.truncated);
  expect_conservation(full);
  // A cap equal to the drained run's count is not a truncation.
  cfg.max_events = full.total_events;
  const sim::SimResult exact = sim::Simulator(t, rs, tm, cfg).run();
  EXPECT_FALSE(exact.truncated);
  EXPECT_EQ(exact.total_events, full.total_events);
  cfg.max_events = full.total_events - 1;
  const sim::SimResult cut = sim::Simulator(t, rs, tm, cfg).run();
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.total_events, full.total_events - 1);
}

TEST(GeneratorStress, ExtremeUtilizationTargets) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  cfg.util_lo = 1.3;  // deliberately overloaded datasets
  cfg.util_hi = 1.5;
  util::RngStream rng(3);
  const data::Sample s = data::generate_sample(topo::ring(4), cfg, rng);
  s.validate();
  // Overload means drops; loss labels must reflect it somewhere.
  double max_loss = 0.0;
  for (const auto& p : s.paths) max_loss = std::max(max_loss, p.loss_rate);
  EXPECT_GT(max_loss, 0.05);
}

TEST(GeneratorStress, AllTrafficModelsProduceUsableSamples) {
  for (const auto model :
       {data::TrafficModel::kUniform, data::TrafficModel::kGravity,
        data::TrafficModel::kHotspot, data::TrafficModel::kMix}) {
    data::GeneratorConfig cfg;
    cfg.target_packets = 4'000;
    cfg.traffic = model;
    util::RngStream rng(7);
    const data::Sample s = data::generate_sample(topo::ring(4), cfg, rng);
    s.validate();
    std::size_t usable = 0;
    for (const auto& p : s.paths)
      if (p.delivered > 0) ++usable;
    EXPECT_GT(usable, s.paths.size() / 2)
        << "model " << static_cast<int>(model);
  }
}

TEST(GeneratorStress, RandomTopologiesEndToEnd) {
  // The full pipeline must work on arbitrary connected graphs, not just
  // the paper's two maps.
  util::RngStream trng(11);
  for (int i = 0; i < 3; ++i) {
    const topo::Topology t = topo::random_connected(8, 12, trng);
    data::GeneratorConfig cfg;
    cfg.target_packets = 4'000;
    util::RngStream rng(static_cast<std::uint64_t>(i));
    const data::Sample s = data::generate_sample(t, cfg, rng);
    s.validate();
    EXPECT_EQ(s.num_nodes, 8u);
    EXPECT_EQ(s.paths.size(), 56u);
  }
}

}  // namespace

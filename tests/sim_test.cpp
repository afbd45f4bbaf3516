// Validation of the packet-level simulator (DESIGN.md V1).
//
// A two-node topology with one flow is exactly M/M/1/K, so simulated
// delay, loss and utilization must match the closed forms of sim/mm1k.hpp.
// Further tests pin conservation invariants, determinism, multi-hop
// composition, and the queue-size effect the paper's datasets rely on.
#include <gtest/gtest.h>

#include <limits>

#include "sim/mm1k.hpp"
#include "sim/simulator.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;
using sim::SimConfig;
using sim::Simulator;
using sim::SimResult;

// Single-hop scenario: one flow 0->1 over a line(2) with given capacity,
// load rho and queue capacity K.
SimResult run_single_hop(double rho, std::uint32_t k, double window_s = 60.0,
                         std::uint64_t seed = 1) {
  const double cap_bps = 1e6;          // mu = cap / mean_pkt_bits = 125/s
  const double mean_pkt_bits = 8000.0;
  topo::Topology t = topo::line(2, cap_bps);
  t.set_all_queue_sizes(k);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, rho * cap_bps);
  SimConfig cfg;
  cfg.mean_packet_bits = mean_pkt_bits;
  cfg.window_s = window_s;
  cfg.warmup_s = 5.0;
  cfg.seed = seed;
  Simulator s(t, rs, tm, cfg);
  return s.run();
}

TEST(SimValidation, Mm1DelayMatchesTheory) {
  // K large enough that blocking is negligible -> effectively M/M/1.
  const double rho = 0.7, mu = 1e6 / 8000.0;
  const SimResult res = run_single_hop(rho, 200, 300.0);
  const auto& p = res.path(0, 1);
  ASSERT_GT(p.delivered, 10'000u);
  const double theory = sim::mm1_mean_sojourn(rho * mu, mu);
  EXPECT_NEAR(p.mean_delay_s, theory, 0.05 * theory);
  EXPECT_LT(p.loss_rate(), 1e-4);
}

// Property sweep: M/M/1/K blocking and sojourn across (rho, K).
class Mm1kSimProperty
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(Mm1kSimProperty, LossAndDelayMatchClosedForm) {
  const double rho = std::get<0>(GetParam());
  const auto k = static_cast<std::uint32_t>(std::get<1>(GetParam()));
  const double mu = 1e6 / 8000.0;
  const SimResult res = run_single_hop(rho, k, 400.0);
  const auto& p = res.path(0, 1);
  ASSERT_GT(p.generated, 10'000u);

  const double block_theory = sim::mm1k_blocking(rho * mu, mu, k);
  const double sojourn_theory = sim::mm1k_mean_sojourn(rho * mu, mu, k);
  // 5% relative + small absolute tolerance (finite-run noise).
  EXPECT_NEAR(p.loss_rate(), block_theory,
              0.05 * block_theory + 0.004)
      << "rho=" << rho << " K=" << k;
  EXPECT_NEAR(p.mean_delay_s, sojourn_theory, 0.05 * sojourn_theory)
      << "rho=" << rho << " K=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, Mm1kSimProperty,
    ::testing::Combine(::testing::Values(0.5, 0.9, 1.2),
                       ::testing::Values(1, 4, 32)));

TEST(SimValidation, UtilizationMatchesTheory) {
  const double rho = 0.6, mu = 1e6 / 8000.0;
  const SimResult res = run_single_hop(rho, 64, 300.0);
  const auto l01 = 0u;  // first directed link of line(2) is 0->1
  EXPECT_NEAR(res.links[l01].utilization,
              sim::mm1k_utilization(rho * mu, mu, 64), 0.02);
}

TEST(SimValidation, MeanQueueMatchesTheory) {
  const double rho = 0.8, mu = 1e6 / 8000.0;
  const SimResult res = run_single_hop(rho, 16, 400.0);
  EXPECT_NEAR(res.links[0].mean_queue_pkts,
              sim::mm1k_mean_system(rho * mu, mu, 16), 0.25);
}

// ---- invariants -------------------------------------------------------------

TEST(SimInvariants, MeasuredCohortConserved) {
  // Every measured packet is delivered or dropped once the loop drains.
  const SimResult res = run_single_hop(1.1, 4, 60.0);
  const auto& p = res.path(0, 1);
  EXPECT_EQ(p.generated, p.delivered + p.dropped);
  EXPECT_GT(p.dropped, 0u);  // overloaded with tiny queue must drop
}

TEST(SimInvariants, ConservationOnMeshedTopology) {
  topo::Topology t = topo::geant2();
  rnx::util::RngStream rng(3);
  topo::randomize_queue_sizes(t, 0.5, rng);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm = topo::uniform_traffic(24, 1.0, 2.0, rng);
  topo::scale_to_max_utilization(tm, t, rs, 0.9);
  SimConfig cfg;
  cfg.window_s = 1.5;
  cfg.warmup_s = 0.1;
  Simulator s(t, rs, tm, cfg);
  const SimResult res = s.run();
  std::uint64_t generated = 0, finished = 0;
  for (const auto& p : res.paths) {
    EXPECT_EQ(p.generated, p.delivered + p.dropped)
        << p.src << "->" << p.dst;
    generated += p.generated;
    finished += p.delivered + p.dropped;
  }
  EXPECT_GT(generated, 5'000u);
  EXPECT_EQ(generated, finished);
}

TEST(SimInvariants, DeterministicAcrossRuns) {
  const SimResult a = run_single_hop(0.8, 8, 30.0, /*seed=*/42);
  const SimResult b = run_single_hop(0.8, 8, 30.0, /*seed=*/42);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.path(0, 1).delivered, b.path(0, 1).delivered);
  EXPECT_DOUBLE_EQ(a.path(0, 1).mean_delay_s, b.path(0, 1).mean_delay_s);
}

TEST(SimInvariants, SeedChangesRealization) {
  const SimResult a = run_single_hop(0.8, 8, 30.0, /*seed=*/1);
  const SimResult b = run_single_hop(0.8, 8, 30.0, /*seed=*/2);
  EXPECT_NE(a.path(0, 1).mean_delay_s, b.path(0, 1).mean_delay_s);
  // ... but the statistics agree (same distribution).
  EXPECT_NEAR(a.path(0, 1).mean_delay_s, b.path(0, 1).mean_delay_s,
              0.15 * a.path(0, 1).mean_delay_s);
}

TEST(SimInvariants, DelayAtLeastServiceAndPropagation) {
  topo::Topology t = topo::line(3, 1e6);
  t.set_link_prop_delay(0, 0.01);
  t.set_link_prop_delay(2, 0.02);  // 1->2 direction
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(3);
  tm.set(0, 2, 0.1e6);
  SimConfig cfg;
  cfg.window_s = 20.0;
  Simulator s(t, rs, tm, cfg);
  const SimResult res = s.run();
  const auto& p = res.path(0, 2);
  ASSERT_GT(p.delivered, 100u);
  EXPECT_GE(p.min_delay_s, 0.03);  // at least the propagation sum
}

// ---- multi-hop composition ----------------------------------------------------

TEST(SimComposition, LightlyLoadedLineSumsPerHopDelays) {
  // At low load the Kleinrock independence approximation is accurate:
  // mean end-to-end delay ~= hops * E[sojourn per hop].
  const double cap = 1e6, rho = 0.2, mu = cap / 8000.0;
  topo::Topology t = topo::line(4, cap);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(4);
  tm.set(0, 3, rho * cap);
  SimConfig cfg;
  cfg.window_s = 120.0;
  cfg.warmup_s = 5.0;
  Simulator s(t, rs, tm, cfg);
  const SimResult res = s.run();
  const auto& p = res.path(0, 3);
  ASSERT_GT(p.delivered, 2'500u);  // 25 pkt/s x 120 s at rho=0.2
  const double per_hop = sim::mm1_mean_sojourn(rho * mu, mu);
  EXPECT_NEAR(p.mean_delay_s, 3 * per_hop, 0.10 * 3 * per_hop);
}

// ---- the paper's queue-size effect -------------------------------------------

TEST(QueueEffect, TinyQueuesTradeDelayForLoss) {
  // Under identical load, 1-packet queues have (a) far smaller delay
  // (no queueing wait) and (b) far larger loss than standard queues.
  // This is the signal the extended architecture learns from (§3).
  const SimResult tiny = run_single_hop(0.9, topo::kTinyQueuePackets, 120.0);
  const SimResult std_q =
      run_single_hop(0.9, topo::kStandardQueuePackets, 120.0);
  const auto& pt = tiny.path(0, 1);
  const auto& ps = std_q.path(0, 1);
  EXPECT_LT(pt.mean_delay_s, 0.4 * ps.mean_delay_s);
  EXPECT_GT(pt.loss_rate(), 10.0 * std::max(ps.loss_rate(), 1e-6));
}

TEST(QueueEffect, BottleneckNodeQueueShapesTransitPaths) {
  // line 0-1-2; only node 1's queue size changes; the 0->2 path through
  // node 1's output port must feel it.
  auto run = [](std::uint32_t k1) {
    topo::Topology t = topo::line(3, 1e6);
    t.set_queue_size(1, k1);
    const topo::RoutingScheme rs = topo::hop_count_routing(t);
    topo::TrafficMatrix tm(3);
    tm.set(0, 2, 0.85e6);
    tm.set(1, 2, 0.05e6);
    SimConfig cfg;
    cfg.window_s = 120.0;
    cfg.warmup_s = 5.0;
    Simulator s(t, rs, tm, cfg);
    return s.run();
  };
  const SimResult tiny = run(1);
  const SimResult std_q = run(32);
  EXPECT_LT(tiny.path(0, 2).mean_delay_s,
            0.7 * std_q.path(0, 2).mean_delay_s);
  EXPECT_GT(tiny.path(0, 2).loss_rate(),
            std_q.path(0, 2).loss_rate() + 0.01);
}

TEST(SimConfigValidation, BadInputsThrow) {
  const topo::Topology t = topo::line(2, 1e6);
  const topo::RoutingScheme rs = topo::hop_count_routing(t);
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, 1e5);
  SimConfig cfg;
  cfg.window_s = 0.0;
  EXPECT_THROW(Simulator(t, rs, tm, cfg), std::invalid_argument);
  cfg.window_s = 1.0;
  cfg.mean_packet_bits = 0.0;
  EXPECT_THROW(Simulator(t, rs, tm, cfg), std::invalid_argument);
  topo::TrafficMatrix wrong(3);
  cfg.mean_packet_bits = 8000.0;
  EXPECT_THROW(Simulator(t, rs, wrong, cfg), std::invalid_argument);
}

TEST(SimConfigValidation, NanAndInfiniteInputsThrow) {
  const topo::RoutingScheme rs = topo::hop_count_routing(topo::line(2, 1e6));
  topo::TrafficMatrix tm(2);
  tm.set(0, 1, 1e5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    const topo::Topology t = topo::line(2, 1e6);
    SimConfig cfg;
    cfg.window_s = nan;
    EXPECT_THROW(Simulator(t, rs, tm, cfg), std::invalid_argument);
    cfg.window_s = inf;
    EXPECT_THROW(Simulator(t, rs, tm, cfg), std::invalid_argument);
    cfg.window_s = 1.0;
    cfg.warmup_s = nan;
    EXPECT_THROW(Simulator(t, rs, tm, cfg), std::invalid_argument);
    cfg.warmup_s = 0.1;
    cfg.mean_packet_bits = nan;
    EXPECT_THROW(Simulator(t, rs, tm, cfg), std::invalid_argument);
  }
  {
    // The topology refuses them itself, so no simulator ever sees one.
    topo::Topology t = topo::line(2, 1e6);
    EXPECT_THROW(t.set_link_capacity(0, nan), std::invalid_argument);
    EXPECT_THROW(t.set_link_capacity(0, inf), std::invalid_argument);
    EXPECT_THROW(t.set_link_prop_delay(1, nan), std::invalid_argument);
    EXPECT_THROW(t.set_link_prop_delay(1, inf), std::invalid_argument);
    EXPECT_NO_THROW(t.validate());
    EXPECT_NO_THROW(Simulator(t, rs, tm, SimConfig{}));
  }
}

TEST(SimDeterministicSizes, DeterministicPacketsReduceJitter) {
  // M/D/1 vs M/M/1: deterministic service halves queueing variance.
  const double cap = 1e6, rho = 0.7;
  auto run = [&](sim::PacketSizeDist dist) {
    topo::Topology t = topo::line(2, cap);
    t.set_all_queue_sizes(200);
    const topo::RoutingScheme rs = topo::hop_count_routing(t);
    topo::TrafficMatrix tm(2);
    tm.set(0, 1, rho * cap);
    SimConfig cfg;
    cfg.window_s = 120.0;
    cfg.warmup_s = 5.0;
    cfg.size_dist = dist;
    Simulator s(t, rs, tm, cfg);
    return s.run().path(0, 1);  // PathStats returned by value: safe
  };
  const auto exp_p = run(sim::PacketSizeDist::kExponential);
  const auto det_p = run(sim::PacketSizeDist::kDeterministic);
  EXPECT_LT(det_p.mean_delay_s, exp_p.mean_delay_s);   // M/D/1 < M/M/1
  EXPECT_LT(det_p.jitter_s2, exp_p.jitter_s2);
}

TEST(SimResultApi, UnknownPairThrows) {
  const SimResult res = run_single_hop(0.5, 8, 10.0);
  EXPECT_NO_THROW((void)res.path(0, 1));
  EXPECT_THROW((void)res.path(1, 0), std::out_of_range);
}

}  // namespace

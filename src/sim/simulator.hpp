// Packet-level discrete-event network simulator.
//
// This is the in-house OMNeT++ substitute used to produce ground-truth
// datasets (DESIGN.md S1).  Model:
//
//  * every (src, dst) pair with traffic is a flow: packet arrivals follow
//    the scenario's TrafficProcess (Poisson by default; CBR and
//    Markov-modulated on-off for the scenario engine, DESIGN.md §S),
//    i.i.d. packet sizes (exponential by default);
//  * forwarding follows the RoutingScheme's fixed path;
//  * each directed link is an output port with a finite drop-tail buffer
//    whose capacity (in packets, including the one in service) is the
//    *queue size of the transmitting node* — the feature the paper varies;
//    the scenario's SchedulerPolicy (FIFO / strict priority / DRR) picks
//    which waiting packet transmits next;
//  * service time = packet size / link capacity; then the packet takes
//    the link's propagation delay to reach the next node.
//
// A single-link instance of the default model is exactly M/M/1/K, which
// the test suite exploits to validate delay, loss and utilization against
// closed forms (sim/mm1k.hpp); the non-default scenario combinations are
// pinned against their own closed forms in tests/queueing_theory_test.cpp,
// and the default path is pinned bitwise by tests/sim_golden_test.cpp.
//
// Statistics are collected for the cohort of packets *generated* inside
// the measurement window (after warm-up); the event loop drains fully, so
// every measured packet is either delivered or dropped — an invariant the
// tests assert.  The only exception is a run stopped by
// SimConfig::max_events, which SimResult::truncated reports.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "topo/traffic.hpp"

namespace rnx::sim {

enum class PacketSizeDist : std::uint8_t {
  kExponential,   ///< M/M/1-style; default, matches the analytic reference
  kDeterministic  ///< fixed-size packets (M/D/1-style)
};

struct SimConfig {
  double warmup_s = 0.1;    ///< transient discarded before measuring
  double window_s = 1.0;    ///< measurement window length
  double mean_packet_bits = 8000.0;  ///< 1000-byte packets
  PacketSizeDist size_dist = PacketSizeDist::kExponential;
  std::uint64_t seed = 1;
  /// Hard safety cap on processed events; a run that reaches it stops
  /// with SimResult::truncated set.
  std::uint64_t max_events = 500'000'000;
  /// Scheduling policy / traffic process / class structure.  The default
  /// (FIFO + Poisson, one class) reproduces the seed simulator bitwise.
  ScenarioConfig scenario;
  /// Scheduling class per flow, keyed by (src, dst); the result is
  /// clamped to scenario.priority_classes - 1.  Unset = every flow in
  /// class 0.  The dataset generator records its assignment per path.
  std::function<std::uint32_t(topo::NodeId, topo::NodeId)> flow_class;
};

/// One simulation run over a fixed topology/routing/traffic triple.
/// The referenced topology, routing and traffic objects must outlive run().
class Simulator {
 public:
  Simulator(const topo::Topology& topo, const topo::RoutingScheme& routing,
            const topo::TrafficMatrix& traffic, SimConfig config);

  /// Execute the simulation to full drain and return all statistics.
  /// Deterministic for a fixed (inputs, config.seed).
  [[nodiscard]] SimResult run();

 private:
  const topo::Topology& topo_;
  const topo::RoutingScheme& routing_;
  const topo::TrafficMatrix& traffic_;
  SimConfig cfg_;
};

}  // namespace rnx::sim

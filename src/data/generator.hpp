// Simulator-driven dataset generation (DESIGN.md S4).
//
// Mirrors the paper's data protocol: for each sample, draw a fresh
// scenario on a fixed base topology —
//   * per-edge capacity from a discrete speed set,
//   * per-node queue size (standard or 1 packet, the paper's §3 knob),
//   * a randomized shortest-path routing (random link weights),
//   * a traffic matrix from a randomly chosen model, rescaled so the
//     busiest link sits at a target utilization drawn from [util_lo, util_hi],
// then run the packet simulator and record per-path delay/jitter/loss.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/sample.hpp"
#include "sim/scenario.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace rnx::data {

enum class TrafficModel : std::uint8_t { kUniform, kGravity, kHotspot, kMix };

struct GeneratorConfig {
  double p_tiny_queue = 0.5;  ///< P(node gets a 1-packet queue)
  std::vector<double> capacity_choices = {10e6, 20e6, 40e6};
  double util_lo = 0.4;   ///< target max-link utilization range
  double util_hi = 0.95;
  TrafficModel traffic = TrafficModel::kMix;
  bool randomize_routing = true;   ///< false = plain hop-count routing
  bool randomize_queues = true;    ///< false = all nodes standard size
  bool randomize_capacities = true;
  double mean_packet_bits = 8000.0;
  /// Measurement window is sized so roughly this many packets are
  /// generated network-wide (plus 10% warm-up).
  std::uint64_t target_packets = 60'000;
  /// Scheduling policy / traffic process / class count every sample is
  /// simulated under (DESIGN.md §S).  The default reproduces the seed
  /// protocol (FIFO + Poisson, one class) with unchanged RNG draws, so
  /// pre-scenario datasets regenerate bitwise-identically.
  sim::ScenarioConfig scenario;
  /// Mixed-scenario mode: draw (policy, traffic process) uniformly per
  /// sample instead of using scenario.policy/.traffic for every sample —
  /// one dataset spanning all nine scenario combinations.
  bool mixed_scenarios = false;

  /// Throws std::invalid_argument on out-of-range parameters
  /// (p_tiny_queue outside [0,1], non-positive mean_packet_bits, zero
  /// target_packets, inverted utilization range, bad scenario).
  void validate() const;
};

/// Generate one sample on (a scenario drawn from) the base topology.
/// Deterministic in (base, cfg, rng state).  Throws
/// std::invalid_argument if the drawn traffic matrix carries zero total
/// demand (a zero-rate matrix would size an infinite measurement
/// window), and std::runtime_error naming the topology if the simulation
/// hits its event cap (SimResult::truncated) instead of draining.
[[nodiscard]] Sample generate_sample(const topo::Topology& base,
                                     const GeneratorConfig& cfg,
                                     util::RngStream& rng);

/// Per-sample topology provider for dataset generation.  Called with
/// the sample's derived RNG stream BEFORE generate_sample consumes it;
/// a fixed-topology sampler must not draw from the stream (that keeps
/// fixed-topology datasets bitwise-identical to the seed protocol),
/// while the mixed sampler draws the topology kind and size from it.
using TopologySampler = std::function<topo::Topology(util::RngStream&)>;

/// Sampler that returns `base` for every sample without touching the
/// RNG stream — the classic single-topology protocol.
[[nodiscard]] TopologySampler fixed_topology(topo::Topology base);

/// The cross-topology generalization mix (rnx_datagen --topo mix): each
/// sample draws uniformly from {geant2, nsfnet, random_connected,
/// barabasi_albert}, the latter two with randomized size — the
/// topology-diverse corpus the generalization papers train on.
[[nodiscard]] TopologySampler mixed_topology();

/// Streaming generation core: generate `count` samples over `threads`
/// lanes (0 = all hardware threads) and deliver each to
/// `sink(index, sample)` in STRICT SAMPLE ORDER.  Sample i uses an
/// independent RNG stream derived from (seed, i), so the output is
/// bitwise-identical for ANY thread count (same doctrine as the
/// data-parallel trainer, DESIGN.md §T/§D): lanes simulate out of
/// order, a bounded reorder window commits in order, and peak buffered
/// samples stay O(threads).  `progress(done, total)` fires after each
/// committed sample, monotonically.
void generate_dataset_stream(
    const TopologySampler& topo_of, std::size_t count,
    const GeneratorConfig& cfg, std::uint64_t seed, std::size_t threads,
    const std::function<void(std::size_t, Sample)>& sink,
    const std::function<void(std::size_t, std::size_t)>& progress = nullptr);

/// Generate `count` samples; sample i uses an independent RNG stream
/// derived from (seed, i), so datasets are reproducible and extendable
/// (the first k of a count=n run equal a count=k run).
/// `progress`, if given, is called after each sample with (done, total).
[[nodiscard]] std::vector<Sample> generate_dataset(
    const topo::Topology& base, std::size_t count, const GeneratorConfig& cfg,
    std::uint64_t seed,
    const std::function<void(std::size_t, std::size_t)>& progress = nullptr);

/// As above, fanned out over `threads` simulation lanes (0 = all
/// hardware threads).  Bitwise-identical to the serial overload for any
/// thread count.
[[nodiscard]] std::vector<Sample> generate_dataset(
    const topo::Topology& base, std::size_t count, const GeneratorConfig& cfg,
    std::uint64_t seed, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& progress = nullptr);

/// FNV-1a digest over every generation-relevant field of `cfg` — the
/// shard manifest records it so a cache/manifest can be matched against
/// the protocol that produced it.
[[nodiscard]] std::uint64_t config_digest(const GeneratorConfig& cfg);

}  // namespace rnx::data

#include "data/generator.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"
#include "util/binio.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace rnx::data {

namespace {

topo::TrafficMatrix draw_traffic(std::size_t n, TrafficModel model,
                                 util::RngStream& rng) {
  // Absolute magnitudes are irrelevant here: the matrix is rescaled to a
  // target utilization afterwards.  Only the *shape* matters.
  switch (model) {
    case TrafficModel::kUniform:
      return topo::uniform_traffic(n, 0.1, 1.0, rng);
    case TrafficModel::kGravity:
      return topo::gravity_traffic(n, 1.0, rng);
    case TrafficModel::kHotspot:
      return topo::hotspot_traffic(n, 0.1, 1.0, std::max<std::size_t>(1, n / 4),
                                   8.0, rng);
    case TrafficModel::kMix: {
      const auto pick = rng.uniform_int(0, 2);
      return draw_traffic(n,
                          pick == 0   ? TrafficModel::kUniform
                          : pick == 1 ? TrafficModel::kGravity
                                      : TrafficModel::kHotspot,
                          rng);
    }
  }
  throw std::logic_error("draw_traffic: unknown model");
}

}  // namespace

void GeneratorConfig::validate() const {
  if (!(p_tiny_queue >= 0.0) || p_tiny_queue > 1.0)
    throw std::invalid_argument(
        "GeneratorConfig: p_tiny_queue must be in [0, 1], got " +
        std::to_string(p_tiny_queue));
  if (!(mean_packet_bits > 0.0))
    throw std::invalid_argument(
        "GeneratorConfig: mean_packet_bits must be > 0, got " +
        std::to_string(mean_packet_bits));
  if (target_packets == 0)
    throw std::invalid_argument(
        "GeneratorConfig: target_packets must be > 0 (a zero-packet window "
        "yields an empty, degenerate dataset)");
  if (!(util_lo > 0.0) || util_hi < util_lo)
    throw std::invalid_argument(
        "GeneratorConfig: need 0 < util_lo <= util_hi, got [" +
        std::to_string(util_lo) + ", " + std::to_string(util_hi) + "]");
  scenario.validate();
}

Sample generate_sample(const topo::Topology& base, const GeneratorConfig& cfg,
                       util::RngStream& rng) {
  cfg.validate();
  topo::Topology topo = base;  // scenario copy with randomized attributes
  if (cfg.randomize_capacities && !cfg.capacity_choices.empty())
    topo::randomize_capacities(topo, cfg.capacity_choices, rng);
  if (cfg.randomize_queues)
    topo::randomize_queue_sizes(topo, cfg.p_tiny_queue, rng);

  const topo::RoutingScheme routing =
      cfg.randomize_routing
          ? topo::shortest_path_routing(
                topo, topo::random_link_weights(topo, rng))
          : topo::hop_count_routing(topo);

  topo::TrafficMatrix tm = draw_traffic(topo.num_nodes(), cfg.traffic, rng);
  // A zero-demand matrix (e.g. a single-node topology has no pairs)
  // would divide the window computation below to +inf — an unbounded
  // simulation.  Fail loudly before any scaling or simulation work.
  if (!(tm.total() > 0.0))
    throw std::invalid_argument(
        "generate_sample: traffic matrix total is zero on topology '" +
        topo.name() +
        "' (no demand to simulate; cannot size a finite measurement "
        "window)");
  const double target_util = rng.uniform(cfg.util_lo, cfg.util_hi);
  topo::scale_to_max_utilization(tm, topo, routing, target_util);

  // Resolve the sample's scenario.  Mixed mode draws the (policy,
  // traffic) pair here — after every default draw, so non-mixed datasets
  // keep the seed protocol's exact RNG sequence.
  sim::ScenarioConfig scenario = cfg.scenario;
  if (cfg.mixed_scenarios) {
    scenario.policy = static_cast<sim::SchedulerPolicy>(
        rng.uniform_int(0, sim::kNumSchedulerPolicies - 1));
    scenario.traffic = static_cast<sim::TrafficProcess>(
        rng.uniform_int(0, sim::kNumTrafficProcesses - 1));
  }

  // Per-flow scheduling classes from a derived stream (derivation does
  // not advance `rng`, so single-class datasets are unaffected).
  std::vector<std::uint8_t> flow_class(
      topo.num_nodes() * topo.num_nodes(), 0);
  if (scenario.priority_classes > 1) {
    util::RngStream crng = rng.derive("class");
    for (const auto& [ps, pd] : routing.pairs())
      flow_class[static_cast<std::size_t>(ps) * topo.num_nodes() + pd] =
          static_cast<std::uint8_t>(crng.uniform_int(
              0, static_cast<std::int64_t>(scenario.priority_classes) - 1));
  }

  // Size the measurement window for ~target_packets generated packets.
  const double total_pps = tm.total() / cfg.mean_packet_bits;
  sim::SimConfig sc;
  sc.mean_packet_bits = cfg.mean_packet_bits;
  sc.window_s = static_cast<double>(cfg.target_packets) / total_pps;
  sc.warmup_s = 0.1 * sc.window_s;
  sc.seed = rng();  // one draw: the simulator derives its own streams
  sc.scenario = scenario;
  const std::size_t n = topo.num_nodes();
  // By value: the config outlives this scope inside the Simulator.
  sc.flow_class = [classes = flow_class, n](topo::NodeId fs,
                                            topo::NodeId fd) {
    return static_cast<std::uint32_t>(
        classes[static_cast<std::size_t>(fs) * n + fd]);
  };

  sim::Simulator simulator(topo, routing, tm, sc);
  const sim::SimResult res = simulator.run();
  // A truncated run's labels miss every packet still in flight.
  if (res.truncated)
    throw std::runtime_error("generate_sample: simulation of topology '" +
                             topo.name() +
                             "' hit the event cap before draining");

  Sample s;
  s.topo_name = topo.name();
  s.num_nodes = static_cast<std::uint32_t>(topo.num_nodes());
  s.links = topo.graph().links();
  s.link_capacity_bps.reserve(topo.num_links());
  for (topo::LinkId l = 0; l < topo.num_links(); ++l)
    s.link_capacity_bps.push_back(topo.link_capacity(l));
  s.queue_pkts = topo.queue_sizes();
  s.max_utilization = target_util;
  s.scenario = scenario;
  s.scenario_recorded = true;

  s.paths.reserve(res.paths.size());
  for (const auto& ps : res.paths) {
    const topo::Path& rp = routing.path(ps.src, ps.dst);
    PathRecord rec;
    rec.src = ps.src;
    rec.dst = ps.dst;
    rec.nodes = rp.nodes;
    rec.links = rp.links;
    rec.traffic_bps = tm.get(ps.src, ps.dst);
    rec.priority_class =
        flow_class[static_cast<std::size_t>(ps.src) * n + ps.dst];
    rec.mean_delay_s = ps.mean_delay_s;
    rec.jitter_s2 = ps.jitter_s2;
    rec.loss_rate = ps.loss_rate();
    rec.delivered = ps.delivered;
    s.paths.push_back(std::move(rec));
  }
  return s;
}

TopologySampler fixed_topology(topo::Topology base) {
  // Must not draw from the sample stream: generate_sample then consumes
  // the exact RNG sequence of the seed protocol, keeping fixed-topology
  // datasets bitwise-identical across serial, parallel and pre-sampler
  // code paths.
  return [base = std::move(base)](util::RngStream&) { return base; };
}

TopologySampler mixed_topology() {
  return [](util::RngStream& rng) -> topo::Topology {
    const auto kind = rng.uniform_int(0, 3);
    switch (kind) {
      case 0:
        return topo::geant2();
      case 1:
        return topo::nsfnet();
      case 2: {
        const auto n = static_cast<std::size_t>(rng.uniform_int(8, 24));
        const auto extra = static_cast<std::size_t>(
            rng.uniform_int(2, static_cast<std::int64_t>(n)));
        // Structure from a derived stream so topology size draws never
        // shift the scenario draws that follow in generate_sample.
        util::RngStream trng = rng.derive("topo");
        return topo::random_connected(n, n - 1 + extra, trng);
      }
      default: {
        const auto n = static_cast<std::size_t>(rng.uniform_int(8, 24));
        util::RngStream trng = rng.derive("topo");
        return topo::barabasi_albert(n, 2, trng);
      }
    }
  };
}

void generate_dataset_stream(
    const TopologySampler& topo_of, std::size_t count,
    const GeneratorConfig& cfg, std::uint64_t seed, std::size_t threads,
    const std::function<void(std::size_t, Sample)>& sink,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  cfg.validate();
  if (threads == 0) threads = util::ThreadPool::hardware_threads();
  const util::RngStream root(seed);
  const auto make_sample = [&](std::size_t i) {
    util::RngStream rng = root.derive("sample", i);
    const topo::Topology t = topo_of(rng);
    return generate_sample(t, cfg, rng);
  };

  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      sink(i, make_sample(i));
      if (progress) progress(i + 1, count);
    }
    return;
  }

  // Ordered commit (DESIGN.md §D): lanes claim indices in increasing
  // order (the pool's atomic counter) and simulate concurrently; a
  // finished sample parks in a bounded reorder ring and the in-order
  // prefix is drained to the sink under the commit mutex.  A lane whose
  // index is more than `window` ahead of the commit cursor waits, so
  // peak buffered samples are O(threads) — and the lane holding the
  // cursor index is always inside the window, so the drain can never
  // stall (no deadlock).
  util::ThreadPool pool(threads);
  const std::size_t lanes = pool.size();
  const std::size_t window = std::max<std::size_t>(2 * lanes, 4);
  std::vector<std::optional<Sample>> ring(window);
  // Locals cannot carry RNX_GUARDED_BY (the analysis annotates members),
  // so the ring/committed/failed discipline is enforced by review + TSan.
  util::Mutex mu;  // rnx-lint: allow(guarded-by) — local, see comment above
  util::CondVar cv;
  std::size_t committed = 0;
  bool failed = false;

  pool.parallel_for(count, [&](std::size_t i) {
    {
      // Cheap abort: once any lane failed, later indices skip their
      // simulation instead of burning CPU on a doomed run.
      const util::MutexLock lock(mu);
      if (failed) return;
    }
    Sample s;
    try {
      s = make_sample(i);
    } catch (...) {
      // Unblock every lane waiting on the commit cursor: this index
      // will never commit, so the run is aborted (parallel_for rethrows
      // the first error once all indices are dispatched).
      const util::MutexLock lock(mu);
      failed = true;
      cv.notify_all();
      throw;
    }
    const util::MutexLock lock(mu);
    while (!failed && i >= committed + window) cv.wait(mu);
    if (failed) return;
    ring[i % window] = std::move(s);
    while (committed < count && ring[committed % window].has_value()) {
      Sample out = std::move(*ring[committed % window]);
      ring[committed % window].reset();
      const std::size_t idx = committed++;
      try {
        // The sink runs under the commit mutex: calls are strictly
        // ordered and never concurrent, which is what lets it write
        // shard files or digest streams with no locking of its own.
        sink(idx, std::move(out));
      } catch (...) {
        failed = true;
        cv.notify_all();
        throw;
      }
      if (progress) progress(committed, count);
    }
    cv.notify_all();
  });
}

std::vector<Sample> generate_dataset(
    const topo::Topology& base, std::size_t count, const GeneratorConfig& cfg,
    std::uint64_t seed,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  return generate_dataset(base, count, cfg, seed, /*threads=*/1, progress);
}

std::vector<Sample> generate_dataset(
    const topo::Topology& base, std::size_t count, const GeneratorConfig& cfg,
    std::uint64_t seed, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  std::vector<Sample> out(count);
  generate_dataset_stream(
      fixed_topology(base), count, cfg, seed, threads,
      [&](std::size_t i, Sample s) { out[i] = std::move(s); }, progress);
  return out;
}

std::uint64_t config_digest(const GeneratorConfig& cfg) {
  std::ostringstream bytes(std::ios::binary);
  const auto put = [&bytes](const auto& v) { util::put(bytes, v); };
  put(cfg.p_tiny_queue);
  for (const double c : cfg.capacity_choices) put(c);
  put(cfg.util_lo);
  put(cfg.util_hi);
  put(static_cast<std::uint8_t>(cfg.traffic));
  put(static_cast<std::uint8_t>(cfg.randomize_routing));
  put(static_cast<std::uint8_t>(cfg.randomize_queues));
  put(static_cast<std::uint8_t>(cfg.randomize_capacities));
  put(cfg.mean_packet_bits);
  put(cfg.target_packets);
  put(static_cast<std::uint8_t>(cfg.scenario.policy));
  put(static_cast<std::uint8_t>(cfg.scenario.traffic));
  put(cfg.scenario.priority_classes);
  put(cfg.scenario.onoff_burst_pkts);
  put(cfg.scenario.onoff_duty);
  put(cfg.scenario.drr_quantum_bits);
  put(static_cast<std::uint8_t>(cfg.mixed_scenarios));
  return util::fnv1a64(bytes.view());
}

}  // namespace rnx::data


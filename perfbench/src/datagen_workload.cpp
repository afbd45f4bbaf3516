// datagen_mix: generate_dataset_stream over mixed_topology() with mixed
// scenarios (all 9 scheduling-policy x traffic-process combinations) on
// 2 lanes, committed in order into a ShardWriter store, then read back
// with ShardedReader.  Every read-back sample's digest must equal the
// digest of the sample as generated.  No neural network runs here.
//
// The traced section replays the generator from its public pieces — the
// topology sampler, the capacity/queue/routing/traffic draws, and
// sim::Simulator::run — and checks each replayed sample's digest against
// the 2-lane stream's, so the split measures the generator itself.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "data/generator.hpp"
#include "data/sample_io.hpp"
#include "data/shards.hpp"
#include "sim/simulator.hpp"
#include "topo/traffic.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rnx;

namespace {

constexpr std::size_t kLanes = 2;
constexpr std::size_t kSimPackets = 10000;
constexpr std::size_t kSamplesPerRound = 64;
constexpr std::size_t kSamplesPerShard = 16;
/// Set-ups per run (SetupTimer).  One takes under half a second, so the
/// median needs many to be steady.
constexpr std::size_t kSetupReps = 15;
constexpr double kTailQ = 99;

data::GeneratorConfig generator_config() {
  data::GeneratorConfig cfg;
  cfg.target_packets = kSimPackets;
  cfg.mixed_scenarios = true;
  return cfg;
}

std::uint64_t round_seed(const RunArgs& args, std::size_t round) {
  util::RngStream rng = util::RngStream(args.seed).derive("datagen", round);
  return rng();
}

std::uintmax_t store_bytes(const data::ShardedReader& reader) {
  std::uintmax_t bytes = 0;
  for (std::size_t i = 0; i < reader.num_shards(); ++i)
    bytes += std::filesystem::file_size(reader.shard_path(i));
  return bytes;
}

/// Compare every read-back sample's digest with the generated one's.
void check_round_trip(const data::Dataset& back,
                      const std::vector<std::uint64_t>& digests,
                      RunResult& out) {
  out.ops.attempt(digests.size());
  std::size_t bad = back.size() == digests.size() ? 0 : digests.size();
  for (std::size_t i = 0; bad == 0 && i < back.size(); ++i)
    if (data::io::sample_digest(back[i]) != digests[i]) ++bad;
  if (bad != 0) {
    out.ops.fail("datagen: shard round trip differs", bad);
    out.error("datagen: read-back samples differ from the generated ones");
  }
}

struct Round {
  double gen_s = 0;  ///< generation plus shard write, to manifest on disk
  std::vector<double> commit_gap_ms;
  std::vector<std::uint64_t> digests;  ///< of the samples as generated
};

Round one_round(const RunArgs& args, const data::GeneratorConfig& cfg,
                std::size_t round, RunResult& out) {
  const std::string dir = args.out_dir + "/datagen-store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string manifest = dir + "/store.rnxm";
  const std::uint64_t seed = round_seed(args, round);

  Round r;
  data::ShardWriter writer(manifest, kSamplesPerShard, seed,
                           data::config_digest(cfg));
  const std::int64_t start = now_ns();
  std::int64_t last = start;
  data::generate_dataset_stream(
      data::mixed_topology(), kSamplesPerRound, cfg, seed, kLanes,
      [&](std::size_t i, data::Sample s) {
        // The sink runs under the generator's commit lock, with both
        // lanes alive.
        if (i == 1) check_threads(out);
        r.digests.push_back(data::io::sample_digest(s));
        writer.add(s);
        const std::int64_t t = now_ns();
        r.commit_gap_ms.push_back(static_cast<double>(t - last) * 1e-6);
        last = t;
      });
  (void)writer.finish();
  r.gen_s = static_cast<double>(now_ns() - start) * 1e-9;
  check_round_trip(data::ShardedReader(manifest).load_all(), r.digests, out);
  std::filesystem::remove_all(dir);
  return r;
}

// -- generator replay (mirrors data::generate_sample) ---------------------

topo::TrafficMatrix draw_traffic(std::size_t n, data::TrafficModel model,
                                 util::RngStream& rng) {
  switch (model) {
    case data::TrafficModel::kUniform:
      return topo::uniform_traffic(n, 0.1, 1.0, rng);
    case data::TrafficModel::kGravity:
      return topo::gravity_traffic(n, 1.0, rng);
    case data::TrafficModel::kHotspot:
      return topo::hotspot_traffic(n, 0.1, 1.0, std::max<std::size_t>(1, n / 4),
                                   8.0, rng);
    case data::TrafficModel::kMix: {
      const auto pick = rng.uniform_int(0, 2);
      return draw_traffic(n,
                          pick == 0   ? data::TrafficModel::kUniform
                          : pick == 1 ? data::TrafficModel::kGravity
                                      : data::TrafficModel::kHotspot,
                          rng);
    }
  }
  throw std::logic_error("draw_traffic: unknown model");
}

data::Sample replay_sample(const data::TopologySampler& sampler,
                           const data::GeneratorConfig& cfg,
                           util::RngStream& rng, Tracer& tracer,
                           std::uint64_t id, std::uint64_t& sim_events) {
  const Tracer::Scope root(tracer, "datagen.sample", id);
  std::optional<topo::Topology> net;
  std::optional<topo::RoutingScheme> routing;
  std::optional<topo::TrafficMatrix> tm;
  sim::SimConfig sc;
  sim::ScenarioConfig scenario = cfg.scenario;
  std::vector<std::uint8_t> flow_class;
  double target_util = 0;
  {
    const Tracer::Scope s(tracer, "topo.scenario_draw", id);
    net.emplace(sampler(rng));
    if (cfg.randomize_capacities && !cfg.capacity_choices.empty())
      topo::randomize_capacities(*net, cfg.capacity_choices, rng);
    if (cfg.randomize_queues)
      topo::randomize_queue_sizes(*net, cfg.p_tiny_queue, rng);
    routing.emplace(cfg.randomize_routing
                        ? topo::shortest_path_routing(
                              *net, topo::random_link_weights(*net, rng))
                        : topo::hop_count_routing(*net));
    tm.emplace(draw_traffic(net->num_nodes(), cfg.traffic, rng));
    target_util = rng.uniform(cfg.util_lo, cfg.util_hi);
    topo::scale_to_max_utilization(*tm, *net, *routing, target_util);
    if (cfg.mixed_scenarios) {
      scenario.policy = static_cast<sim::SchedulerPolicy>(
          rng.uniform_int(0, sim::kNumSchedulerPolicies - 1));
      scenario.traffic = static_cast<sim::TrafficProcess>(
          rng.uniform_int(0, sim::kNumTrafficProcesses - 1));
    }
    const std::size_t n = net->num_nodes();
    flow_class.assign(n * n, 0);
    if (scenario.priority_classes > 1) {
      util::RngStream crng = rng.derive("class");
      for (const auto& [ps, pd] : routing->pairs())
        flow_class[static_cast<std::size_t>(ps) * n + pd] =
            static_cast<std::uint8_t>(crng.uniform_int(
                0, static_cast<std::int64_t>(scenario.priority_classes) - 1));
    }
    const double total_pps = tm->total() / cfg.mean_packet_bits;
    sc.mean_packet_bits = cfg.mean_packet_bits;
    sc.window_s = static_cast<double>(cfg.target_packets) / total_pps;
    sc.warmup_s = 0.1 * sc.window_s;
    sc.seed = rng();
    sc.scenario = scenario;
    sc.flow_class = [classes = flow_class, n](topo::NodeId fs,
                                              topo::NodeId fd) {
      return static_cast<std::uint32_t>(
          classes[static_cast<std::size_t>(fs) * n + fd]);
    };
  }
  sim::SimResult res;
  {
    const Tracer::Scope s(tracer, "sim.run", id);
    res = sim::Simulator(*net, *routing, *tm, sc).run();
  }
  sim_events += res.total_events;

  const Tracer::Scope s(tracer, "data.assemble", id);
  const std::size_t n = net->num_nodes();
  data::Sample out;
  out.topo_name = net->name();
  out.num_nodes = static_cast<std::uint32_t>(n);
  out.links = net->graph().links();
  for (topo::LinkId l = 0; l < net->num_links(); ++l)
    out.link_capacity_bps.push_back(net->link_capacity(l));
  out.queue_pkts = net->queue_sizes();
  out.max_utilization = target_util;
  out.scenario = scenario;
  out.scenario_recorded = true;
  for (const auto& ps : res.paths) {
    const topo::Path& rp = routing->path(ps.src, ps.dst);
    data::PathRecord rec;
    rec.src = ps.src;
    rec.dst = ps.dst;
    rec.nodes = rp.nodes;
    rec.links = rp.links;
    rec.traffic_bps = tm->get(ps.src, ps.dst);
    rec.priority_class = flow_class[static_cast<std::size_t>(ps.src) * n + ps.dst];
    rec.mean_delay_s = ps.mean_delay_s;
    rec.jitter_s2 = ps.jitter_s2;
    rec.loss_rate = ps.loss_rate();
    rec.delivered = ps.delivered;
    out.paths.push_back(std::move(rec));
  }
  return out;
}

}  // namespace

void run_datagen(const RunArgs& args, RunResult& out) {
  const data::GeneratorConfig cfg = generator_config();
  // Set-up: generate round 0 serially.  Generation is bitwise-identical
  // for any lane count, so these digests are the reference the timed
  // 2-lane round 0 must reproduce.  Every set-up is the same work, and
  // each repeat between rounds must reproduce the reference too.
  const auto serial_round0 = [&] {
    std::vector<std::uint64_t> digests;
    data::generate_dataset_stream(
        data::mixed_topology(), kSamplesPerRound, cfg, round_seed(args, 0), 1,
        [&](std::size_t, data::Sample s) {
          digests.push_back(data::io::sample_digest(s));
        });
    return digests;
  };
  const auto check_reference = [&](const std::vector<std::uint64_t>& got,
                                   const std::vector<std::uint64_t>& want,
                                   const char* why) {
    out.ops.attempt(want.size());
    if (got != want) {
      out.ops.fail(why, want.size());
      out.error(why);
    }
  };
  SetupTimer setup(args.seconds, kSetupReps);
  const std::vector<std::uint64_t> reference = setup.time(serial_round0);

  std::vector<double> rates, gaps;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t round = 0; round == 0 || now_ns() < deadline; ++round) {
    if (setup.due())
      check_reference(setup.time(serial_round0), reference,
                      "datagen: serial generation is not reproducible");
    const Round r = one_round(args, cfg, round, out);
    if (round == 0)
      check_reference(r.digests, reference,
                      "datagen: 2-lane output differs from serial");
    rates.push_back(static_cast<double>(r.commit_gap_ms.size()) / r.gen_s);
    gaps.insert(gaps.end(), r.commit_gap_ms.begin(), r.commit_gap_ms.end());
  }
  setup.report(out);
  report_latency(gaps, kTailQ, out);
  out.report.metric("throughput_per_s", median(rates), "1/s");
  out.report.note("datagen_samples_per_s", median(rates));
  out.report.note("rounds", static_cast<double>(rates.size()));
}

void trace_datagen(const RunArgs& args, double seconds, RunResult& out) {
  const data::GeneratorConfig cfg = generator_config();
  const std::uint64_t seed = round_seed(args, 2'000'000);
  const data::TopologySampler sampler = data::mixed_topology();

  // Serial replay, one span per public call, until half the budget.
  std::vector<data::Sample> replayed;
  std::vector<std::uint64_t> digests;
  std::uint64_t sim_events = 0;
  const util::RngStream root(seed);
  const std::int64_t half = now_ns() + static_cast<std::int64_t>(0.5 * seconds * 1e9);
  while (replayed.size() < 2 * kLanes || now_ns() < half) {
    util::RngStream rng = root.derive("sample", replayed.size());
    replayed.push_back(replay_sample(sampler, cfg, rng, out.tracer,
                                     replayed.size(), sim_events));
    digests.push_back(data::io::sample_digest(replayed.back()));
  }
  const std::size_t n = replayed.size();

  // The same samples from the 2-lane stream: fidelity and lane efficiency.
  std::vector<std::uint64_t> stream_digests;
  const std::int64_t t0 = now_ns();
  data::generate_dataset_stream(sampler, n, cfg, seed, kLanes,
                                [&](std::size_t i, data::Sample s) {
                                  if (i == 1) check_threads(out);
                                  stream_digests.push_back(
                                      data::io::sample_digest(s));
                                });
  const double stream_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.ops.attempt(n);
  if (stream_digests != digests) {
    out.ops.fail("datagen: replay differs from generate_dataset_stream", n);
    out.error("datagen replay is not bitwise-equal to the generator");
  }

  // Shard store write and read on their own.
  const std::string dir = args.out_dir + "/datagen-trace-store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string manifest = dir + "/store.rnxm";
  std::int64_t t = now_ns();
  data::ShardWriter writer(manifest, kSamplesPerShard, seed,
                           data::config_digest(cfg));
  for (const data::Sample& s : replayed) writer.add(s);
  (void)writer.finish();
  const double write_s = static_cast<double>(now_ns() - t) * 1e-9;
  t = now_ns();
  const data::ShardedReader reader(manifest);
  const data::Dataset back = reader.load_all();
  const double read_s = static_cast<double>(now_ns() - t) * 1e-9;
  const auto mb = static_cast<double>(store_bytes(reader)) / 1e6;
  check_round_trip(back, digests, out);
  std::filesystem::remove_all(dir);

  const auto self = out.tracer.self_ns_by_name();
  const auto total = out.tracer.total_ns_by_name();
  const double sim_ns = static_cast<double>(self.at("sim.run"));
  out.report.metric("sim.run_ms", sim_ns * 1e-6 / static_cast<double>(n), "ms");
  out.report.metric("sim.events_per_s",
                    static_cast<double>(sim_events) / (sim_ns * 1e-9), "1/s");
  out.report.metric("topo.scenario_draw_us",
                    static_cast<double>(self.at("topo.scenario_draw")) * 1e-3 /
                        static_cast<double>(n),
                    "us");
  out.report.metric("data.shard_write_mb_per_s", mb / write_s, "MB/s");
  out.report.metric("data.shard_read_mb_per_s", mb / read_s, "MB/s");
  const double serial_s =
      static_cast<double>(total.at("datagen.sample")) * 1e-9;
  out.report.metric("datagen.lane_efficiency",
                    serial_s / (static_cast<double>(kLanes) * stream_s), "ratio");
  out.report.note("datagen_samples_traced", static_cast<double>(n));
}

}  // namespace perfbench

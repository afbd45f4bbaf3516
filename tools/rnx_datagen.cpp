// rnx_datagen — generate RouteNet datasets from the command line.
//
//   rnx_datagen --topo geant2 --count 200 --seed 1 --out train.rnxd
//   rnx_datagen --topo nsfnet --count 50 --p-tiny 0.5 --csv out.csv
//   rnx_datagen --topo nsfnet --count 50 --policy drr --traffic onoff
//               --priority-classes 3 --out bursty.rnxd
//   rnx_datagen --topo mix --count 5000 --threads 0 --shards 16
//               --out corpus.rnxm
//
// Topologies: geant2, nsfnet, ring<N>, line<N>, rand<N>x<M> (N nodes,
// M undirected edges; seeded by --seed), ba (Barabási–Albert with
// --nodes up to 300 — the large evaluation graphs for size
// generalization), or mix (per-sample random topology from {geant2,
// nsfnet, random_connected, barabasi_albert} with randomized size — the
// cross-topology generalization corpus).
// Scenario knobs (DESIGN.md §S): --policy / --traffic fix one
// scheduling policy and traffic process for the whole dataset;
// --mixed-scenarios draws the pair per sample instead.
//
// --threads fans the simulation out over parallel lanes; output is
// bitwise-identical for ANY thread count (ordered commit, DESIGN.md
// §D).  --shards writes a sharded store (.rnxm manifest + .rnxd shard
// files) streamingly — peak memory one shard, so corpus size is
// disk-bound, not RAM-bound.  --digests dumps one FNV-1a digest per
// sample; identical digests across thread counts / shard layouts is
// the equivalence CI pins.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "cli.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/sample_io.hpp"
#include "data/shards.hpp"
#include "sim/scenario.hpp"
#include "topo/zoo.hpp"
#include "util/binio.hpp"
#include "util/signal.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Thrown out of the sample sink when SIGINT/SIGTERM lands: unwinds the
/// generator (which joins its lanes), after which the committed prefix
/// is finalized as a valid, smaller dataset.
struct Interrupted {};

rnx::topo::Topology parse_topology(const std::string& name,
                                   std::uint64_t seed, std::size_t nodes) {
  using namespace rnx::topo;
  if (name == "geant2") return geant2();
  if (name == "nsfnet") return nsfnet();
  if (name == "ba") {
    // Barabási–Albert evaluation graphs for size generalization
    // (train small, serve huge): up to 300 nodes.
    if (nodes < 3 || nodes > 300)
      throw std::invalid_argument("--topo ba needs --nodes in [3, 300]");
    rnx::util::RngStream rng(seed ^ 0x6261ULL);  // "ba"
    return barabasi_albert(nodes, 2, rng);
  }
  if (name.rfind("ring", 0) == 0)
    return ring(static_cast<std::size_t>(std::stoul(name.substr(4))));
  if (name.rfind("line", 0) == 0)
    return line(static_cast<std::size_t>(std::stoul(name.substr(4))));
  if (name.rfind("rand", 0) == 0) {
    const auto x = name.find('x');
    if (x == std::string::npos)
      throw std::invalid_argument("rand topology needs NxM");
    const auto n = static_cast<std::size_t>(std::stoul(name.substr(4, x - 4)));
    const auto m = static_cast<std::size_t>(std::stoul(name.substr(x + 1)));
    rnx::util::RngStream rng(seed ^ 0x70706fULL);
    return random_connected(n, m, rng);
  }
  throw std::invalid_argument("unknown topology: " + name);
}

std::string hex_digest(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace rnx;
  const cli::Args args(
      argc, argv,
      {"topo", "count", "seed", "out", "csv", "p-tiny", "packets",
       "util-lo", "util-hi", "fixed-routing", "policy", "traffic",
       "priority-classes", "mixed-scenarios", "threads", "shards",
       "digests", "nodes"},
      "usage: rnx_datagen --topo geant2 --count 100 --out ds.rnxd\n"
      "  --topo NAME      geant2 | nsfnet | ringN | lineN | randNxM |\n"
      "                   ba (Barabási–Albert, size via --nodes) | mix\n"
      "                   (mix = per-sample random topology/size)\n"
      "  --nodes N        ba topology size, 3..300 (default 50; ba only)\n"
      "  --count N        samples to generate (default 100)\n"
      "  --seed S         dataset RNG seed (default 1)\n"
      "  --out FILE       binary dataset output (.rnxd; with --shards, the\n"
      "                   .rnxm manifest of a sharded store)\n"
      "  --csv FILE       also export per-path CSV\n"
      "  --digests FILE   one FNV-1a digest per sample (hex, in order) —\n"
      "                   identical for any --threads/--shards layout\n"
      "  --threads N      parallel simulation lanes (0 = all cores),\n"
      "                   default 1; output bitwise-identical regardless\n"
      "  --shards N       write N on-disk shards + manifest, streamingly\n"
      "  --p-tiny P       P(node gets a 1-packet queue), default 0.5\n"
      "  --packets N      simulated packets per sample, default 100000\n"
      "  --util-lo/hi U   target max-utilization range, default 0.4/0.95\n"
      "  --fixed-routing  hop-count routing instead of randomized weights\n"
      "  --policy P       port scheduler: fifo (default) | prio | drr\n"
      "  --traffic T      arrival process: poisson (default) | cbr | onoff\n"
      "  --priority-classes N  flow classes for prio/drr, default 1\n"
      "  --mixed-scenarios     draw (policy, traffic) per sample");

  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1.0));
  const std::string topo_name = args.get("topo", std::string("geant2"));
  if (args.has("nodes") && topo_name != "ba") {
    std::cerr << "error: --nodes only applies to --topo ba\n";
    return 2;
  }
  const std::size_t nodes = args.get("nodes", std::size_t{50});
  data::TopologySampler sampler;
  std::string topo_label;
  if (topo_name == "mix") {
    sampler = data::mixed_topology();
    topo_label = "mix";
  } else {
    topo::Topology base = parse_topology(topo_name, seed, nodes);
    topo_label = base.name();
    sampler = data::fixed_topology(std::move(base));
  }

  data::GeneratorConfig cfg;
  cfg.p_tiny_queue = args.get("p-tiny", 0.5);
  cfg.target_packets = args.get("packets", std::size_t{100'000});
  cfg.util_lo = args.get("util-lo", 0.4);
  cfg.util_hi = args.get("util-hi", 0.95);
  cfg.randomize_routing = !args.has("fixed-routing");

  const std::string policy_s = args.get("policy", std::string("fifo"));
  const auto policy = sim::policy_from_string(policy_s);
  if (!policy) {
    std::cerr << "error: --policy must be fifo, prio or drr (got '"
              << policy_s << "')\n";
    return 2;
  }
  cfg.scenario.policy = *policy;
  const std::string traffic_s = args.get("traffic", std::string("poisson"));
  const auto traffic = sim::traffic_from_string(traffic_s);
  if (!traffic) {
    std::cerr << "error: --traffic must be poisson, cbr or onoff (got '"
              << traffic_s << "')\n";
    return 2;
  }
  cfg.scenario.traffic = *traffic;
  cfg.scenario.priority_classes = static_cast<std::uint32_t>(
      args.get("priority-classes", std::size_t{1}));
  cfg.mixed_scenarios = args.has("mixed-scenarios");
  cfg.validate();

  const std::size_t count = args.get("count", std::size_t{100});
  const std::size_t threads = args.get("threads", std::size_t{1});
  const std::size_t shards = args.get("shards", std::size_t{0});
  const std::string out = args.get("out", std::string());
  if (shards > 0 && out.empty()) {
    std::cerr << "error: --shards needs --out (the manifest path)\n";
    return 2;
  }

  std::optional<std::ofstream> digests;
  if (const auto dig = args.get("digests", std::string()); !dig.empty()) {
    digests.emplace(dig);
    if (!*digests) {
      std::cerr << "error: cannot open " << dig << "\n";
      return 1;
    }
  }
  std::optional<util::CsvWriter> csv;
  if (const auto path = args.get("csv", std::string()); !path.empty())
    csv.emplace(path, data::dataset_csv_header());

  std::cout << "generating " << count << " samples on " << topo_label
            << " (seed " << seed << ", policy " << sim::to_string(*policy)
            << ", traffic " << sim::to_string(*traffic)
            << (cfg.mixed_scenarios ? ", mixed" : "") << ", threads "
            << threads;
  if (shards > 0) std::cout << ", shards " << shards;
  std::cout << ")...\n";

  const auto progress = [](std::size_t done, std::size_t total) {
    if (done % 25 == 0 || done == total)
      std::cout << "  " << done << "/" << total << "\n";
  };
  // Interrupt discipline: handlers latch the signal; the sink (ordered,
  // serialized) polls it between samples and unwinds, so the store is
  // finalized from the committed prefix — every artifact on disk stays
  // complete and loadable, just shorter.  Stale *.tmp twins from an
  // earlier hard crash are swept before generating.
  util::install_interrupt_handlers();
  if (!out.empty())
    util::remove_stale_temps(
        std::filesystem::path(out).parent_path().string());

  util::Stopwatch watch;
  std::size_t total_paths = 0;
  std::size_t committed = 0;
  bool interrupted = false;
  const auto feed_side_outputs = [&](std::size_t i, const data::Sample& s) {
    if (util::interrupt_requested()) throw Interrupted{};
    total_paths += s.paths.size();
    if (digests) *digests << hex_digest(data::io::sample_digest(s)) << "\n";
    if (csv) data::append_csv_rows(*csv, s, i);
    committed = i + 1;
  };

  if (shards > 0) {
    const std::size_t per_shard = (count + shards - 1) / shards;
    data::ShardWriter writer(out, std::max<std::size_t>(per_shard, 1), seed,
                             data::config_digest(cfg));
    try {
      data::generate_dataset_stream(
          sampler, count, cfg, seed, threads,
          [&](std::size_t i, data::Sample s) {
            feed_side_outputs(i, s);
            writer.add(s);
          },
          progress);
    } catch (const Interrupted&) {
      interrupted = true;
    }
    // finish() flushes the buffered partial shard and writes the
    // manifest atomically: interrupted or not, the store is valid.
    const data::ShardManifest manifest = writer.finish();
    std::cout << "done in " << watch.seconds() << " s (" << total_paths
              << " paths)\n";
    std::cout << "sharded store written: " << out << " ("
              << manifest.shards.size() << " shards, "
              << manifest.total_samples << " samples)\n";
  } else {
    std::vector<data::Sample> samples(count);
    try {
      data::generate_dataset_stream(
          sampler, count, cfg, seed, threads,
          [&](std::size_t i, data::Sample s) {
            feed_side_outputs(i, s);
            samples[i] = std::move(s);
          },
          progress);
    } catch (const Interrupted&) {
      interrupted = true;
      samples.resize(committed);  // ordered commit: the prefix is whole
    }
    const data::Dataset ds(std::move(samples));
    std::cout << "done in " << watch.seconds() << " s (" << total_paths
              << " paths)\n";
    if (!out.empty() && (!interrupted || !ds.empty())) {
      ds.save(out);
      std::cout << "dataset written: " << out << "\n";
    }
  }
  if (interrupted)
    std::cout << "interrupted: committed prefix finalized (" << committed
              << "/" << count << " samples)\n";
  if (csv) std::cout << "csv written: " << csv->path() << "\n";
  if (digests) {
    // The digest file is the determinism artifact CI diffs — a silently
    // truncated one (disk full) must fail the run, not pass as empty.
    digests->flush();
    if (!*digests) {
      std::cerr << "error: write failed on "
                << args.get("digests", std::string()) << "\n";
      return 1;
    }
    std::cout << "digests written: " << args.get("digests", std::string())
              << "\n";
  }
  if (!args.has("out") && !args.has("csv") && !args.has("digests"))
    std::cout << "(no --out/--csv/--digests given: dry run)\n";
  return interrupted ? util::interrupt_exit_code() : 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // Bad topology specs and out-of-range generator configs surface as
    // clean diagnostics instead of std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

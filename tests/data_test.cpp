// Tests for src/data: generation determinism, schema validation, scaling,
// dataset persistence and caching.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/normalize.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;
using data::Dataset;
using data::GeneratorConfig;
using data::Sample;
using data::Scaler;

GeneratorConfig fast_config() {
  GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  return cfg;
}

Dataset tiny_dataset(std::size_t n = 4, std::uint64_t seed = 7) {
  return Dataset(
      data::generate_dataset(topo::ring(4), n, fast_config(), seed));
}

// ---- generator ---------------------------------------------------------------

TEST(Generator, SampleIsStructurallyValid) {
  const Dataset ds = tiny_dataset(2);
  for (const auto& s : ds.samples()) {
    EXPECT_NO_THROW(s.validate());
    EXPECT_EQ(s.num_nodes, 4u);
    EXPECT_EQ(s.num_links(), 8u);
    EXPECT_EQ(s.paths.size(), 12u);  // all ordered pairs of 4 nodes
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const Dataset a = tiny_dataset(3, 11);
  const Dataset b = tiny_dataset(3, 11);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].queue_pkts, b[i].queue_pkts);
    ASSERT_EQ(a[i].paths.size(), b[i].paths.size());
    for (std::size_t p = 0; p < a[i].paths.size(); ++p) {
      EXPECT_DOUBLE_EQ(a[i].paths[p].traffic_bps, b[i].paths[p].traffic_bps);
      EXPECT_DOUBLE_EQ(a[i].paths[p].mean_delay_s,
                       b[i].paths[p].mean_delay_s);
    }
  }
}

TEST(Generator, PrefixProperty) {
  // The first k samples of a count=n run equal a count=k run.
  const Dataset big = tiny_dataset(4, 13);
  const Dataset small = tiny_dataset(2, 13);
  for (std::size_t i = 0; i < small.size(); ++i)
    EXPECT_DOUBLE_EQ(big[i].paths[0].mean_delay_s,
                     small[i].paths[0].mean_delay_s);
}

TEST(Generator, SeedsProduceDifferentScenarios) {
  const Dataset a = tiny_dataset(1, 1);
  const Dataset b = tiny_dataset(1, 2);
  EXPECT_NE(a[0].paths[0].traffic_bps, b[0].paths[0].traffic_bps);
}

TEST(Generator, QueueMixRespectsProbabilities) {
  GeneratorConfig cfg = fast_config();
  cfg.p_tiny_queue = 0.0;
  Dataset all_std(
      data::generate_dataset(topo::ring(4), 2, cfg, 3));
  for (const auto& s : all_std.samples())
    for (const auto q : s.queue_pkts)
      EXPECT_EQ(q, topo::kStandardQueuePackets);

  cfg.p_tiny_queue = 1.0;
  Dataset all_tiny(
      data::generate_dataset(topo::ring(4), 2, cfg, 3));
  for (const auto& s : all_tiny.samples())
    for (const auto q : s.queue_pkts) EXPECT_EQ(q, topo::kTinyQueuePackets);
}

TEST(Generator, UtilizationTargetRecorded) {
  GeneratorConfig cfg = fast_config();
  cfg.util_lo = 0.6;
  cfg.util_hi = 0.7;
  const Dataset ds(data::generate_dataset(topo::ring(4), 3, cfg, 5));
  for (const auto& s : ds.samples()) {
    EXPECT_GE(s.max_utilization, 0.6);
    EXPECT_LE(s.max_utilization, 0.7);
  }
}

TEST(Generator, LabelsAreUsable) {
  const Dataset ds = tiny_dataset(3, 17);
  std::size_t usable = 0;
  for (const auto& s : ds.samples())
    for (const auto& p : s.paths)
      if (p.delivered >= 10 && p.mean_delay_s > 0.0) ++usable;
  // The vast majority of paths should carry usable labels.
  EXPECT_GT(usable, ds.total_paths() * 8 / 10);
}

TEST(Generator, ProgressCallbackFires) {
  std::size_t calls = 0;
  (void)data::generate_dataset(topo::ring(4), 3, fast_config(), 1,
                               [&](std::size_t done, std::size_t total) {
                                 ++calls;
                                 EXPECT_LE(done, total);
                               });
  EXPECT_EQ(calls, 3u);
}

// ---- generator config validation (DESIGN.md §S) ------------------------------

TEST(GeneratorValidation, RejectsOutOfRangeTinyQueueProbability) {
  GeneratorConfig cfg = fast_config();
  cfg.p_tiny_queue = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.p_tiny_queue = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The throw must fire on generation too, not only on direct validate().
  util::RngStream rng(1);
  EXPECT_THROW((void)data::generate_sample(topo::ring(4), cfg, rng),
               std::invalid_argument);
}

TEST(GeneratorValidation, RejectsNonPositivePacketSize) {
  GeneratorConfig cfg = fast_config();
  cfg.mean_packet_bits = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.mean_packet_bits = -8000.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(GeneratorValidation, RejectsZeroTargetPackets) {
  GeneratorConfig cfg = fast_config();
  cfg.target_packets = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(GeneratorValidation, RejectsInvertedUtilizationRange) {
  GeneratorConfig cfg = fast_config();
  cfg.util_lo = 0.9;
  cfg.util_hi = 0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(GeneratorValidation, RejectsBadScenario) {
  GeneratorConfig cfg = fast_config();
  cfg.scenario.priority_classes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---- scenario recording ------------------------------------------------------

TEST(GeneratorScenario, RecordsScenarioAndClasses) {
  GeneratorConfig cfg = fast_config();
  cfg.scenario.policy = rnx::sim::SchedulerPolicy::kDrr;
  cfg.scenario.traffic = rnx::sim::TrafficProcess::kOnOff;
  cfg.scenario.priority_classes = 3;
  const Dataset ds(data::generate_dataset(topo::ring(4), 2, cfg, 19));
  bool saw_nonzero_class = false;
  for (const auto& s : ds.samples()) {
    EXPECT_TRUE(s.scenario_recorded);
    EXPECT_EQ(s.scenario.policy, rnx::sim::SchedulerPolicy::kDrr);
    EXPECT_EQ(s.scenario.traffic, rnx::sim::TrafficProcess::kOnOff);
    EXPECT_EQ(s.scenario.priority_classes, 3u);
    for (const auto& p : s.paths) {
      EXPECT_LT(p.priority_class, 3u);
      saw_nonzero_class |= p.priority_class != 0;
    }
    EXPECT_NO_THROW(s.validate());
  }
  EXPECT_TRUE(saw_nonzero_class);  // 12 paths x 2 samples over 3 classes
}

TEST(GeneratorScenario, MixedModeSpansCombinations) {
  GeneratorConfig cfg = fast_config();
  cfg.mixed_scenarios = true;
  cfg.scenario.priority_classes = 2;
  const Dataset ds(data::generate_dataset(topo::ring(4), 12, cfg, 23));
  std::set<std::uint8_t> policies, traffics;
  for (const auto& s : ds.samples()) {
    EXPECT_TRUE(s.scenario_recorded);
    policies.insert(static_cast<std::uint8_t>(s.scenario.policy));
    traffics.insert(static_cast<std::uint8_t>(s.scenario.traffic));
  }
  // 12 uniform draws over 3 values miss a value with prob ~3*(2/3)^12.
  EXPECT_GE(policies.size(), 2u);
  EXPECT_GE(traffics.size(), 2u);
}

TEST(GeneratorScenario, ScenarioSurvivesSaveLoadRoundTrip) {
  const std::string path = "/tmp/rnx_scenario_roundtrip.rnxd";
  GeneratorConfig cfg = fast_config();
  cfg.scenario.policy = rnx::sim::SchedulerPolicy::kStrictPriority;
  cfg.scenario.traffic = rnx::sim::TrafficProcess::kCbr;
  cfg.scenario.priority_classes = 2;
  const Dataset ds(data::generate_dataset(topo::ring(4), 2, cfg, 29));
  ds.save(path);
  const Dataset loaded = Dataset::load(path);
  ASSERT_EQ(loaded.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(loaded[i].scenario_recorded);
    EXPECT_EQ(loaded[i].scenario, ds[i].scenario);
    ASSERT_EQ(loaded[i].paths.size(), ds[i].paths.size());
    for (std::size_t p = 0; p < ds[i].paths.size(); ++p)
      EXPECT_EQ(loaded[i].paths[p].priority_class,
                ds[i].paths[p].priority_class);
  }
  std::filesystem::remove(path);
}

// Hand-written v1 file (the pre-scenario-engine layout): must load with
// the default scenario and scenario_recorded = false.
TEST(GeneratorScenario, V1DatasetsStillLoadWithoutScenario) {
  const std::string path = "/tmp/rnx_v1_dataset.rnxd";
  {
    std::ofstream f(path, std::ios::binary);
    auto put = [&f](const auto& v) {
      f.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    f.write("RNXD", 4);
    put(std::uint32_t{1});  // version 1
    put(std::uint64_t{1});  // one sample
    put(std::uint32_t{2});  // topo_name "v1"
    f.write("v1", 2);
    put(std::uint32_t{2});  // num_nodes
    put(std::uint64_t{1});  // one link: 0 -> 1
    put(std::uint32_t{0});
    put(std::uint32_t{1});
    put(std::uint64_t{1});  // capacities
    put(double{1e6});
    put(std::uint64_t{2});  // queues
    put(std::uint32_t{8});
    put(std::uint32_t{8});
    put(double{0.5});       // max_utilization
    put(std::uint64_t{1});  // one path
    put(std::uint32_t{0});  // src
    put(std::uint32_t{1});  // dst
    put(std::uint64_t{2});  // nodes
    put(std::uint32_t{0});
    put(std::uint32_t{1});
    put(std::uint64_t{1});  // links
    put(std::uint32_t{0});
    put(double{1e5});       // traffic_bps (no priority_class byte in v1)
    put(double{1e-3});      // mean_delay_s
    put(double{1e-6});      // jitter_s2
    put(double{0.0});       // loss_rate
    put(std::uint64_t{100});  // delivered
  }
  const Dataset loaded = Dataset::load(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FALSE(loaded[0].scenario_recorded);
  EXPECT_EQ(loaded[0].scenario, rnx::sim::ScenarioConfig{});
  EXPECT_EQ(loaded[0].paths[0].priority_class, 0u);
  EXPECT_DOUBLE_EQ(loaded[0].paths[0].mean_delay_s, 1e-3);
  EXPECT_EQ(loaded[0].paths[0].delivered, 100u);
  std::filesystem::remove(path);
}

// ---- sample validation ----------------------------------------------------------

TEST(SampleValidate, DetectsCorruption) {
  Dataset ds = tiny_dataset(1);
  Sample s = ds[0];
  EXPECT_NO_THROW(s.validate());
  Sample broken = s;
  broken.queue_pkts.pop_back();
  EXPECT_THROW(broken.validate(), std::runtime_error);
  broken = s;
  broken.paths[0].links[0] = 999;
  EXPECT_THROW(broken.validate(), std::runtime_error);
  broken = s;
  broken.paths[0].nodes.front() = broken.paths[0].nodes.back();
  EXPECT_THROW(broken.validate(), std::runtime_error);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, kNaN, kInf}) {
    broken = s;
    broken.link_capacity_bps[0] = bad;
    EXPECT_THROW(broken.validate(), std::runtime_error) << bad;
  }
  for (const double bad : {-1.0, kNaN, kInf}) {
    broken = s;
    broken.paths[0].traffic_bps = bad;
    EXPECT_THROW(broken.validate(), std::runtime_error) << bad;
  }
  for (const double bad : {-0.1, 1.1, kNaN, kInf}) {
    broken = s;
    broken.paths[0].loss_rate = bad;
    EXPECT_THROW(broken.validate(), std::runtime_error) << bad;
  }
  broken = s;
  broken.paths[0].priority_class = 9;  // >= scenario.priority_classes
  EXPECT_THROW(broken.validate(), std::runtime_error);
  broken = s;
  broken.scenario.onoff_duty = 2.0;
  EXPECT_THROW(broken.validate(), std::runtime_error);
}

TEST(SampleToTopology, RoundTripsAttributes) {
  const Dataset ds = tiny_dataset(1);
  const Sample& s = ds[0];
  const topo::Topology t = s.to_topology();
  EXPECT_EQ(t.num_nodes(), s.num_nodes);
  EXPECT_EQ(t.num_links(), s.num_links());
  for (topo::LinkId l = 0; l < t.num_links(); ++l)
    EXPECT_DOUBLE_EQ(t.link_capacity(l), s.link_capacity_bps[l]);
  for (topo::NodeId n = 0; n < t.num_nodes(); ++n)
    EXPECT_EQ(t.queue_size(n), s.queue_pkts[n]);
}

// ---- scaler -------------------------------------------------------------------

TEST(Scaler, NormalizesToZeroMeanUnitVar) {
  const Dataset ds = tiny_dataset(6, 23);
  const Scaler sc = Scaler::fit(ds.samples());
  double sum = 0.0, ss = 0.0;
  std::size_t n = 0;
  for (const auto& s : ds.samples())
    for (const auto& p : s.paths) {
      const double z = sc.traffic(p.traffic_bps);
      sum += z;
      ss += z * z;
      ++n;
    }
  EXPECT_NEAR(sum / n, 0.0, 1e-9);
  EXPECT_NEAR(ss / n, 1.0, 1e-6);
}

TEST(Scaler, DelayTransformRoundTrips) {
  const Dataset ds = tiny_dataset(4, 29);
  const Scaler sc = Scaler::fit(ds.samples());
  for (const double d : {1e-4, 1e-3, 5e-3})
    EXPECT_NEAR(sc.target_to_delay(sc.delay_to_target(d)), d, 1e-12);
  EXPECT_THROW((void)sc.delay_to_target(0.0), std::invalid_argument);
}

TEST(Scaler, DegenerateChannelFallsBackToUnitScale) {
  GeneratorConfig cfg = fast_config();
  cfg.randomize_queues = false;       // all queues identical
  cfg.randomize_capacities = false;   // all capacities identical
  const Dataset ds(data::generate_dataset(topo::ring(4), 2, cfg, 31));
  const Scaler sc = Scaler::fit(ds.samples());
  EXPECT_DOUBLE_EQ(sc.queue_moments().stddev, 1.0);
  EXPECT_DOUBLE_EQ(sc.capacity_moments().stddev, 1.0);
}

TEST(Scaler, EmptyLabelsThrow) {
  std::vector<Sample> none;
  EXPECT_THROW(Scaler::fit(none), std::invalid_argument);
}

// ---- dataset container / persistence ----------------------------------------

TEST(Dataset, SplitAndShuffle) {
  Dataset ds = tiny_dataset(6, 37);
  const auto [a, b] = ds.split(2);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_THROW(ds.split(7), std::invalid_argument);

  util::RngStream rng(1);
  Dataset shuffled = ds;
  shuffled.shuffle(rng);
  EXPECT_EQ(shuffled.size(), ds.size());
  // Same multiset of samples (compare a stable fingerprint).
  auto fp = [](const Dataset& d) {
    std::vector<double> v;
    for (const auto& s : d.samples()) v.push_back(s.paths[0].traffic_bps);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(fp(shuffled), fp(ds));
}

TEST(Dataset, SaveLoadRoundTrip) {
  const std::string path = "/tmp/rnx_dataset_test.rnxd";
  const Dataset ds = tiny_dataset(3, 41);
  ds.save(path);
  const Dataset loaded = Dataset::load(path);
  ASSERT_EQ(loaded.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded[i].topo_name, ds[i].topo_name);
    EXPECT_EQ(loaded[i].queue_pkts, ds[i].queue_pkts);
    ASSERT_EQ(loaded[i].paths.size(), ds[i].paths.size());
    for (std::size_t p = 0; p < ds[i].paths.size(); ++p) {
      EXPECT_EQ(loaded[i].paths[p].nodes, ds[i].paths[p].nodes);
      EXPECT_DOUBLE_EQ(loaded[i].paths[p].mean_delay_s,
                       ds[i].paths[p].mean_delay_s);
      EXPECT_EQ(loaded[i].paths[p].delivered, ds[i].paths[p].delivered);
    }
  }
  std::filesystem::remove(path);
}

TEST(Dataset, LoadRejectsGarbage) {
  const std::string path = "/tmp/rnx_dataset_garbage.rnxd";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a dataset at all";
  }
  EXPECT_THROW(Dataset::load(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(Dataset::load("/tmp/rnx_missing.rnxd"), std::runtime_error);
}

TEST(Dataset, CsvExportHasHeaderAndRows) {
  const std::string path = "/tmp/rnx_dataset_test.csv";
  const Dataset ds = tiny_dataset(2, 43);
  ds.export_csv(path);
  std::ifstream f(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(f, line)) ++lines;
  EXPECT_EQ(lines, 1 + ds.total_paths());
  std::filesystem::remove(path);
}

TEST(Dataset, LoadOrGenerateCaches) {
  const std::string path = "/tmp/rnx_cache_test/dir/ds.rnxd";
  std::filesystem::remove_all("/tmp/rnx_cache_test");
  std::size_t generator_calls = 0;
  auto gen = [&] {
    ++generator_calls;
    return tiny_dataset(2, 47);
  };
  const Dataset a = data::load_or_generate(path, 2, gen);
  EXPECT_EQ(generator_calls, 1u);
  const Dataset b = data::load_or_generate(path, 2, gen);
  EXPECT_EQ(generator_calls, 1u);  // served from cache
  EXPECT_EQ(b.size(), 2u);
  // Size mismatch forces regeneration.
  const Dataset c = data::load_or_generate(path, 3, [&] {
    ++generator_calls;
    return tiny_dataset(3, 47);
  });
  EXPECT_EQ(generator_calls, 2u);
  EXPECT_EQ(c.size(), 3u);
  std::filesystem::remove_all("/tmp/rnx_cache_test");
}

}  // namespace

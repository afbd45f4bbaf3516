// Multi-bundle serving: registry routing, v1/v2 bundle coexistence in
// one process, shared plan cache across engines, and stats conservation
// (DESIGN.md §B2).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/serialize.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

const data::Dataset& test_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 4, gen, 23));
  }();
  return ds;
}

core::ModelConfig small_config(std::uint64_t seed = 5) {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 2;
  mc.init_seed = seed;
  return mc;
}

serve::ModelBundle make_bundle(core::ModelConfig mc,
                               core::PredictionTarget target =
                                   core::PredictionTarget::kDelay) {
  serve::ModelBundle b;
  b.model = core::make_model(core::ModelKind::kExtended, mc);
  b.scaler = data::Scaler::fit(test_dataset().samples(), 5);
  b.target = target;
  b.min_delivered = 5;
  return b;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Mirror of save_bundle's v1 layout (pre-scenario: no scenario byte).
void write_v1_bundle(const std::string& path, const core::Model& model,
                     const data::Scaler& scaler) {
  std::ostringstream body(std::ios::binary);
  auto put = [&body](const auto& v) {
    body.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint8_t{1});   // kind: ext
  put(std::uint8_t{0});   // target: delay
  put(std::uint64_t{5});  // min_delivered
  const core::ModelConfig& mc = model.config();
  put(static_cast<std::uint64_t>(mc.state_dim));
  put(static_cast<std::uint64_t>(mc.readout_hidden));
  put(static_cast<std::uint64_t>(mc.iterations));
  put(static_cast<std::uint8_t>(mc.node_rule));
  put(static_cast<std::uint8_t>(mc.node_mean_aggregation ? 1 : 0));
  put(static_cast<std::uint8_t>(mc.fused_gru ? 1 : 0));
  put(mc.init_seed);
  for (const data::Moments* m :
       {&scaler.traffic_moments(), &scaler.capacity_moments(),
        &scaler.queue_moments(), &scaler.log_delay_moments(),
        &scaler.log_jitter_moments()}) {
    put(m->mean);
    put(m->stddev);
  }
  const nn::NamedParams params = model.named_params();
  nn::save_params(body, params);
  const std::string bytes = body.str();
  std::ofstream f(path, std::ios::binary);
  f.write("RNXB", 4);
  const std::uint32_t version = 1;
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const auto size = static_cast<std::uint64_t>(bytes.size());
  f.write(reinterpret_cast<const char*>(&size), sizeof(size));
  const std::uint64_t sum = fnv1a64(bytes);
  f.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

serve::SchedulerConfig manual_cfg(std::size_t depth = 64) {
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = depth;
  cfg.max_batch_samples = 8;
  cfg.max_linger = std::chrono::microseconds(0);  // everything is ready
  cfg.manual_drain = true;
  return cfg;
}

TEST(ServeRegistry, UnknownModelNameIsATypedError) {
  serve::ModelRegistry registry;
  registry.add("delay", make_bundle(small_config()));

  EXPECT_EQ(registry.find("jitter"), nullptr);
  try {
    (void)registry.at("jitter");
    FAIL() << "unknown name accepted";
  } catch (const serve::UnknownModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("jitter"), std::string::npos) << what;
    EXPECT_NE(what.find("delay"), std::string::npos)
        << "should list registered names: " << what;
  }

  // Scheduler-level routing sheds with the kUnknownModel value.
  serve::BatchScheduler sched(manual_cfg());
  serve::Submitted sub =
      sched.submit(registry, "jitter", std::span(&test_dataset()[0], 1));
  EXPECT_EQ(sub.error, serve::ServeError::kUnknownModel);
  EXPECT_FALSE(sub.result.valid());
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.shed, 1u);
}

TEST(ServeRegistry, RejectsEmptyAndDuplicateNames) {
  serve::ModelRegistry registry;
  EXPECT_THROW(registry.add("", make_bundle(small_config())),
               std::invalid_argument);
  registry.add("m", make_bundle(small_config()));
  EXPECT_THROW(registry.add("m", make_bundle(small_config())),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"m"});
}

// One process serving a pre-scenario v1 bundle next to a v2
// scenario-featured bundle: both route, each keeps its own contract
// (the v1 model serves legacy samples; the feature-gated v2 model
// refuses them with the descriptive single-path error).
TEST(ServeRegistry, V1AndV2BundlesCoexistInOneRegistry) {
  const std::string v1_path = "/tmp/rnx_registry_v1.rnxb";
  const data::Dataset& ds = test_dataset();
  core::ModelConfig v1_mc = small_config(7);
  const std::unique_ptr<core::Model> v1_model =
      core::make_model(core::ModelKind::kExtended, v1_mc);
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
  write_v1_bundle(v1_path, *v1_model, scaler);

  serve::ModelRegistry registry;
  registry.add("legacy", v1_path);
  core::ModelConfig v2_mc = small_config(9);
  v2_mc.scenario_features = true;
  registry.add("scenario", make_bundle(v2_mc));

  EXPECT_FALSE(registry.at("legacy").model().config().scenario_features);
  EXPECT_TRUE(registry.at("scenario").model().config().scenario_features);

  serve::BatchScheduler sched(manual_cfg(), registry.pool());
  data::Sample legacy_sample = ds[0];
  legacy_sample.scenario_recorded = false;  // as loaded from a v1 dataset

  // v1 model: serves the legacy sample, bitwise equal to direct predict.
  serve::Submitted v1 =
      sched.submit(registry, "legacy", std::span(&legacy_sample, 1));
  // v2 feature-gated model: must refuse the same sample through the
  // batch path with the same descriptive error as the single path.
  serve::Submitted v2 =
      sched.submit(registry, "scenario", std::span(&legacy_sample, 1));
  // v2 model with a scenario-recording sample: serves fine.
  serve::Submitted v2ok =
      sched.submit(registry, "scenario", std::span(&ds[1], 1));
  sched.flush();

  EXPECT_EQ(v1.result.get()[0],
            registry.at("legacy").predict(legacy_sample));
  std::string single_path_error;
  try {
    (void)registry.at("scenario").predict(legacy_sample);
  } catch (const std::runtime_error& e) {
    single_path_error = e.what();
  }
  ASSERT_NE(single_path_error.find("scenario"), std::string::npos);
  try {
    (void)v2.result.get();
    FAIL() << "feature-gated model served a scenario-less sample";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), single_path_error);
  }
  EXPECT_EQ(v2ok.result.get()[0],
            registry.at("scenario").predict(ds[1]));

  const serve::ServeStats st = sched.stats();
  // All three requests shared one batch: the gated failure stayed with
  // its own request while its batch-mates on both engines completed.
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 1u);
  std::filesystem::remove(v1_path);
}

TEST(ServeRegistry, StatsCountersAreConserved) {
  serve::ModelRegistry registry;
  registry.add("a", make_bundle(small_config(5)));
  registry.add("b", make_bundle(small_config(6)));
  const data::Dataset& ds = test_dataset();

  serve::BatchScheduler sched(manual_cfg(/*depth=*/3));
  std::vector<serve::Submitted> subs;
  for (std::size_t i = 0; i < 6; ++i)
    subs.push_back(sched.submit(registry, i % 2 ? "b" : "a",
                                std::span(&ds[i % ds.size()], 1)));
  std::size_t shed = 0;
  for (const serve::Submitted& s : subs)
    if (s.error == serve::ServeError::kOverloaded) ++shed;
  EXPECT_EQ(shed, 3u);  // depth 3, six arrivals, no drain in between

  sched.flush();
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.submitted, 6u);
  EXPECT_EQ(st.admitted + st.shed, st.submitted);  // enqueued == done + shed
  EXPECT_EQ(st.shed, 3u);
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.in_flight(),
            st.admitted);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.queue_depth, 0u);
  for (serve::Submitted& s : subs) {
    if (s.admitted()) {
      EXPECT_FALSE(s.result.get().empty());
    }
  }
}

// The registry's one plan cache serves every engine: a scenario queried
// against several bundles pays build_plan once (core::PlanCache sharing).
TEST(ServeRegistry, EnginesShareOnePlanCache) {
  serve::ModelRegistry registry;
  registry.add("delay", make_bundle(small_config(5)));
  registry.add("delay2", make_bundle(small_config(6)));
  const data::Dataset& ds = test_dataset();

  serve::BatchScheduler sched(manual_cfg());
  serve::Submitted a =
      sched.submit(registry, "delay", std::span(&ds[0], 1));
  serve::Submitted b =
      sched.submit(registry, "delay2", std::span(&ds[0], 1));
  sched.flush();
  a.result.get();
  b.result.get();

  const core::PlanCache::Stats pc = registry.plan_cache().stats();
  EXPECT_EQ(pc.size, 1u);    // same sample, same use_nodes: one entry
  EXPECT_EQ(pc.misses, 1u);  // built once...
  EXPECT_GE(pc.hits, 1u);    // ...reused by the second engine
}

// The registry's cache keys plans by sample address, so a caller that
// overwrites a served sample in place calls invalidate() before serving
// it again; the mutated sample is then served exactly as an engine
// without a cache serves it.
TEST(ServeRegistry, InvalidateAfterInPlaceMutation) {
  serve::ModelRegistry registry;
  registry.add("delay", make_bundle(small_config(5)));
  const data::Dataset& ds = test_dataset();
  serve::BatchScheduler sched(manual_cfg());

  data::Sample sample = ds[0];
  serve::Submitted first =
      sched.submit(registry, "delay", std::span(&sample, 1));
  sched.flush();
  (void)first.result.get();

  sample = ds[1];  // same object, another routing
  registry.invalidate(sample);
  serve::Submitted second =
      sched.submit(registry, "delay", std::span(&sample, 1));
  sched.flush();
  const serve::InferenceEngine uncached(make_bundle(small_config(5)));
  EXPECT_EQ(second.result.get()[0], uncached.predict(ds[1]));

  const core::PlanCache::Stats pc = registry.plan_cache().stats();
  EXPECT_EQ(pc.hits, 0u);    // the old routing's plan was never served...
  EXPECT_EQ(pc.misses, 2u);  // ...the new one was built after invalidate()
}

}  // namespace

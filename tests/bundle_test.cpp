// Model bundles (.rnxb) and the serving layer: a bundle must carry the
// complete inference contract (weights, scaler moments, config, kind,
// target), reject corruption loudly, and — the deployment bug this
// subsystem fixes — reproduce in-memory predictions bit for bit without
// ever re-fitting a scaler from a dataset.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "serve/inference.hpp"
#include "topo/zoo.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rnx;

// Small queue-varied dataset: enough simulated packets for stable labels,
// small enough to keep the suite fast.
const data::Dataset& test_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 4, gen, 11));
  }();
  return ds;
}

core::ModelConfig small_config() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 2;
  mc.init_seed = 5;
  return mc;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), {}};
}
void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Mirror of the bundle checksum so tests can corrupt a body byte and
// re-seal the header (offsets: magic 4, version 4, size 8, checksum 8).
constexpr std::size_t kBodyOffset = 24;
constexpr std::size_t kChecksumOffset = 16;
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}
void reseal(std::string& file) {
  const std::uint64_t sum = fnv1a64(std::string_view(file).substr(kBodyOffset));
  for (std::size_t i = 0; i < 8; ++i)
    file[kChecksumOffset + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
}

struct SavedBundle {
  std::string path;
  std::unique_ptr<core::Model> model;
  data::Scaler scaler;
};

SavedBundle make_saved_bundle(
    const std::string& path,
    core::ModelKind kind = core::ModelKind::kExtended) {
  const data::Dataset& ds = test_dataset();
  SavedBundle out{path, core::make_model(kind, small_config()),
                  data::Scaler::fit(ds.samples(), 5)};
  serve::save_bundle(path, *out.model, out.scaler,
                     core::PredictionTarget::kDelay, 5);
  return out;
}

constexpr core::ModelKind kBothKinds[] = {core::ModelKind::kOriginal,
                                          core::ModelKind::kExtended};

TEST(Bundle, RoundTripPreservesEverything) {
  for (const core::ModelKind kind : kBothKinds) {
    SCOPED_TRACE(core::to_string(kind));
    const std::string path = "/tmp/rnx_bundle_roundtrip.rnxb";
    const SavedBundle saved = make_saved_bundle(path, kind);

    const serve::ModelBundle loaded = serve::load_bundle(path);
    ASSERT_TRUE(loaded.model != nullptr);
    EXPECT_EQ(loaded.kind(), kind);
    EXPECT_EQ(loaded.target, core::PredictionTarget::kDelay);
    EXPECT_EQ(loaded.min_delivered, 5u);

    const core::ModelConfig& mc = loaded.model->config();
    EXPECT_EQ(mc.state_dim, 8u);
    EXPECT_EQ(mc.readout_hidden, 12u);
    EXPECT_EQ(mc.iterations, 2u);
    EXPECT_EQ(mc.init_seed, 5u);

    // Scaler moments: bitwise.
    const auto expect_same = [](const data::Moments& a, const data::Moments& b) {
      EXPECT_EQ(a.mean, b.mean);
      EXPECT_EQ(a.stddev, b.stddev);
    };
    expect_same(loaded.scaler.traffic_moments(),
                saved.scaler.traffic_moments());
    expect_same(loaded.scaler.capacity_moments(),
                saved.scaler.capacity_moments());
    expect_same(loaded.scaler.queue_moments(), saved.scaler.queue_moments());
    expect_same(loaded.scaler.log_delay_moments(),
                saved.scaler.log_delay_moments());
    expect_same(loaded.scaler.log_jitter_moments(),
                saved.scaler.log_jitter_moments());

    // Weights: bitwise.
    const nn::NamedParams pa = saved.model->named_params();
    const nn::NamedParams pb = loaded.model->named_params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first);
      const auto& ta = pa[i].second.value();
      const auto& tb = pb[i].second.value();
      ASSERT_EQ(ta.size(), tb.size());
      for (std::size_t j = 0; j < ta.size(); ++j)
        EXPECT_EQ(ta.flat()[j], tb.flat()[j]);
    }
    std::filesystem::remove(path);
  }
}

// The regression the bundle subsystem exists for: deployment must not
// depend on re-fitting the scaler — bundle-loaded inference equals
// fresh in-memory inference on the training set bit for bit.
TEST(Bundle, LoadedInferenceBitwiseIdenticalToInMemory) {
  for (const core::ModelKind kind : kBothKinds) {
    SCOPED_TRACE(core::to_string(kind));
    const std::string path = "/tmp/rnx_bundle_bitwise.rnxb";
    const SavedBundle saved = make_saved_bundle(path, kind);
    const data::Dataset& ds = test_dataset();

    const serve::InferenceEngine engine(path);
    for (const auto& sample : ds.samples()) {
      const nn::NoGradGuard guard;
      const nn::Tensor direct =
          saved.model->forward(sample, saved.scaler).value();
      const std::vector<double> served = engine.predict(sample);
      ASSERT_EQ(served.size(), static_cast<std::size_t>(direct.rows()));
      for (std::size_t i = 0; i < served.size(); ++i)
        EXPECT_EQ(served[i], saved.scaler.target_to_delay(direct(i, 0)));
    }
    std::filesystem::remove(path);
  }
}

TEST(Bundle, MissingFileRejected) {
  EXPECT_THROW((void)serve::load_bundle("/tmp/rnx_no_such_bundle.rnxb"),
               std::runtime_error);
}

TEST(Bundle, BadMagicRejected) {
  const std::string path = "/tmp/rnx_bundle_badmagic.rnxb";
  spit(path, "definitely not a bundle file, long enough to have a header");
  try {
    (void)serve::load_bundle(path);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Bundle, TruncatedFileRejected) {
  const std::string path = "/tmp/rnx_bundle_truncated.rnxb";
  make_saved_bundle(path);
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() / 2);
  spit(path, bytes);
  EXPECT_THROW((void)serve::load_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Bundle, ChecksumMismatchRejected) {
  const std::string path = "/tmp/rnx_bundle_bitrot.rnxb";
  make_saved_bundle(path);
  std::string bytes = slurp(path);
  bytes[bytes.size() - 9] ^= 0x40;  // flip one weight bit, keep the header
  spit(path, bytes);
  try {
    (void)serve::load_bundle(path);
    FAIL() << "corrupt body accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Bundle, OversizedBodyRejected) {
  const std::string path = "/tmp/rnx_bundle_hugebody.rnxb";
  make_saved_bundle(path);
  std::string bytes = slurp(path);
  // Claim a ~2^60-byte body: must fail on the bound, not allocate.
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = '\0';
  bytes[12] = bytes[13] = bytes[14] = '\0';
  bytes[15] = 0x10;
  spit(path, bytes);
  EXPECT_THROW((void)serve::load_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
}

// Mirrors DatasetRobustness.SaveIsAtomic: a save that fails mid-write
// must leave the previous good bundle in place and no temp file behind.
TEST(Bundle, SaveIsAtomic) {
  namespace fs = std::filesystem;
  const std::string dir = "/tmp/rnx_bundle_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/m.rnxb";
  const SavedBundle good = make_saved_bundle(path);
  const data::Sample& sample = test_dataset().samples()[0];
  const std::vector<double> want = serve::InferenceEngine(path).predict(sample);

  core::ModelConfig other = small_config();
  other.init_seed = 99;
  const auto replacement = core::make_model(core::ModelKind::kExtended, other);
  util::FaultInjector::instance().configure("io.atomic.write=nth:1");
  EXPECT_THROW(serve::save_bundle(path, *replacement, good.scaler,
                                  core::PredictionTarget::kDelay, 5),
               std::runtime_error);
  const std::uint64_t fired =
      util::FaultInjector::instance().fired("io.atomic.write");
  util::FaultInjector::instance().reset();
  EXPECT_EQ(fired, 1u);

  EXPECT_EQ(serve::InferenceEngine(path).predict(sample), want);
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  fs::remove_all(dir);
}

TEST(Bundle, WrongModelKindRejected) {
  const std::string path = "/tmp/rnx_bundle_badkind.rnxb";
  make_saved_bundle(path);
  std::string bytes = slurp(path);
  bytes[kBodyOffset] = 7;  // neither orig (0) nor ext (1)
  reseal(bytes);           // keep the checksum valid: kind check must fire
  spit(path, bytes);
  try {
    (void)serve::load_bundle(path);
    FAIL() << "invalid model kind accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("model kind"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// ---- scenario feature gating (DESIGN.md §S) -----------------------------

// A v2 bundle must round-trip the scenario_features flag.
TEST(Bundle, ScenarioFeatureFlagRoundTrips) {
  const std::string path = "/tmp/rnx_bundle_scenario.rnxb";
  const data::Dataset& ds = test_dataset();
  core::ModelConfig mc = small_config();
  mc.scenario_features = true;  // state_dim 8 >= kScenarioFeatureMinDim
  const core::Model model(core::ModelKind::kExtended, mc);
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
  serve::save_bundle(path, model, scaler, core::PredictionTarget::kDelay, 5);
  const serve::ModelBundle loaded = serve::load_bundle(path);
  EXPECT_TRUE(loaded.model->config().scenario_features);
  std::filesystem::remove(path);
}

// A bundle trained with scenario features must refuse — descriptively,
// not as UB or silent zeros — to serve samples that record no scenario.
TEST(Bundle, ScenarioModelRefusesFeaturelessSamples) {
  const std::string path = "/tmp/rnx_bundle_gating.rnxb";
  const data::Dataset& ds = test_dataset();
  core::ModelConfig mc = small_config();
  mc.scenario_features = true;
  const core::Model model(core::ModelKind::kExtended, mc);
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
  serve::save_bundle(path, model, scaler, core::PredictionTarget::kDelay, 5);

  const serve::InferenceEngine engine(path);
  data::Sample legacy = ds[0];
  legacy.scenario_recorded = false;  // as loaded from a v1 dataset
  try {
    (void)engine.predict(legacy);
    FAIL() << "feature-less sample accepted by scenario-feature model";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario"), std::string::npos)
        << e.what();
  }
  // Samples that do record a scenario serve fine.
  EXPECT_NO_THROW((void)engine.predict(ds[0]));
  std::filesystem::remove(path);
}

TEST(Bundle, ScenarioFeaturesNeedWideEnoughState) {
  core::ModelConfig mc = small_config();
  mc.state_dim = 3;  // < kScenarioFeatureMinDim
  mc.scenario_features = true;
  EXPECT_THROW(core::Model m(core::ModelKind::kExtended, mc), std::invalid_argument);
  EXPECT_THROW((void)core::make_model(core::ModelKind::kOriginal, mc),
               std::invalid_argument);
}

// Scenario features change predictions (the channels are really read).
TEST(Bundle, ScenarioFeaturesEnterTheForwardPass) {
  const data::Dataset& ds = test_dataset();
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
  core::ModelConfig mc = small_config();
  const core::Model plain(core::ModelKind::kExtended, mc);
  mc.scenario_features = true;
  const core::Model featured(core::ModelKind::kExtended, mc);

  data::Sample drr = ds[0];
  drr.scenario.policy = rnx::sim::SchedulerPolicy::kDrr;
  const nn::NoGradGuard guard;
  // Same weights, same sample: the policy one-hot must shift outputs...
  const double fifo_pred = featured.forward(ds[0], scaler).value()(0, 0);
  const double drr_pred = featured.forward(drr, scaler).value()(0, 0);
  EXPECT_NE(fifo_pred, drr_pred);
  // ...while the feature-less model is blind to the scenario change.
  const double plain_a = plain.forward(ds[0], scaler).value()(0, 0);
  const double plain_b = plain.forward(drr, scaler).value()(0, 0);
  EXPECT_EQ(plain_a, plain_b);
}

// Hand-written v1 bundle (pre-scenario layout, no scenario_features
// byte): must load with the flag off and serve bitwise-identically to
// the same weights in memory.
TEST(Bundle, V1BundlesLoadAndServeBitwiseIdentically) {
  const std::string path = "/tmp/rnx_bundle_v1.rnxb";
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);

  // Mirror save_bundle's v1 writer: v2 minus the scenario byte.
  std::ostringstream body(std::ios::binary);
  auto put = [&body](const auto& v) {
    body.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint8_t{1});  // kind: ext
  put(std::uint8_t{0});  // target: delay
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
  {
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

  const serve::ModelBundle loaded = serve::load_bundle(path);
  EXPECT_FALSE(loaded.model->config().scenario_features);
  EXPECT_EQ(loaded.min_delivered, 5u);
  const serve::InferenceEngine engine(path);
  for (const auto& sample : ds.samples()) {
    const nn::NoGradGuard guard;
    const nn::Tensor direct = model.forward(sample, scaler).value();
    const std::vector<double> served = engine.predict(sample);
    ASSERT_EQ(served.size(), static_cast<std::size_t>(direct.rows()));
    for (std::size_t i = 0; i < served.size(); ++i)
      EXPECT_EQ(served[i], scaler.target_to_delay(direct(i, 0)));
  }
  std::filesystem::remove(path);
}

TEST(Bundle, V3FeatureFlagsRoundTrip) {
  for (const core::ModelKind kind : kBothKinds) {
    SCOPED_TRACE(core::to_string(kind));
    const std::string path = "/tmp/rnx_bundle_v3_flags.rnxb";
    const data::Dataset& ds = test_dataset();
    core::ModelConfig mc = small_config();
    mc.scale_invariant_features = true;
    mc.link_mean_aggregation = true;
    const core::Model model(kind, mc);
    const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
    serve::save_bundle(path, model, scaler, core::PredictionTarget::kDelay, 5);
    const serve::ModelBundle loaded = serve::load_bundle(path);
    EXPECT_TRUE(loaded.model->config().scale_invariant_features);
    EXPECT_TRUE(loaded.model->config().link_mean_aggregation);
    // And the loaded engine serves the scale-invariant forward bitwise.
    const serve::InferenceEngine engine(path);
    const nn::NoGradGuard guard;
    const nn::Tensor direct = model.forward(ds[0], scaler).value();
    const std::vector<double> served = engine.predict(ds[0]);
    ASSERT_EQ(served.size(), static_cast<std::size_t>(direct.rows()));
    for (std::size_t i = 0; i < served.size(); ++i)
      EXPECT_EQ(served[i], scaler.target_to_delay(direct(i, 0)));
    std::filesystem::remove(path);
  }
}

// Hand-written v2 bundle (scenario byte present, no v3 feature bytes):
// must load with both v3 flags off and serve bitwise-identically.
TEST(Bundle, V2BundlesLoadWithV3FlagsOff) {
  const std::string path = "/tmp/rnx_bundle_v2.rnxb";
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);

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
  put(std::uint8_t{0});  // scenario_features (the v2 addition)
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
  {
    std::ofstream f(path, std::ios::binary);
    f.write("RNXB", 4);
    const std::uint32_t version = 2;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const auto size = static_cast<std::uint64_t>(bytes.size());
    f.write(reinterpret_cast<const char*>(&size), sizeof(size));
    const std::uint64_t sum = fnv1a64(bytes);
    f.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const serve::ModelBundle loaded = serve::load_bundle(path);
  EXPECT_FALSE(loaded.model->config().scale_invariant_features);
  EXPECT_FALSE(loaded.model->config().link_mean_aggregation);
  const serve::InferenceEngine engine(path);
  const nn::NoGradGuard guard;
  const nn::Tensor direct = model.forward(ds[0], scaler).value();
  const std::vector<double> served = engine.predict(ds[0]);
  ASSERT_EQ(served.size(), static_cast<std::size_t>(direct.rows()));
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_EQ(served[i], scaler.target_to_delay(direct(i, 0)));
  std::filesystem::remove(path);
}

TEST(Engine, BatchMatchesSingleAndReusesPlans) {
  const std::string path = "/tmp/rnx_bundle_engine_batch.rnxb";
  make_saved_bundle(path);
  const data::Dataset& ds = test_dataset();

  const serve::InferenceEngine engine(path);
  util::ThreadPool pool(2);
  const std::vector<std::vector<double>> batch =
      engine.predict_batch(ds.samples(), &pool);
  ASSERT_EQ(batch.size(), ds.size());
  for (std::size_t si = 0; si < ds.size(); ++si)
    EXPECT_EQ(batch[si], engine.predict(ds[si]));
  std::filesystem::remove(path);
}

// A standalone engine builds its plan on every forward, so the what-if
// loop may overwrite a request sample in place and predict again: the
// second answer is the new routing's, never a plan remembered by address.
TEST(Engine, StandaloneEngineSeesInPlaceMutation) {
  const std::string path = "/tmp/rnx_bundle_engine_mutate.rnxb";
  const SavedBundle saved = make_saved_bundle(path);
  const data::Dataset& ds = test_dataset();
  ASSERT_EQ(ds[0].paths.size(), ds[1].paths.size());
  bool rerouted = false;
  for (std::size_t p = 0; p < ds[0].paths.size(); ++p)
    rerouted |= ds[0].paths[p].links != ds[1].paths[p].links;
  ASSERT_TRUE(rerouted) << "test needs two different routings";

  const serve::InferenceEngine engine(path);
  data::Sample sample = ds[0];
  (void)engine.predict(sample);
  sample = ds[1];  // same object, another routing
  const std::vector<double> served = engine.predict(sample);

  const nn::NoGradGuard guard;
  const nn::Tensor direct = saved.model->forward(sample, saved.scaler).value();
  ASSERT_EQ(served.size(), static_cast<std::size_t>(direct.rows()));
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_EQ(served[i], saved.scaler.target_to_delay(direct(i, 0)));
  std::filesystem::remove(path);
}

TEST(Engine, ConcurrentPredictIsDeterministic) {
  const std::string path = "/tmp/rnx_bundle_engine_mt.rnxb";
  make_saved_bundle(path);
  const data::Dataset& ds = test_dataset();

  const serve::InferenceEngine engine(path);
  std::vector<std::vector<double>> expected;
  expected.reserve(ds.size());
  for (const auto& s : ds.samples()) expected.push_back(engine.predict(s));

  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep)
        for (std::size_t si = 0; si < ds.size(); ++si)
          if (engine.predict(ds[si]) != expected[si]) ++failures[t];
    });
  for (auto& th : threads) th.join();
  for (const int f : failures) EXPECT_EQ(f, 0);
  std::filesystem::remove(path);
}

}  // namespace

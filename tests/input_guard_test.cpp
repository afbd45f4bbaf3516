// A non-finite input feature is a typed error at the model boundary.
//
// Without the guard, one path's NaN traffic reached every path through
// the link and node sums, and the readout's ReLU mapped NaN to 0, so all
// predictions of the sample silently read the readout's output bias.
// Model::forward now throws std::invalid_argument naming the entity; the
// inference engine passes it on, and the scheduler fails only the request
// that carried the sample.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/autograd.hpp"
#include "serve/inference.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

const data::Dataset& nsfnet_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 3, gen, 41));
  }();
  return ds;
}

core::ModelConfig small_config(bool scale_invariant) {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 8;
  mc.iterations = 2;
  mc.init_seed = 5;
  mc.scale_invariant_features = scale_invariant;
  return mc;
}

serve::ModelBundle make_bundle() {
  serve::ModelBundle b;
  b.model = core::make_model(core::ModelKind::kExtended, small_config(false));
  b.scaler = data::Scaler::fit(nsfnet_dataset().samples(), 5);
  b.target = core::PredictionTarget::kDelay;
  b.min_delivered = 5;
  return b;
}

/// One corruption of a sample and the entity the error must name.
struct Corruption {
  const char* what;
  std::function<void(data::Sample&)> apply;
  const char* entity;
};

std::vector<Corruption> corruptions() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      {"NaN traffic", [=](data::Sample& s) { s.paths[3].traffic_bps = kNaN; },
       "path 3"},
      {"inf traffic", [=](data::Sample& s) { s.paths[7].traffic_bps = kInf; },
       "path 7"},
      {"NaN capacity",
       [=](data::Sample& s) { s.link_capacity_bps[5] = kNaN; }, "link 5"},
      {"-inf capacity",
       [=](data::Sample& s) { s.link_capacity_bps[2] = -kInf; }, "link 2"},
  };
}

/// The message of the std::invalid_argument fn throws, or "" if it throws
/// nothing.
std::string invalid_argument_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ModelInputGuards, ForwardNamesTheNonFiniteEntity) {
  const data::Scaler scaler = data::Scaler::fit(nsfnet_dataset().samples(), 5);
  for (const core::ModelKind kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    const core::Model model(kind, small_config(false));
    for (const Corruption& c : corruptions()) {
      SCOPED_TRACE(std::string(c.what) + " kind=" + model.name());
      data::Sample bad = nsfnet_dataset()[0];
      c.apply(bad);
      const std::string msg = invalid_argument_message([&] {
        const nn::NoGradGuard guard;
        (void)model.forward(bad, scaler);
      });
      EXPECT_NE(msg.find(std::string(c.entity) + " has a non-finite"),
                std::string::npos)
          << msg;
    }
  }
}

// The scale-invariant features divide traffic by capacity; a non-finite
// traffic still names its path there.
TEST(ModelInputGuards, ScaleInvariantFeaturesAreGuardedToo) {
  const data::Scaler scaler = data::Scaler::fit(nsfnet_dataset().samples(), 5);
  const core::Model model(core::ModelKind::kExtended, small_config(true));
  data::Sample bad = nsfnet_dataset()[0];
  bad.paths[3].traffic_bps = std::numeric_limits<double>::quiet_NaN();
  const std::string msg = invalid_argument_message([&] {
    const nn::NoGradGuard guard;
    (void)model.forward(bad, scaler);
  });
  EXPECT_NE(msg.find("path 3 has a non-finite"), std::string::npos) << msg;
}

TEST(ModelInputGuards, InferenceEnginePredictThrows) {
  const serve::InferenceEngine engine(make_bundle());
  for (const Corruption& c : corruptions()) {
    SCOPED_TRACE(c.what);
    data::Sample bad = nsfnet_dataset()[1];
    c.apply(bad);
    const std::string msg =
        invalid_argument_message([&] { (void)engine.predict(bad); });
    EXPECT_NE(msg.find(c.entity), std::string::npos) << msg;
  }
  // The engine still serves clean samples.
  EXPECT_EQ(engine.predict(nsfnet_dataset()[1]).size(),
            nsfnet_dataset()[1].paths.size());
}

// Three requests in one batch: only the middle one carries a bad input,
// and only its future throws; its neighbours resolve to the serial
// answers.  Admission now rejects a non-finite traffic or capacity
// before it takes a batch slot (ServeAdmission.*), so the bad input here
// is one only the forward checks: a link id past the sample's links.
TEST(ModelInputGuards, SchedulerFailsOnlyTheBadRequest) {
  const serve::InferenceEngine engine(make_bundle());
  serve::SchedulerConfig cfg;
  cfg.max_batch_samples = 3;
  cfg.manual_drain = true;
  serve::BatchScheduler sched(cfg);
  const data::Dataset& ds = nsfnet_dataset();
  data::Sample bad = ds[1];
  bad.paths[0].links[0] = static_cast<topo::LinkId>(bad.num_links() + 7);

  serve::Submitted a = sched.submit(engine, {&ds[0], 1});
  serve::Submitted b = sched.submit(engine, {&bad, 1});
  serve::Submitted c = sched.submit(engine, {&ds[2], 1});
  ASSERT_TRUE(a.admitted() && b.admitted() && c.admitted());
  EXPECT_EQ(sched.pump(), 1u);  // the third request fills one batch

  EXPECT_EQ(a.result.get()[0], engine.predict(ds[0]));
  EXPECT_EQ(c.result.get()[0], engine.predict(ds[2]));
  EXPECT_THROW((void)b.result.get(), std::out_of_range);
  const serve::ServeStats st = sched.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 1u);
}

}  // namespace

// Admission validation (DESIGN.md §B2): a request with a sample the
// forward cannot answer meaningfully is refused at submit() with
// ServeError::kInvalidRequest, before it takes a queue slot or a batch
// slot.  The refusal is counted as shed (and as invalid), so
// submitted == admitted + shed still holds, and the requests around it
// resolve to the serial answers.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "serve/inference.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

const data::Dataset& dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 3, gen, 43));
  }();
  return ds;
}

serve::ModelBundle make_bundle() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 8;
  mc.iterations = 2;
  mc.init_seed = 9;
  serve::ModelBundle b;
  b.model = core::make_model(core::ModelKind::kExtended, mc);
  b.scaler = data::Scaler::fit(dataset().samples(), 5);
  b.target = core::PredictionTarget::kDelay;
  b.min_delivered = 5;
  return b;
}

struct Mutation {
  const char* what;
  std::function<void(data::Sample&)> apply;
};

std::vector<Mutation> mutations() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      {"NaN traffic", [=](data::Sample& s) { s.paths[3].traffic_bps = kNaN; }},
      {"inf traffic", [=](data::Sample& s) { s.paths[8].traffic_bps = kInf; }},
      {"negative traffic",
       [](data::Sample& s) { s.paths[0].traffic_bps = -1.0; }},
      {"zero capacity", [](data::Sample& s) { s.link_capacity_bps[4] = 0.0; }},
      {"negative capacity",
       [](data::Sample& s) { s.link_capacity_bps[1] = -10e6; }},
      {"NaN capacity",
       [=](data::Sample& s) { s.link_capacity_bps[6] = kNaN; }},
      {"inf capacity", [=](data::Sample& s) { s.link_capacity_bps[2] = kInf; }},
      {"empty path",
       [](data::Sample& s) {
         s.paths[5].links.clear();
         s.paths[5].nodes.resize(1);
       }},
  };
}

serve::SchedulerConfig manual_cfg() {
  serve::SchedulerConfig cfg;
  cfg.max_batch_samples = 8;
  cfg.manual_drain = true;
  return cfg;
}

/// Submit good, bad, good through `submit` and check the refusal, the
/// neighbours' answers and the counters.
void check_rejected(
    const serve::InferenceEngine& engine, serve::BatchScheduler& sched,
    const std::function<serve::Submitted(std::span<const data::Sample>)>&
        submit) {
  const data::Dataset& ds = dataset();
  for (const Mutation& m : mutations()) {
    SCOPED_TRACE(m.what);
    const serve::ServeStats before = sched.stats();
    data::Sample bad = ds[1];
    m.apply(bad);
    serve::Submitted a = submit({&ds[0], 1});
    serve::Submitted b = submit({&bad, 1});
    // A request is refused whole when any of its samples is invalid.
    const std::vector<data::Sample> mixed{ds[2], bad};
    serve::Submitted c = submit(mixed);
    serve::Submitted d = submit({&ds[2], 1});
    EXPECT_TRUE(a.admitted());
    EXPECT_EQ(b.error, serve::ServeError::kInvalidRequest);
    EXPECT_FALSE(b.result.valid());
    EXPECT_EQ(c.error, serve::ServeError::kInvalidRequest);
    EXPECT_TRUE(d.admitted());
    EXPECT_EQ(sched.flush(), 1u);
    EXPECT_EQ(a.result.get(), (serve::PredictionSet{engine.predict(ds[0])}));
    EXPECT_EQ(d.result.get(), (serve::PredictionSet{engine.predict(ds[2])}));

    const serve::ServeStats st = sched.stats();
    EXPECT_EQ(st.submitted - before.submitted, 4u);
    EXPECT_EQ(st.admitted - before.admitted, 2u);
    EXPECT_EQ(st.shed - before.shed, 2u);
    EXPECT_EQ(st.invalid - before.invalid, 2u);
    EXPECT_EQ(st.completed - before.completed, 2u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.submitted, st.admitted + st.shed);
    EXPECT_EQ(st.in_flight(), 0u);
  }
}

TEST(ServeAdmission, EngineSubmitRejectsInvalidSamples) {
  const serve::InferenceEngine engine(make_bundle());
  serve::BatchScheduler sched(manual_cfg());
  check_rejected(engine, sched, [&](std::span<const data::Sample> s) {
    return sched.submit(engine, s);
  });
}

TEST(ServeAdmission, RegistrySubmitRejectsInvalidSamples) {
  serve::ModelRegistry registry(2);
  const serve::InferenceEngine& engine = registry.add("ext", make_bundle());
  serve::BatchScheduler sched(manual_cfg(), registry.pool());
  check_rejected(engine, sched, [&](std::span<const data::Sample> s) {
    return sched.submit(registry, "ext", s);
  });
}

// Zero traffic is a valid input (an idle path), and queue sizes are not
// checked: an original-kind model never reads them.
TEST(ServeAdmission, ZeroTrafficIsAdmitted) {
  const serve::InferenceEngine engine(make_bundle());
  serve::BatchScheduler sched(manual_cfg());
  data::Sample idle = dataset()[0];
  idle.paths[2].traffic_bps = 0.0;
  serve::Submitted sub = sched.submit(engine, {&idle, 1});
  ASSERT_TRUE(sub.admitted());
  EXPECT_EQ(sched.flush(), 1u);
  EXPECT_EQ(sub.result.get(), (serve::PredictionSet{engine.predict(idle)}));
  EXPECT_EQ(sched.stats().invalid, 0u);
}

TEST(ServeAdmission, ErrorHasAName) {
  EXPECT_EQ(std::string(serve::to_string(serve::ServeError::kInvalidRequest)),
            "invalid-request");
}

}  // namespace

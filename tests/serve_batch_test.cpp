// predict_batch coverage: empty batches, ragged sample sizes,
// feature-gating and error order through the serial and the pooled batch
// path, and concurrent batch calls sharing one caller-owned pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "serve/inference.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rnx;

const data::Dataset& nsfnet_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 3, gen, 29));
  }();
  return ds;
}

serve::ModelBundle make_bundle(bool scenario_features = false) {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 2;
  mc.init_seed = 5;
  mc.scenario_features = scenario_features;
  serve::ModelBundle b;
  b.model = core::make_model(core::ModelKind::kExtended, mc);
  b.scaler = data::Scaler::fit(nsfnet_dataset().samples(), 5);
  b.target = core::PredictionTarget::kDelay;
  b.min_delivered = 5;
  return b;
}

TEST(ServeBatch, EmptyBatchReturnsEmpty) {
  const serve::InferenceEngine engine(make_bundle());
  EXPECT_TRUE(engine.predict_batch({}).empty());
}

// Samples with different path counts (different topologies) ride in one
// batch; every output vector has its own sample's length and value.
TEST(ServeBatch, RaggedSampleSizesInOneBatch) {
  const serve::InferenceEngine engine(make_bundle());
  data::GeneratorConfig gen;
  gen.target_packets = 20'000;
  const data::Dataset line_ds(
      data::generate_dataset(topo::line(4), 2, gen, 31));

  std::vector<data::Sample> mixed;
  mixed.push_back(nsfnet_dataset()[0]);
  mixed.push_back(line_ds[0]);
  mixed.push_back(nsfnet_dataset()[1]);
  mixed.push_back(line_ds[1]);
  ASSERT_NE(mixed[0].paths.size(), mixed[1].paths.size())
      << "test needs genuinely ragged samples";

  const std::vector<std::vector<double>> batch = engine.predict_batch(mixed);
  ASSERT_EQ(batch.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(batch[i].size(), mixed[i].paths.size());
    EXPECT_EQ(batch[i], engine.predict(mixed[i]));
  }
}

// A feature-gated bundle must reject scenario-less samples through the
// batch path with the same descriptive error as the single path — and
// deterministically (first bad sample in sample order), not whichever
// lane happened to fail first.  A later sample fails with another error
// type, so the pooled batch pins the order, not just the message.
TEST(ServeBatch, FeatureGateErrorIsIdenticalThroughBatchPath) {
  util::ThreadPool two(2);
  for (util::ThreadPool* const pool :
       std::initializer_list<util::ThreadPool*>{nullptr, &two}) {
    SCOPED_TRACE(pool == nullptr ? "serial" : "pool=2");
    const serve::InferenceEngine engine(
        make_bundle(/*scenario_features=*/true));
    std::vector<data::Sample> mixed(nsfnet_dataset().samples().begin(),
                                    nsfnet_dataset().samples().end());
    mixed[1].scenario_recorded = false;  // as loaded from a v1 dataset
    mixed[2].paths[0].links[0] =         // std::out_of_range on its own
        static_cast<std::uint32_t>(mixed[2].num_links());

    std::string single_path_error;
    try {
      (void)engine.predict(mixed[1]);
    } catch (const std::runtime_error& e) {
      single_path_error = e.what();
    }
    ASSERT_NE(single_path_error.find("scenario"), std::string::npos)
        << single_path_error;

    try {
      (void)engine.predict_batch(mixed, pool);
      FAIL() << "batch path served a scenario-less sample";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), single_path_error);
    }
    // Scenario-recording batches serve fine.
    EXPECT_EQ(engine.predict_batch(nsfnet_dataset().samples(), pool).size(),
              nsfnet_dataset().size());
  }
}

// The first engine serialized concurrent predict_batch calls on one
// mutex; a private scheduler later coalesced them.  Now each call fans
// out on the caller's pool, or runs inline while another call holds it.
// Concurrent calls must neither deadlock nor change a single bit of
// output.
TEST(ServeBatch, ConcurrentBatchCallsCoalesceAndStayBitwiseIdentical) {
  const serve::InferenceEngine engine(make_bundle());
  util::ThreadPool pool(2);
  const data::Dataset& ds = nsfnet_dataset();
  std::vector<std::vector<double>> expected;
  for (const data::Sample& s : ds.samples()) expected.push_back(engine.predict(s));

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        const std::vector<std::vector<double>> got =
            engine.predict_batch(ds.samples(), &pool);
        if (got.size() != ds.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i)
          if (got[i] != expected[i]) ++mismatches;
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace

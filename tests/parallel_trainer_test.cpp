// The data-parallel training engine: bitwise determinism across thread
// counts, replica cloning, batch-fill gradient scaling, and parallel
// batched inference.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rnx;

// Small but non-trivial dataset: ring topology keeps the simulator fast
// while producing multi-hop paths for real message passing.
const data::Dataset& tiny_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 4'000;
    return data::Dataset(
        data::generate_dataset(topo::ring(6), /*count=*/6, gen, /*seed=*/99));
  }();
  return ds;
}

const data::Scaler& tiny_scaler() {
  static const data::Scaler sc =
      data::Scaler::fit(tiny_dataset().samples());
  return sc;
}

core::ModelConfig small_model_config() {
  core::ModelConfig mc;
  mc.state_dim = 6;
  mc.readout_hidden = 8;
  mc.iterations = 2;
  return mc;
}

std::vector<nn::Tensor> train_and_snapshot(std::size_t threads,
                                           std::size_t batch_samples,
                                           bool fused = true) {
  core::ModelConfig mc = small_model_config();
  mc.fused_gru = fused;
  core::Model model(core::ModelKind::kExtended, mc);
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_samples = batch_samples;
  tc.min_delivered = 1;
  tc.threads = threads;
  tc.verbose = false;
  core::Trainer trainer(model, tc);
  (void)trainer.fit(tiny_dataset(), tiny_scaler());
  std::vector<nn::Tensor> out;
  for (const auto& [n, v] : model.named_params()) out.push_back(v.value());
  return out;
}

void expect_identical(const std::vector<nn::Tensor>& a,
                      const std::vector<nn::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_TRUE(a[t].same_shape(b[t]));
    for (std::size_t i = 0; i < a[t].size(); ++i)
      EXPECT_EQ(a[t].flat()[i], b[t].flat()[i])
          << "tensor " << t << " entry " << i;
  }
}

TEST(ParallelTrainer, BitwiseIdenticalAcrossThreadCounts) {
  const auto serial = train_and_snapshot(/*threads=*/1, /*batch=*/4);
  expect_identical(serial, train_and_snapshot(/*threads=*/2, 4));
  expect_identical(serial, train_and_snapshot(/*threads=*/4, 4));
}

// The satellite fix: a trailing partial batch must scale by its actual
// fill.  6 samples with batch 4 yields a 4-batch and a 2-batch; under the
// seed's 1/batch_samples scaling the trailer's step shrank by half, so
// batch 4 and batch 12 (one 6-batch) training disagreed even on identical
// sample -> batch assignments.  With fill scaling, batch 12 and batch 6
// see the same single full-dataset batch and must agree exactly.
TEST(ParallelTrainer, PartialBatchScalesByActualFill) {
  const auto one_batch_exact = train_and_snapshot(1, /*batch=*/6);
  const auto one_batch_padded = train_and_snapshot(1, /*batch=*/12);
  expect_identical(one_batch_exact, one_batch_padded);
}

TEST(ParallelTrainer, CloneMatchesOriginalForwardAndIsIndependent) {
  core::Model model(core::ModelKind::kExtended, small_model_config());
  const std::unique_ptr<core::Model> copy = model.clone();
  const auto& s = tiny_dataset()[0];
  const nn::NoGradGuard guard;
  const nn::Tensor a = model.forward(s, tiny_scaler()).value();
  const nn::Tensor b = copy->forward(s, tiny_scaler()).value();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.flat()[i], b.flat()[i]);
  // Independent tape nodes: nudging the copy leaves the original alone.
  nn::NamedParams cp = copy->named_params();
  cp[0].second.mutable_value()(0, 0) += 1.0;
  const nn::Tensor c = model.forward(s, tiny_scaler()).value();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.flat()[i], c.flat()[i]);
}

TEST(ParallelTrainer, ForwardBatchMatchesSequentialForward) {
  core::Model model(core::ModelKind::kOriginal, small_model_config());
  util::ThreadPool pool(3);
  const auto batched =
      model.forward_batch(tiny_dataset().samples(), tiny_scaler(), &pool);
  ASSERT_EQ(batched.size(), tiny_dataset().size());
  const nn::NoGradGuard guard;
  for (std::size_t i = 0; i < tiny_dataset().size(); ++i) {
    const nn::Tensor direct =
        model.forward(tiny_dataset()[i], tiny_scaler()).value();
    ASSERT_TRUE(batched[i].same_shape(direct));
    for (std::size_t j = 0; j < direct.size(); ++j)
      EXPECT_EQ(batched[i].flat()[j], direct.flat()[j]);
  }
}

TEST(ParallelTrainer, EvaluateLossAgreesAcrossThreadCounts) {
  core::Model model(core::ModelKind::kExtended, small_model_config());
  core::TrainConfig tc;
  tc.min_delivered = 1;
  tc.verbose = false;
  tc.threads = 1;
  const core::Trainer serial(model, tc);
  tc.threads = 4;
  const core::Trainer parallel(model, tc);
  const double a = serial.evaluate_loss(tiny_dataset(), tiny_scaler());
  const double b = parallel.evaluate_loss(tiny_dataset(), tiny_scaler());
  EXPECT_EQ(a, b);
}

}  // namespace

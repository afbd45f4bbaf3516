// Drift gate for the SIMD transcendentals on the paper's protocol.
//
// The AVX2 backend computes sigmoid and tanh from its own polynomial exp
// instead of libm, so its predictions differ from the scalar reference's
// in the last bits, and every GRU step carries that drift forward.  This
// pins how far it may go: both model kinds (the original RouteNet and the
// extended one with the node entity), state widths 8 and 10 (composed GRU
// passes at 10) and 12 and 16 (fused step kernels), T = 4, on GEANT2 and
// NSFNET samples drawn with the generator's variable queue sizes, the
// setup of Fig. 2.  Predictions are compared as delays, the quantity
// whose relative error the paper plots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;
using nn::kernels::Backend;
using nn::kernels::ScopedBackendOverride;

/// The pinned bounds; measured on AVX2 at <= 4e-13 and <= 1e-9.
constexpr double kMaxMre = 1e-11;
constexpr double kMaxRelative = 1e-8;

data::Dataset variable_queue_samples(const topo::Topology& t,
                                     std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 4'000;
  cfg.randomize_queues = true;  // the paper's queue-size variation
  return data::Dataset(data::generate_dataset(t, 2, cfg, seed));
}

std::vector<double> delays(const core::Model& model, const data::Sample& s,
                           const data::Scaler& sc, const Backend& backend) {
  const ScopedBackendOverride pin(backend);
  const nn::NoGradGuard guard;
  const nn::Tensor pred = model.forward(s, sc).value();
  std::vector<double> out(pred.rows());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = sc.target_to_delay(pred(i, 0));
  return out;
}

TEST(SimdDrift, PredictionsTrackScalarReference) {
  const Backend* simd = nn::kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "scalar-only host";
  util::set_log_level(util::LogLevel::kWarn);
  const data::Dataset geant2 = variable_queue_samples(topo::geant2(), 41);
  const data::Dataset nsfnet = variable_queue_samples(topo::nsfnet(), 42);
  // Fitted on the training topology only, as the protocol does.
  const data::Scaler sc = data::Scaler::fit(geant2.samples());

  double worst_mre = 0.0, worst_rel = 0.0;
  for (const core::ModelKind kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended})
    for (const std::size_t dim : {8, 10, 12, 16}) {
      core::ModelConfig cfg;
      cfg.state_dim = dim;
      cfg.iterations = 4;
      const core::Model model(kind, cfg);
      for (const data::Dataset* ds : {&geant2, &nsfnet}) {
        SCOPED_TRACE(model.name() + " H=" + std::to_string(dim) +
                     (ds == &geant2 ? " geant2" : " nsfnet"));
        double sum = 0.0, max_rel = 0.0;
        std::size_t count = 0;
        for (const data::Sample& s : ds->samples()) {
          const std::vector<double> ref =
              delays(model, s, sc, nn::kernels::scalar_backend());
          const std::vector<double> got = delays(model, s, sc, *simd);
          ASSERT_EQ(got.size(), ref.size());
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_TRUE(std::isfinite(got[i]));
            const double rel = std::abs(got[i] - ref[i]) / ref[i];
            sum += rel;
            max_rel = std::max(max_rel, rel);
            ++count;
          }
        }
        ASSERT_GT(count, 0u);
        const double mre = sum / static_cast<double>(count);
        EXPECT_LE(mre, kMaxMre);
        EXPECT_LE(max_rel, kMaxRelative);
        worst_mre = std::max(worst_mre, mre);
        worst_rel = std::max(worst_rel, max_rel);
      }
    }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3g / %.3g", worst_mre, worst_rel);
  RecordProperty("worst_mre_and_max_relative", buf);
}

}  // namespace

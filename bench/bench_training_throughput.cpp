// P1 — end-to-end training and inference throughput of both
// architectures on a real GEANT2 sample (552 paths): one full
// forward+backward+Adam step, and inference-only forward.
#include <benchmark/benchmark.h>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;

struct Fixture {
  data::Sample sample;
  data::Scaler scaler;
  Fixture() : scaler(make()) {}
  data::Scaler make() {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    util::RngStream rng(13);
    sample = data::generate_sample(topo::geant2(), gen, rng);
    return data::Scaler::fit({&sample, 1});
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void train_step_bench(benchmark::State& state, core::ModelKind kind) {
  core::ModelConfig mc;
  mc.state_dim = static_cast<std::size_t>(state.range(0));
  core::Model model(kind, mc);
  std::vector<nn::Var> params;
  for (auto& [n, v] : model.named_params()) params.push_back(v);
  nn::Adam opt(params, 1e-3);
  for (auto _ : state) {
    opt.zero_grad();
    nn::Var loss =
        core::Trainer::sample_loss(model, fixture().sample, fixture().scaler, 10);
    loss.backward();
    opt.clip_global_norm(10.0);
    opt.step();
    benchmark::DoNotOptimize(loss.value().item());
  }
  state.SetLabel("H=" + std::to_string(state.range(0)) +
                 ", full sample fwd+bwd+Adam");
}

void BM_TrainStepOriginal(benchmark::State& state) {
  train_step_bench(state, core::ModelKind::kOriginal);
}
BENCHMARK(BM_TrainStepOriginal)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_TrainStepExtended(benchmark::State& state) {
  train_step_bench(state, core::ModelKind::kExtended);
}
BENCHMARK(BM_TrainStepExtended)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void inference_bench(benchmark::State& state, core::ModelKind kind) {
  core::ModelConfig mc;
  mc.state_dim = 16;
  const core::Model model(kind, mc);
  const nn::NoGradGuard guard;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        model.forward(fixture().sample, fixture().scaler));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture().sample.paths.size()));
}

void BM_InferenceOriginal(benchmark::State& state) {
  inference_bench(state, core::ModelKind::kOriginal);
}
BENCHMARK(BM_InferenceOriginal)->Unit(benchmark::kMillisecond);

void BM_InferenceExtended(benchmark::State& state) {
  inference_bench(state, core::ModelKind::kExtended);
}
BENCHMARK(BM_InferenceExtended)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

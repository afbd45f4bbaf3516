// train_geant2: the paper's generalization protocol — Trainer::fit over
// an in-memory GEANT2 set on 2 lanes with batch 8, NSFNET validation
// loss every epoch, and a checkpoint every 25 optimizer steps.
//
// Each run repeats whole fits from the same initial weights until its
// time is used.  Every fit of a run must produce the same loss history
// (training is bitwise-deterministic), finite losses, and a final
// training loss below the first epoch's.
//
// The traced section rebuilds one training step from the public pieces
// the trainer is made of — Trainer::sample_loss with the tape on,
// Var::backward, the per-sample gradient merge, clip and Adam::step —
// and times eval and checkpoint writes on their own.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "nn/optimizer.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rnx;

namespace {

constexpr std::size_t kLanes = 2;
constexpr std::size_t kTrainSamples = 200;  ///< GEANT2
constexpr std::size_t kValSamples = 8;      ///< NSFNET
constexpr std::size_t kSimPackets = 10000;
constexpr std::size_t kMinDelivered = 10;
constexpr std::size_t kStateDim = 12;
constexpr std::size_t kReadoutHidden = 24;
constexpr std::size_t kIterations = 4;
constexpr std::size_t kBatchSamples = 8;
constexpr double kLr = 0.002;
constexpr std::size_t kEpochs = 2;
constexpr std::size_t kCheckpointEvery = 25;  ///< the rnx_train default
/// Set-ups per run (SetupTimer); one set-up takes about a second.
constexpr std::size_t kSetupReps = 5;
constexpr double kTailQ = 90;

struct TrainSetup {
  data::Dataset train;
  data::Dataset val;
  data::Scaler scaler;
};

TrainSetup make_setup(const RunArgs& args) {
  data::GeneratorConfig gen;
  gen.target_packets = kSimPackets;
  TrainSetup s;
  s.train = data::Dataset(data::generate_dataset(
      topo::geant2(), kTrainSamples, gen, derived_seed(args, "train.train"),
      kLanes));
  s.val = data::Dataset(data::generate_dataset(
      topo::nsfnet(), kValSamples, gen, derived_seed(args, "train.val"),
      kLanes));
  s.scaler = data::Scaler::fit(s.train.samples(), kMinDelivered);
  return s;
}

std::unique_ptr<core::Model> make_model(const RunArgs& args) {
  core::ModelConfig mc;
  mc.state_dim = kStateDim;
  mc.readout_hidden = kReadoutHidden;
  mc.iterations = kIterations;
  mc.init_seed = derived_seed(args, "train.init");
  return core::make_model(core::ModelKind::kExtended, mc);
}

core::TrainConfig train_config(const RunArgs& args, std::size_t epochs,
                               const std::string& checkpoint_dir) {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_samples = kBatchSamples;
  tc.lr = kLr;
  tc.min_delivered = kMinDelivered;
  tc.seed = derived_seed(args, "train.shuffle");
  tc.threads = kLanes;
  tc.verbose = false;
  tc.checkpoint_dir = checkpoint_dir;
  tc.checkpoint_every = kCheckpointEvery;
  return tc;
}

struct FitRun {
  double wall_s = 0;
  std::size_t samples = 0;
  std::vector<core::EpochRecord> history;
  std::vector<double> step_ms;  ///< gaps between optimizer-step boundaries
};

FitRun one_fit(const TrainSetup& s, const RunArgs& args,
               const std::string& checkpoint_dir, RunResult& out) {
  std::filesystem::remove_all(checkpoint_dir);
  std::filesystem::create_directories(checkpoint_dir);
  FitRun run;
  const std::unique_ptr<core::Model> model = make_model(args);
  core::TrainConfig tc = train_config(args, kEpochs, checkpoint_dir);
  std::int64_t last = 0;
  // Polled after every optimizer step, before that step's checkpoint:
  // the gap between polls is the step as a training loop sees it,
  // including any checkpoint write and epoch-end evaluation.
  tc.stop_requested = [&] {
    const std::int64_t t = now_ns();
    run.step_ms.push_back(static_cast<double>(t - last) * 1e-6);
    last = t;
    if (run.step_ms.size() == 2) check_threads(out);  // lanes are alive
    return false;
  };
  core::Trainer trainer(*model, tc);
  const std::int64_t start = now_ns();
  last = start;
  run.history = trainer.fit(s.train, s.scaler, &s.val);
  run.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  run.samples = kEpochs * s.train.size();
  return run;
}

/// Account the fit: every epoch's losses finite, the final training loss
/// below the first epoch's, and the same history as the run's first fit.
void check_fit(const FitRun& run, const FitRun* first, RunResult& out) {
  for (const core::EpochRecord& r : run.history) {
    out.ops.attempt();
    if (!std::isfinite(r.train_loss) || !std::isfinite(r.val_loss))
      out.ops.fail("train: non-finite loss");
  }
  out.ops.attempt();
  if (run.history.empty() ||
      !(run.history.back().train_loss < run.history.front().train_loss))
    out.ops.fail("train: final training loss not below the first epoch's");
  if (first != nullptr) {
    out.ops.attempt();
    bool same = first->history.size() == run.history.size();
    for (std::size_t e = 0; same && e < run.history.size(); ++e)
      same = first->history[e].train_loss == run.history[e].train_loss &&
             first->history[e].val_loss == run.history[e].val_loss;
    if (!same) out.ops.fail("train: fit diverged from the run's first fit");
  }
}

std::string checkpoint_dir(const RunArgs& args) {
  return args.out_dir + "/train-checkpoint";
}

}  // namespace

void run_train(const RunArgs& args, RunResult& out) {
  SetupTimer setup(args.seconds, kSetupReps);
  const TrainSetup s = setup.time([&] { return make_setup(args); });
  std::vector<FitRun> fits;
  std::vector<double> rates, step_ms;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (fits.empty() || now_ns() < deadline) {
    // Repeated set-ups between fits are only timed.
    if (setup.due()) (void)setup.time([&] { return make_setup(args); });
    fits.push_back(one_fit(s, args, checkpoint_dir(args), out));
    const FitRun& run = fits.back();
    check_fit(run, fits.size() > 1 ? &fits.front() : nullptr, out);
    rates.push_back(static_cast<double>(run.samples) / run.wall_s);
    step_ms.insert(step_ms.end(), run.step_ms.begin(), run.step_ms.end());
  }
  std::filesystem::remove_all(checkpoint_dir(args));

  setup.report(out);
  report_latency(step_ms, kTailQ, out);
  out.report.metric("throughput_per_s", median(rates), "1/s");
  const core::EpochRecord& final_epoch = fits.front().history.back();
  out.report.note("train_samples_per_s", median(rates));
  out.report.note("train_val_loss", final_epoch.val_loss);
  out.report.note("train_first_epoch_loss", fits.front().history.front().train_loss);
  out.report.note("train_final_loss", final_epoch.train_loss);
  out.report.note("fits", static_cast<double>(fits.size()));
}

void trace_train(const RunArgs& args, double seconds, RunResult& out) {
  const TrainSetup s = make_setup(args);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);

  // The real fit: lane efficiency's denominator, the validation loss and
  // the checkpoint file whose write is timed below.
  const FitRun fit = one_fit(s, args, checkpoint_dir(args), out);
  check_fit(fit, nullptr, out);

  // Serial replica of the fit's steps, one traced span per public call.
  const std::unique_ptr<core::Model> model = make_model(args);
  std::vector<nn::Var> params;
  for (auto& [name, var] : model->named_params()) params.push_back(var);
  nn::Adam opt(params, kLr);
  std::vector<std::vector<nn::Tensor>> slots(kBatchSamples);
  std::size_t samples = 0, steps = 0;
  // Batches of the fit's size, in sample order, until the fit's sample
  // count or the section's time is used up.
  for (std::size_t start = 0; start < kEpochs * s.train.size();
       start += kBatchSamples) {
    if (steps > 0 && now_ns() > deadline) break;
    const std::size_t first = start % s.train.size();
    const std::size_t fill = std::min(kBatchSamples, s.train.size() - first);
    const auto step_id = static_cast<std::uint64_t>(steps);
    const Tracer::Scope step(out.tracer, "train.step", step_id);
    std::size_t valid = 0;
    for (std::size_t i = 0; i < fill; ++i) {
      nn::Var loss;
      {
        const Tracer::Scope sp(out.tracer, "train.forward", step_id);
        loss = core::Trainer::sample_loss(*model, s.train[first + i], s.scaler,
                                          kMinDelivered);
      }
      ++samples;
      slots[i].clear();
      if (!loss.defined()) continue;
      {
        const Tracer::Scope sp(out.tracer, "train.backward", step_id);
        loss.backward();
      }
      ++valid;
      for (nn::Var& p : params) {
        slots[i].push_back(p.grad());
        p.zero_grad();
      }
    }
    ++steps;
    if (valid == 0) continue;
    for (std::size_t i = 0; i < fill; ++i)
      for (std::size_t k = 0; k < slots[i].size(); ++k)
        params[k].grad_ref().add_inplace(slots[i][k]);
    for (nn::Var& p : params)
      p.grad_ref().scale_inplace(1.0 / static_cast<double>(valid));
    const Tracer::Scope sp(out.tracer, "train.optimizer", step_id);
    opt.clip_global_norm(core::TrainConfig{}.clip_norm);
    opt.step();
    opt.zero_grad();
  }
  const auto self = out.tracer.self_ns_by_name();
  const auto us = [&](const char* name, std::size_t per) {
    const auto it = self.find(name);
    return it == self.end() || per == 0
               ? 0.0
               : static_cast<double>(it->second) * 1e-3 / static_cast<double>(per);
  };
  out.report.metric("train.forward_us", us("train.forward", samples), "us");
  out.report.metric("train.backward_us", us("train.backward", samples), "us");
  out.report.metric("train.optimizer_us", us("train.optimizer", steps), "us");
  // Serial forward+backward of every sample the real fit trained on,
  // against the lanes the fit had.
  const double serial_s =
      (us("train.forward", samples) + us("train.backward", samples)) * 1e-6 *
      static_cast<double>(fit.samples);
  out.report.metric("train.lane_efficiency",
                    serial_s / (static_cast<double>(kLanes) * fit.wall_s), "ratio");
  out.report.metric("train.val_loss", fit.history.back().val_loss, "loss");

  // Evaluation and checkpoint writes on their own (median of 3).
  core::TrainConfig tc = train_config(args, 1, "");
  const core::Trainer evaluator(*model, tc);
  std::vector<double> eval_ms, ckpt_ms;
  const std::string ckpt = core::checkpoint_file(checkpoint_dir(args));
  const core::TrainCheckpoint written = core::load_checkpoint(ckpt);
  for (int rep = 0; rep < 3; ++rep) {
    std::int64_t t0 = now_ns();
    const double loss = evaluator.evaluate_loss(s.val, s.scaler);
    eval_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    out.ops.attempt();
    if (!std::isfinite(loss)) out.ops.fail("train: non-finite evaluation loss");
    t0 = now_ns();
    core::save_checkpoint(ckpt + ".copy", written);
    ckpt_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  std::filesystem::remove_all(checkpoint_dir(args));
  out.report.metric("train.eval_ms", median(eval_ms), "ms");
  out.report.metric("train.checkpoint_ms", median(ckpt_ms), "ms");
}

}  // namespace perfbench

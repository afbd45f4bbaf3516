// Training engine: Adam over per-sample MSE on z-scored log delay, with
// gradient accumulation across a small batch of samples, global-norm
// clipping and multiplicative learning-rate decay — the recipe used by
// the RouteNet reference implementation, scaled to CPU.
//
// The engine is data-parallel over the accumulation batch (DESIGN.md §T):
// each lane owns a full model replica (weights synced after every
// optimizer step), computes forward+backward for its samples, and parks
// the per-sample gradients in per-sample slots.  At the batch boundary
// the slots are merged into the primary model's gradients in sample
// order, scaled by the number of samples that actually contributed (so a
// trailing partial batch gets the same effective learning rate as a full
// one), clipped, and stepped.  Because every per-sample gradient is
// computed from identical weights and the merge order is fixed, the
// trained weights are bitwise-identical for ANY thread count, including
// the serial path.
//
// Training and evaluation attach no plan cache: every forward builds its
// message-passing plan (core/plan.hpp), so streamed samples need no
// address-lifetime rules.  Only serve::ModelRegistry caches plans.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "nn/optimizer.hpp"
#include "util/thread_pool.hpp"

namespace rnx::data {
class SampleSource;
}

namespace rnx::core {

struct TrainConfig {
  std::size_t epochs = 25;
  std::size_t batch_samples = 8;   ///< samples per optimizer step
  double lr = 1e-3;
  double lr_decay = 0.98;          ///< multiplicative, per epoch
  double clip_norm = 10.0;         ///< global gradient-norm ceiling
  std::uint64_t min_delivered = 10;  ///< label-quality threshold
  PredictionTarget target = PredictionTarget::kDelay;
  std::uint64_t seed = 7;          ///< shuffling stream
  std::size_t patience = 0;        ///< early stop after this many epochs
                                   ///< without val improvement (0 = off)
  std::size_t threads = 1;         ///< data-parallel lanes (0 or 1 = serial)
  bool verbose = true;

  // -- crash-safe checkpointing (DESIGN.md §R) ------------------------
  /// Directory for the .rnxc checkpoint; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Optimizer steps between checkpoints (0 = end-of-epoch only).
  std::size_t checkpoint_every = 1;
  /// Resume from checkpoint_dir's checkpoint if one exists.  The
  /// checkpointed config digest and scaler must match this run's
  /// (CheckpointError otherwise); the resumed trajectory is then
  /// bitwise-identical to the uninterrupted one.
  bool resume = false;
  /// Polled after every full-batch optimizer step (an epoch's trailing
  /// partial batch is not a stop point); returning true finalizes one
  /// last checkpoint (if enabled) and exits fit cleanly with
  /// Trainer::interrupted() set — how SIGINT/SIGTERM stop training
  /// without losing the batch in flight.
  std::function<bool()> stop_requested;
};

struct EpochRecord {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double val_loss = 0.0;  ///< NaN when no validation set was given
  double seconds = 0.0;
};

class Trainer {
 public:
  Trainer(Model& model, TrainConfig cfg);

  /// Train on `train`; optionally track loss on `val` each epoch.
  /// Returns the per-epoch history.  The epoch loop of fit_stream over an
  /// in-memory source whose pass e is the run's e-th chained Fisher-Yates
  /// permutation of `train` (seeded by TrainConfig::seed).
  std::vector<EpochRecord> fit(const data::Dataset& train,
                               const data::Scaler& scaler,
                               const data::Dataset* val = nullptr);

  /// Streaming fit (DESIGN.md §D): consume `train` pass-by-pass from a
  /// SampleSource — e.g. a sharded on-disk store larger than RAM — with
  /// peak sample residency bounded by the batch size plus the source's
  /// prefetch window.  Sample ORDER is the source's (the source owns
  /// shuffling); given the same sample sequence, updates are
  /// bitwise-identical to fit for any thread count.  A checkpoint records
  /// which of fit/fit_stream wrote it, and neither resumes the other's.
  std::vector<EpochRecord> fit_stream(data::SampleSource& train,
                                      const data::Scaler& scaler,
                                      data::SampleSource* val = nullptr);

  /// Mean per-sample loss without building the tape (inference mode);
  /// parallel over the trainer's lanes.  One pass of the streaming
  /// overload over the dataset in index order.
  [[nodiscard]] double evaluate_loss(const data::Dataset& ds,
                                     const data::Scaler& scaler) const;

  /// Streaming evaluation over one pass of `src`, windowed so residency
  /// stays bounded; losses are summed in sample order, so the result is
  /// bitwise-equal to the in-memory overload on the same samples.
  [[nodiscard]] double evaluate_loss(data::SampleSource& src,
                                     const data::Scaler& scaler) const;

  /// Loss for one sample: MSE between the prediction and the z-scored
  /// log label (delay or jitter, per `target`) over the label-valid
  /// paths.  Undefined Var when the sample has no valid labels (caller
  /// must skip).
  [[nodiscard]] static nn::Var sample_loss(
      const Model& model, const data::Sample& sample,
      const data::Scaler& scaler, std::uint64_t min_delivered,
      PredictionTarget target = PredictionTarget::kDelay);

  /// True when the last fit/fit_stream returned because stop_requested
  /// fired (vs. running to completion) — the tools map this to the
  /// conventional 128+signum exit code.
  [[nodiscard]] bool interrupted() const noexcept { return interrupted_; }

 private:
  /// The one epoch loop (batching, resume, checkpoints, validation, early
  /// stop) behind fit and fit_stream; `streaming` tags its checkpoints.
  std::vector<EpochRecord> run_epochs(data::SampleSource& train,
                                      const data::Scaler& scaler,
                                      data::SampleSource* val,
                                      bool streaming);

  Model& model_;
  TrainConfig cfg_;
  nn::Adam opt_;
  mutable std::optional<util::ThreadPool> pool_;  ///< lanes > 1 only
  bool interrupted_ = false;
};

}  // namespace rnx::core

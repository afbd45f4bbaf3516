#include "core/trainer.hpp"

#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/plan.hpp"
#include "data/source.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"
#include "util/binio.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace rnx::core {

namespace {
std::vector<nn::Var> trainable(const Model& model) {
  std::vector<nn::Var> out;
  for (auto& [name, var] : model.named_params()) out.push_back(var);
  return out;
}

// Lane replicas + the per-batch optimizer step of the epoch loop.  See
// the header comment for the determinism argument: per-sample gradients
// land in per-sample slots and merge in sample order, so results do not
// depend on which lane computed what.
class BatchEngine {
 public:
  BatchEngine(Model& model, const TrainConfig& cfg, nn::Adam& opt,
              util::ThreadPool* pool)
      : model_(model),
        cfg_(cfg),
        opt_(opt),
        pool_(pool),
        lanes_(pool ? pool->size() : 1),
        slots_(std::max<std::size_t>(cfg.batch_samples, 1)) {
    // Lane replicas: lane 0 drives the primary model; lanes 1.. get
    // deep copies whose weights are re-synced after every step.
    lane_models_.push_back(&model_);
    for (std::size_t l = 1; l < lanes_; ++l) {
      replicas_.push_back(model_.clone());
      lane_models_.push_back(replicas_.back().get());
    }
    for (Model* m : lane_models_) lane_params_.push_back(trainable(*m));
  }

  void begin_epoch() {
    loss_sum_ = 0.0;
    loss_count_ = 0;
    opt_.zero_grad();
  }

  void process_batch(std::span<const data::Sample* const> batch,
                     const data::Scaler& scaler) {
    const std::size_t fill = batch.size();
    if (fill == 0) return;

    // Lane task: forward+backward each owned sample, then park the
    // gradients in the sample's slot and clear the lane's accumulators.
    // Every lane reads identical weights, so a slot's contents do not
    // depend on which lane filled it.
    const auto lane_task = [&](std::size_t lane) {
      const Model& m = *lane_models_[lane];
      std::vector<nn::Var>& params = lane_params_[lane];
      for (std::size_t i = lane; i < fill; i += lanes_) {
        SampleSlot& slot = slots_[i];
        slot.valid = false;
        slot.grads.clear();
        const nn::Var loss =
            Trainer::sample_loss(m, *batch[i], scaler, cfg_.min_delivered,
                                 cfg_.target);
        if (!loss.defined()) continue;
        loss.backward();
        slot.valid = true;
        slot.loss = loss.value().item();
        slot.grads.reserve(params.size());
        for (nn::Var& p : params) {
          slot.grads.push_back(p.grad());
          p.zero_grad();
        }
      }
    };
    if (lanes_ > 1 && fill > 1) {
      pool_->parallel_for(lanes_, lane_task);
    } else {
      lane_task(0);
    }

    // Merge in sample order (deterministic for any lane count), scale
    // by the actual batch fill — a trailing partial batch must not see
    // a silently shrunken step (the seed scaled by batch_samples).
    std::size_t valid_count = 0;
    for (std::size_t i = 0; i < fill; ++i)
      if (slots_[i].valid) ++valid_count;
    if (valid_count == 0) return;
    std::vector<nn::Var>& primary = lane_params_[0];
    for (std::size_t i = 0; i < fill; ++i) {
      if (!slots_[i].valid) continue;
      loss_sum_ += slots_[i].loss;
      ++loss_count_;
      for (std::size_t k = 0; k < primary.size(); ++k)
        primary[k].grad_ref().add_inplace(slots_[i].grads[k]);
    }
    const double inv = 1.0 / static_cast<double>(valid_count);
    for (nn::Var& p : primary) p.grad_ref().scale_inplace(inv);
    opt_.clip_global_norm(cfg_.clip_norm);
    opt_.step();
    opt_.zero_grad();
    for (auto& replica : replicas_) replica->copy_params_from(model_);
  }

  [[nodiscard]] double epoch_mean_loss() const {
    return loss_count_ ? loss_sum_ / static_cast<double>(loss_count_) : 0.0;
  }

  // In-epoch loss accumulators, exposed so a mid-epoch checkpoint can
  // carry them and a resume can put them back (begin_epoch zeroes them).
  [[nodiscard]] double epoch_loss_sum() const { return loss_sum_; }
  [[nodiscard]] std::uint64_t epoch_loss_count() const { return loss_count_; }
  void restore_epoch_loss(double sum, std::uint64_t count) {
    loss_sum_ = sum;
    loss_count_ = static_cast<std::size_t>(count);
  }

 private:
  // Per-sample gradient slots for one batch (reused across batches).
  struct SampleSlot {
    bool valid = false;
    double loss = 0.0;
    std::vector<nn::Tensor> grads;  ///< one per parameter
  };

  Model& model_;
  const TrainConfig& cfg_;
  nn::Adam& opt_;
  util::ThreadPool* pool_;
  std::size_t lanes_;
  std::vector<std::unique_ptr<Model>> replicas_;
  std::vector<Model*> lane_models_;
  std::vector<std::vector<nn::Var>> lane_params_;
  std::vector<SampleSlot> slots_;
  double loss_sum_ = 0.0;
  std::size_t loss_count_ = 0;
};

// The in-memory training source: pass e is the dataset in the run's e-th
// Fisher-Yates permutation, where each pass shuffles the order the
// previous pass produced.  The epoch order is therefore a function of the
// seed and the number of reset() calls alone — what lets a resume reach
// epoch e by replaying e passes (DESIGN.md §D, §R).
class ShuffledDatasetSource final : public data::SampleSource {
 public:
  /// `ds` must outlive the source.
  ShuffledDatasetSource(const data::Dataset& ds, std::uint64_t seed)
      : ds_(ds), rng_(seed), order_(ds.size()) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  [[nodiscard]] std::size_t size() const override { return ds_.size(); }
  void reset() override {
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1],
                order_[static_cast<std::size_t>(rng_.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    pos_ = 0;
  }
  [[nodiscard]] std::shared_ptr<const data::Sample> next() override {
    if (pos_ >= order_.size()) return nullptr;
    // Non-owning alias into the dataset's storage, as DatasetSource.
    return std::shared_ptr<const data::Sample>(std::shared_ptr<void>(),
                                               &ds_[order_[pos_++]]);
  }

 private:
  const data::Dataset& ds_;
  util::RngStream rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

// ---- crash-safe checkpointing (DESIGN.md §R) ------------------------------

// Everything the training trajectory depends on, folded into one digest.
// Resuming under ANY changed hyperparameter or dataset size is refused.
// Deliberately EXCLUDED: epochs (extending a finished run is legitimate)
// and threads (the lane count never changes the weights — DESIGN.md §T).
std::uint64_t train_digest(const Model& model, const TrainConfig& cfg,
                           bool streaming, std::uint64_t train_size) {
  std::ostringstream b(std::ios::binary);
  const auto put = [&b](const auto& v) { util::put(b, v); };
  const ModelConfig& mc = model.config();
  put(static_cast<std::uint8_t>(model.kind()));
  put(static_cast<std::uint64_t>(mc.state_dim));
  put(static_cast<std::uint64_t>(mc.readout_hidden));
  put(static_cast<std::uint64_t>(mc.iterations));
  put(static_cast<std::uint8_t>(mc.node_rule));
  put(static_cast<std::uint8_t>(mc.node_mean_aggregation));
  put(static_cast<std::uint8_t>(mc.fused_gru));
  put(static_cast<std::uint8_t>(mc.scenario_features));
  put(static_cast<std::uint8_t>(mc.scale_invariant_features));
  put(static_cast<std::uint8_t>(mc.link_mean_aggregation));
  put(mc.init_seed);
  put(static_cast<std::uint64_t>(cfg.batch_samples));
  put(cfg.lr);
  put(cfg.lr_decay);
  put(cfg.clip_norm);
  put(cfg.min_delivered);
  put(static_cast<std::uint8_t>(cfg.target));
  put(cfg.seed);
  put(static_cast<std::uint64_t>(cfg.patience));
  put(static_cast<std::uint8_t>(streaming));
  put(train_size);
  return util::fnv1a64(b.view());
}

// The scaler feeds every forward pass; a checkpointed run resumed under
// different moments would silently train a different function.  Bitwise
// equality, not tolerance — both runs fit the scaler from the same data.
void verify_scaler(const TrainCheckpoint& ck, const data::Scaler& scaler) {
  const std::array<data::Moments, 5> now = {
      scaler.traffic_moments(), scaler.capacity_moments(),
      scaler.queue_moments(), scaler.log_delay_moments(),
      scaler.log_jitter_moments()};
  static constexpr const char* kChannels[5] = {
      "traffic", "capacity", "queue", "log_delay", "log_jitter"};
  for (std::size_t i = 0; i < now.size(); ++i)
    if (now[i].mean != ck.scaler_moments[i].mean ||
        now[i].stddev != ck.scaler_moments[i].stddev)
      throw CheckpointError(
          std::string("resume refused: scaler ") + kChannels[i] +
          " moments differ from the checkpointed run (did the training "
          "set change?)");
}

// Snapshot the model + optimizer + scaler into `ck` (params in
// named_params() order, which is also the optimizer's params() order —
// trainable() builds one from the other).
void capture_train_state(const Model& model, const nn::Adam& opt,
                         const data::Scaler& scaler, TrainCheckpoint& ck) {
  ck.lr = opt.lr();
  ck.adam_t = opt.steps_taken();
  ck.scaler_moments = {scaler.traffic_moments(), scaler.capacity_moments(),
                       scaler.queue_moments(), scaler.log_delay_moments(),
                       scaler.log_jitter_moments()};
  const nn::NamedParams named = model.named_params();
  const std::vector<nn::Tensor>& m = opt.first_moments();
  const std::vector<nn::Tensor>& v = opt.second_moments();
  ck.params.reserve(named.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    TrainCheckpoint::ParamState p;
    p.name = named[i].first;
    p.value = named[i].second.value();
    p.m = m[i];
    p.v = v[i];
    ck.params.push_back(std::move(p));
  }
}

// Put a checkpoint's weights + optimizer state back, with strict
// positional name/shape matching (a digest match already guarantees the
// same architecture; this catches file-level corruption that survived
// the checksum odds).
void restore_train_state(Model& model, nn::Adam& opt,
                         const TrainCheckpoint& ck) {
  nn::NamedParams named = model.named_params();
  if (named.size() != ck.params.size())
    throw CheckpointError("resume refused: checkpoint holds " +
                          std::to_string(ck.params.size()) +
                          " parameters, model has " +
                          std::to_string(named.size()));
  std::vector<nn::Tensor> m, v;
  m.reserve(named.size());
  v.reserve(named.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    const TrainCheckpoint::ParamState& p = ck.params[i];
    if (p.name != named[i].first)
      throw CheckpointError("resume refused: parameter " +
                            std::to_string(i) + " is '" + p.name +
                            "' in the checkpoint, '" + named[i].first +
                            "' in the model");
    nn::Tensor& dst = named[i].second.mutable_value();
    if (p.value.rows() != dst.rows() || p.value.cols() != dst.cols())
      throw CheckpointError("resume refused: shape mismatch for '" +
                            p.name + "'");
    dst = p.value;
    m.push_back(p.m);
    v.push_back(p.v);
  }
  opt.restore_state(ck.adam_t, std::move(m), std::move(v));
  opt.set_lr(ck.lr);
}

}  // namespace

Trainer::Trainer(Model& model, TrainConfig cfg)
    : model_(model), cfg_(cfg), opt_(trainable(model), cfg.lr) {
  if (cfg_.threads > 1) pool_.emplace(cfg_.threads);
}

nn::Var Trainer::sample_loss(const Model& model, const data::Sample& sample,
                             const data::Scaler& scaler,
                             std::uint64_t min_delivered,
                             PredictionTarget target) {
  const std::vector<nn::Index> valid =
      valid_label_rows(sample, min_delivered, target);
  if (valid.empty()) return {};
  nn::Tensor labels(valid.size(), 1);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const auto& p = sample.paths[valid[i]];
    labels(i, 0) = target == PredictionTarget::kDelay
                       ? scaler.delay_to_target(p.mean_delay_s)
                       : scaler.jitter_to_target(p.jitter_s2);
  }
  const nn::Var pred = model.forward(sample, scaler);
  return nn::mse_loss(nn::gather_rows(pred, valid), labels);
}

std::vector<EpochRecord> Trainer::fit(const data::Dataset& train,
                                      const data::Scaler& scaler,
                                      const data::Dataset* val) {
  ShuffledDatasetSource src(train, cfg_.seed);
  std::optional<data::DatasetSource> val_src;
  if (val != nullptr) val_src.emplace(*val);
  return run_epochs(src, scaler, val_src ? &*val_src : nullptr,
                    /*streaming=*/false);
}

std::vector<EpochRecord> Trainer::fit_stream(data::SampleSource& train,
                                             const data::Scaler& scaler,
                                             data::SampleSource* val) {
  return run_epochs(train, scaler, val, /*streaming=*/true);
}

std::vector<EpochRecord> Trainer::run_epochs(data::SampleSource& train,
                                             const data::Scaler& scaler,
                                             data::SampleSource* val,
                                             bool streaming) {
  // The calling thread is lane 0, and its TensorPool keeps the largest
  // tape buffers (the path-RNN arenas) for the next sample.  Nothing
  // reuses them after the fit, so hand them back on every way out; the
  // other lanes' pools end with the Trainer's threads.
  struct DrainPool {
    DrainPool() = default;
    DrainPool(const DrainPool&) = delete;
    DrainPool& operator=(const DrainPool&) = delete;
    ~DrainPool() { nn::TensorPool::drain(); }
  } const drain_pool;
  const std::size_t batch = std::max<std::size_t>(cfg_.batch_samples, 1);

  std::vector<EpochRecord> history;
  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  // Keep-alive handles for the in-flight batch: residency is bounded by
  // the batch size plus whatever the source prefetches.
  std::vector<std::shared_ptr<const data::Sample>> hold;
  std::vector<const data::Sample*> batch_ptrs;
  hold.reserve(batch);
  batch_ptrs.reserve(batch);

  interrupted_ = false;
  const char* const loop_name = streaming ? "fit_stream" : "fit";
  const bool ckpt_on = !cfg_.checkpoint_dir.empty();
  const std::string ckpt_path =
      ckpt_on ? checkpoint_file(cfg_.checkpoint_dir) : std::string();
  const std::uint64_t digest =
      train_digest(model_, cfg_, streaming, train.size());

  std::size_t start_epoch = 0;
  std::uint64_t resume_samples = 0;
  double resume_loss_sum = 0.0;
  std::uint64_t resume_loss_count = 0;
  if (ckpt_on && cfg_.resume && std::filesystem::exists(ckpt_path)) {
    const TrainCheckpoint ck = load_checkpoint(ckpt_path);
    if (ck.streaming != streaming)
      throw CheckpointError("resume refused: " + ckpt_path +
                            " was written by " +
                            (ck.streaming ? "fit_stream" : "fit") +
                            ", not " + loop_name);
    if (ck.config_digest != digest)
      throw CheckpointError(
          "resume refused: " + ckpt_path +
          " was written under a different model/train config or dataset "
          "size — delete the checkpoint to start over");
    verify_scaler(ck, scaler);
    restore_train_state(model_, opt_, ck);
    start_epoch = static_cast<std::size_t>(ck.epoch);
    // The one resume cursor: mid-epoch checkpoints are written only at
    // full-batch boundaries.
    resume_samples = ck.batch_in_epoch * batch;
    resume_loss_sum = ck.loss_sum;
    resume_loss_count = ck.loss_count;
    best_val = ck.best_val;
    since_best = static_cast<std::size_t>(ck.since_best);
    // A source may order each pass differently — the in-memory source
    // chains its shuffle across passes — so replay the finished epochs'
    // passes (the digest pinned the seed).  A streaming source replays
    // one order every pass; for it these are plain rewinds.
    if (start_epoch < cfg_.epochs)
      for (std::size_t e = 0; e < start_epoch; ++e) train.reset();
    if (cfg_.verbose)
      util::log_info(model_.name(), ": resumed from ", ckpt_path,
                     " at epoch ", start_epoch, ", batch ", ck.batch_in_epoch);
  }

  // Construct the engine AFTER any resume restore: lane replicas deep-copy
  // the model's weights at construction, so building it earlier would run
  // the first resumed batch with stale (initial) weights on lanes 1+.
  BatchEngine engine(model_, cfg_, opt_, pool_ ? &*pool_ : nullptr);

  const auto snapshot = [&](std::uint64_t epoch, std::uint64_t samples_done,
                            std::uint64_t batch_done, double loss_sum,
                            std::uint64_t loss_count) {
    TrainCheckpoint ck;
    ck.streaming = streaming;
    ck.config_digest = digest;
    ck.epoch = epoch;
    ck.batch_in_epoch = batch_done;
    ck.samples_done = samples_done;
    ck.loss_sum = loss_sum;
    ck.loss_count = loss_count;
    ck.best_val = best_val;
    ck.since_best = since_best;
    capture_train_state(model_, opt_, scaler, ck);
    save_checkpoint(ckpt_path, ck);
  };

  for (std::size_t epoch = start_epoch; epoch < cfg_.epochs; ++epoch) {
    util::Stopwatch watch;
    train.reset();
    engine.begin_epoch();
    std::uint64_t samples_done = 0;
    if (epoch == start_epoch && resume_samples > 0) {
      // Every pass of a source is a pure function of the run, so the
      // cursor is just a count: pull and discard the prefix the
      // interrupted run already trained on.
      while (samples_done < resume_samples) {
        if (!train.next())
          throw CheckpointError(
              "resume refused: pass ended after " +
              std::to_string(samples_done) + " samples, checkpoint cursor "
              "is at " + std::to_string(resume_samples) +
              " (did the training set change?)");
        ++samples_done;
      }
      engine.restore_epoch_loss(resume_loss_sum, resume_loss_count);
    }
    std::uint64_t batches_done = samples_done / batch;
    while (auto sp = train.next()) {
      batch_ptrs.push_back(sp.get());
      hold.push_back(std::move(sp));
      ++samples_done;
      if (batch_ptrs.size() < batch) continue;
      engine.process_batch(batch_ptrs, scaler);
      batch_ptrs.clear();
      hold.clear();
      ++batches_done;
      const bool stop = cfg_.stop_requested && cfg_.stop_requested();
      if (ckpt_on && (stop || (cfg_.checkpoint_every != 0 &&
                               batches_done % cfg_.checkpoint_every == 0)))
        snapshot(epoch, samples_done, batches_done, engine.epoch_loss_sum(),
                 engine.epoch_loss_count());
      if (stop) {
        interrupted_ = true;
        if (cfg_.verbose)
          util::log_info(model_.name(), ": stop requested at epoch ", epoch,
                         ", batch ", batches_done,
                         ckpt_on ? " (checkpoint written)" : "");
        return history;
      }
    }
    // The trailing partial batch (not a stop point: the cursor stays on
    // full-batch boundaries).
    engine.process_batch(batch_ptrs, scaler);
    batch_ptrs.clear();
    hold.clear();
    opt_.set_lr(opt_.lr() * cfg_.lr_decay);

    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = engine.epoch_mean_loss();
    rec.val_loss = val ? evaluate_loss(*val, scaler)
                       : std::numeric_limits<double>::quiet_NaN();
    rec.seconds = watch.seconds();
    history.push_back(rec);
    if (cfg_.verbose)
      util::log_info(model_.name(), " epoch ", epoch, ": train_loss=",
                     rec.train_loss, val ? " val_loss=" : "",
                     val ? std::to_string(rec.val_loss) : std::string(),
                     " (", rec.seconds, streaming ? "s, streaming)" : "s)");

    bool early_stop = false;
    if (val && cfg_.patience > 0) {
      if (rec.val_loss < best_val - 1e-9) {
        best_val = rec.val_loss;
        since_best = 0;
      } else if (++since_best >= cfg_.patience) {
        if (cfg_.verbose)
          util::log_info(model_.name(), ": early stop at epoch ", epoch);
        early_stop = true;
      }
    }
    // End-of-epoch checkpoint: cursor at the NEXT epoch's start (post-
    // decay lr, zeroed accumulators).  Early stop and natural completion
    // both park the cursor at cfg_.epochs, so resuming a finished run
    // retrains nothing.
    if (ckpt_on)
      snapshot(early_stop ? cfg_.epochs : epoch + 1, 0, 0, 0.0, 0);
    if (early_stop) break;
  }
  return history;
}

double Trainer::evaluate_loss(const data::Dataset& ds,
                              const data::Scaler& scaler) const {
  data::DatasetSource src(ds);
  return evaluate_loss(src, scaler);
}

double Trainer::evaluate_loss(data::SampleSource& src,
                              const data::Scaler& scaler) const {
  src.reset();
  const std::size_t lanes = pool_ ? pool_->size() : 1;
  const std::size_t window = std::max<std::size_t>(4 * lanes, 8);
  std::vector<std::shared_ptr<const data::Sample>> hold;
  hold.reserve(window);
  std::vector<double> losses(window, 0.0);
  std::vector<char> defined(window, 0);
  double sum = 0.0;
  std::size_t count = 0;

  const auto flush = [&] {
    const std::size_t n = hold.size();
    if (n == 0) return;
    std::fill(defined.begin(), defined.begin() + static_cast<std::ptrdiff_t>(n), 0);
    const auto eval_one = [&](std::size_t i) {
      const nn::NoGradGuard guard;
      const nn::Var loss = sample_loss(model_, *hold[i], scaler,
                                       cfg_.min_delivered, cfg_.target);
      if (!loss.defined()) return;
      losses[i] = loss.value().item();
      defined[i] = 1;
    };
    if (pool_ && n > 1) {
      pool_->parallel_for(n, eval_one);
    } else {
      for (std::size_t i = 0; i < n; ++i) eval_one(i);
    }
    // Sample-order sum: windowing changes residency, never the result.
    for (std::size_t i = 0; i < n; ++i) {
      if (!defined[i]) continue;
      sum += losses[i];
      ++count;
    }
    hold.clear();
  };

  while (auto sp = src.next()) {
    hold.push_back(std::move(sp));
    if (hold.size() == window) flush();
  }
  flush();
  return count ? sum / static_cast<double>(count)
               : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace rnx::core

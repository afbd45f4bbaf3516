// rnx_train — train / evaluate RouteNet models on saved datasets.
//
//   rnx_train --train train.rnxd --eval test.rnxd --model ext
//             --epochs 40 --save-bundle model.rnxb
//   rnx_train --eval test.rnxd --model ext --load weights.rnxw
//             --scaler-from train.rnxd
//
// The scaler is always fitted on the --train set (or --scaler-from when
// only evaluating), never on evaluation data.  --save-bundle persists
// weights AND the fitted scaler moments (plus config/target) as one
// .rnxb artifact, so deployment (rnx_predict, serve::InferenceEngine)
// never re-fits statistics; bare --save writes weights only.
//
// Every dataset flag accepts either a monolithic .rnxd file or a
// sharded-store .rnxm manifest (detected by magic, DESIGN.md §D).
// Manifests stream: scaler fitting, training and evaluation pull
// shard-by-shard through a background prefetcher, so the dataset never
// fully materializes — corpora larger than RAM train fine.
#include <iostream>
#include <memory>
#include <optional>

#include "cli.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/source.hpp"
#include "eval/metrics.hpp"
#include "serve/bundle.hpp"
#include "util/binio.hpp"
#include "util/signal.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rnx;
  const cli::Args args(
      argc, argv,
      {"train", "eval", "model", "target", "epochs", "lr", "batch",
       "state-dim", "iterations", "min-delivered", "save", "save-bundle",
       "load", "scaler-from", "seed", "threads", "quiet",
       "scenario-features", "scale-invariant-features",
       "link-mean-aggregation", "checkpoint-dir", "checkpoint-every",
       "resume"},
      "usage: rnx_train --train ds.rnxd [--eval test.rnxd] [options]\n"
      "  --train FILE      training dataset (.rnxd, or a sharded .rnxm\n"
      "                    manifest — streamed, never fully in memory)\n"
      "  --eval FILE       evaluation dataset (.rnxd or .rnxm)\n"
      "  --model M         ext (default) | orig\n"
      "  --target T        regression target: delay (default) | jitter\n"
      "  --epochs N        default 30\n"
      "  --lr X            default 2e-3\n"
      "  --batch N         samples per optimizer step, default 4\n"
      "  --state-dim H     default 12\n"
      "  --iterations T    message-passing rounds, default 4\n"
      "  --min-delivered N label-quality threshold for scaler fitting,\n"
      "                    training loss and eval, default 10\n"
      "  --save FILE       write trained weights only (.rnxw)\n"
      "  --save-bundle F   write self-contained model bundle (.rnxb):\n"
      "                    fp64 weights + scaler moments + config + target\n"
      "  --load FILE       load weights instead of training\n"
      "  --scaler-from F   dataset for scaler statistics (eval-only mode)\n"
      "  --seed S          init/shuffle seed, default 42\n"
      "  --threads N       data-parallel lanes (0 = all cores), default 1;\n"
      "                    results are identical for any thread count\n"
      "  --scenario-features  feed scheduling-policy / flow-class /\n"
      "                    traffic-process inputs (needs a scenario-\n"
      "                    recording dataset; persisted in the bundle)\n"
      "  --scale-invariant-features  feed dimensionless inputs (per-link\n"
      "                    utilization, traffic over bottleneck capacity,\n"
      "                    queue occupancy) instead of z-scored rates —\n"
      "                    the train-small/serve-huge mode (persisted in\n"
      "                    the bundle)\n"
      "  --link-mean-aggregation  normalize the link update's message sum\n"
      "                    by contributing-message count (persisted in\n"
      "                    the bundle)\n"
      "  --checkpoint-dir D   write a crash-safe .rnxc checkpoint to D\n"
      "                    (atomically, every --checkpoint-every batches\n"
      "                    and at each epoch end); SIGINT/SIGTERM also\n"
      "                    finalize one before exiting with code 130/143\n"
      "  --checkpoint-every N optimizer steps between checkpoints,\n"
      "                    default 25 (0 = epoch boundaries only)\n"
      "  --resume          resume from --checkpoint-dir's checkpoint; the\n"
      "                    resumed run is bitwise-identical to an\n"
      "                    uninterrupted one\n"
      "  --quiet           suppress per-epoch logs");

  // Data-parallel lanes, shared by training and evaluation.
  std::size_t threads = args.get("threads", std::size_t{1});
  if (threads == 0) threads = util::ThreadPool::hardware_threads();
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  const std::string model_kind = args.get("model", std::string("ext"));
  core::ModelConfig mc;
  mc.state_dim = args.get("state-dim", std::size_t{12});
  mc.iterations = args.get("iterations", std::size_t{4});
  mc.init_seed = args.get("seed", std::size_t{42});
  mc.scenario_features = args.has("scenario-features");
  mc.scale_invariant_features = args.has("scale-invariant-features");
  mc.link_mean_aggregation = args.has("link-mean-aggregation");

  const auto kind = core::model_kind_from_string(model_kind);
  if (!kind) {
    std::cerr << "error: --model must be ext or orig\n";
    return 2;
  }
  const std::unique_ptr<core::Model> model = core::make_model(*kind, mc);

  const auto target =
      core::target_from_string(args.get("target", std::string("delay")));
  if (!target) {
    std::cerr << "error: --target must be delay or jitter\n";
    return 2;
  }
  const std::size_t min_delivered = args.get("min-delivered", std::size_t{10});

  // Resolve the dataset that defines the scaler.  Manifests (.rnxm)
  // stream shard-by-shard; monolithic files load once and are reused
  // for training when --train names the same file.
  const std::string train_path = args.get("train", std::string());
  const std::string scaler_path =
      args.get("scaler-from", train_path);
  if (scaler_path.empty()) {
    std::cerr << "error: need --train or --scaler-from\n";
    return 2;
  }
  std::optional<data::Dataset> scaler_ds;  // monolithic scaler set only
  const data::Scaler scaler = [&] {
    if (data::is_manifest_file(scaler_path)) {
      data::StreamingShardSource src(scaler_path);
      return data::Scaler::fit(src, min_delivered);
    }
    scaler_ds.emplace(data::Dataset::load(scaler_path));
    return data::Scaler::fit(scaler_ds->samples(), min_delivered);
  }();

  if (args.has("load")) {
    model->load_weights(args.get("load", std::string()));
    std::cout << "loaded weights from " << args.get("load", std::string())
              << "\n";
  } else {
    if (train_path.empty()) {
      std::cerr << "error: need --train (or --load)\n";
      return 2;
    }
    core::TrainConfig tc;
    tc.epochs = args.get("epochs", std::size_t{30});
    tc.lr = args.get("lr", 2e-3);
    tc.batch_samples = args.get("batch", std::size_t{4});
    tc.min_delivered = min_delivered;
    tc.target = *target;
    tc.seed = args.get("seed", std::size_t{42});
    tc.threads = threads;
    tc.verbose = !args.has("quiet");
    tc.checkpoint_dir = args.get("checkpoint-dir", std::string());
    tc.checkpoint_every = args.get("checkpoint-every", std::size_t{25});
    tc.resume = args.has("resume");
    if (!tc.checkpoint_dir.empty()) {
      // A crash between flush and rename leaves a *.tmp twin behind;
      // sweep it so the directory always holds exactly the real files.
      const std::size_t stale =
          util::remove_stale_temps(tc.checkpoint_dir);
      if (stale != 0 && tc.verbose)
        std::cout << "removed " << stale << " stale temp file(s) from "
                  << tc.checkpoint_dir << "\n";
      util::install_interrupt_handlers();
      tc.stop_requested = [] { return util::interrupt_requested(); };
    }
    core::Trainer trainer(*model, tc);
    std::vector<core::EpochRecord> history;
    if (data::is_manifest_file(train_path)) {
      data::StreamingShardSource train_src(train_path);
      std::cout << "training " << model->name() << " on "
                << train_src.size() << " samples (target: "
                << core::to_string(*target) << ", streaming "
                << train_src.reader().num_shards() << " shards)...\n";
      history = trainer.fit_stream(train_src, scaler);
    } else {
      const data::Dataset train =
          train_path == scaler_path && scaler_ds
              ? std::move(*scaler_ds)
              : data::Dataset::load(train_path);
      std::cout << "training " << model->name() << " on " << train.size()
                << " samples (target: " << core::to_string(*target)
                << ")...\n";
      history = trainer.fit(train, scaler);
    }
    if (trainer.interrupted()) {
      // The signal landed at a batch boundary and a final checkpoint was
      // written; conventional 128+signum exit, nothing half-saved.
      std::cout << "interrupted: checkpoint finalized in "
                << tc.checkpoint_dir << "; rerun with --resume to continue\n";
      return util::interrupt_exit_code();
    }
    if (history.empty())
      std::cout << "no epochs trained (--epochs 0): weights stay at "
                   "initialization\n";
    else
      std::cout << "train loss " << history.front().train_loss << " -> "
                << history.back().train_loss << "\n";
  }

  if (args.has("save")) {
    model->save_weights(args.get("save", std::string()));
    std::cout << "weights written: " << args.get("save", std::string())
              << "\n";
  }
  if (args.has("save-bundle")) {
    const std::string path = args.get("save-bundle", std::string());
    serve::save_bundle(path, *model, scaler, *target, min_delivered);
    std::cout << "model bundle written: " << path << "\n";
  }

  if (args.has("eval")) {
    const auto test = data::open_source(args.get("eval", std::string()));
    const auto pp = eval::predict_source(*model, *test, scaler, min_delivered,
                                         *target, pool ? &*pool : nullptr);
    eval::print_summary(std::cout, eval::summarize(pp), *target);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // Corrupt weight/dataset files and I/O failures surface here as
    // clean diagnostics instead of std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

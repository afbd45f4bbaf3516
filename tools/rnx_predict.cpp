// rnx_predict — serve predictions from a self-contained model bundle.
//
//   rnx_predict --bundle model.rnxb --data test.rnxd
//   rnx_predict --bundle model.rnxb --data scenarios.rnxd --csv preds.csv
//
// The bundle carries weights, scaler moments, model config and target,
// so no training dataset (and no scaler re-fit) is needed: metrics here
// reproduce `rnx_train --load --eval --scaler-from <train-set>` exactly.
// Labeled datasets additionally get the regression metric table; --csv
// dumps one row per path for external tooling.
//
// --data also accepts a sharded .rnxm manifest (DESIGN.md §D): samples
// then stream shard-by-shard through eval::predict_source — CSV rows
// and metrics are produced without ever materializing the dataset, and
// without a plan cache (see run_streaming).
#include <fstream>
#include <iostream>
#include <optional>

#include "cli.hpp"
#include "data/source.hpp"
#include "eval/metrics.hpp"
#include "nn/kernels.hpp"
#include "serve/inference.hpp"

namespace {

// Streaming path: drive the bundle's model directly (no InferenceEngine
// — its persistent plan cache is exactly what transient samples must
// not touch).  Output format matches the monolithic path line for line.
int run_streaming(const std::string& bundle_path,
                  const std::string& data_path, const std::string& csv_path,
                  std::size_t threads, bool metrics) {
  using namespace rnx;
  serve::ModelBundle bundle = serve::load_bundle(bundle_path);
  std::cout << "bundle: " << bundle_path << " (" << bundle.model->name()
            << ", target " << core::to_string(bundle.target)
            << ", state_dim " << bundle.model->config().state_dim
            << ", iterations " << bundle.model->config().iterations
            << ", " << nn::to_string(bundle.encoding) << " weights)\n";
  std::cout << "kernels: " << nn::kernels::active().name << " ("
            << nn::kernels::dispatch_reason() << ")\n";

  if (threads == 0) threads = util::ThreadPool::hardware_threads();
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  data::StreamingShardSource src(data_path);
  std::cout << "predicting " << src.size() << " samples (streaming "
            << src.reader().num_shards() << " shards)...\n";

  std::optional<std::ofstream> csv;
  const bool delay = bundle.target == core::PredictionTarget::kDelay;
  if (!csv_path.empty()) {
    csv.emplace(csv_path);
    if (!*csv) {
      std::cerr << "error: cannot open " << csv_path << "\n";
      return 1;
    }
    *csv << "sample,src,dst,prediction,"
         << (delay ? "mean_delay_s" : "jitter_s2") << ",delivered\n";
  }
  const auto per_sample = [&](std::size_t si, const data::Sample& s,
                              const nn::Tensor& pred) {
    for (std::size_t pi = 0; pi < s.paths.size(); ++pi) {
      const auto& p = s.paths[pi];
      const double value =
          delay ? bundle.scaler.target_to_delay(
                      pred(static_cast<nn::Index>(pi), 0))
                : bundle.scaler.target_to_jitter(
                      pred(static_cast<nn::Index>(pi), 0));
      *csv << si << ',' << p.src << ',' << p.dst << ',' << value << ','
           << (delay ? p.mean_delay_s : p.jitter_s2) << ',' << p.delivered
           << "\n";
    }
  };

  const auto pp = eval::predict_source(
      *bundle.model, src, bundle.scaler, bundle.min_delivered, bundle.target,
      pool ? &*pool : nullptr,
      csv ? std::function<void(std::size_t, const data::Sample&,
                               const nn::Tensor&)>(per_sample)
          : nullptr);
  if (csv) std::cout << "csv written: " << csv_path << "\n";

  if (metrics) {
    if (pp.size() == 0) {
      std::cout << "(no label-valid paths: skipping metrics)\n";
      return 0;
    }
    eval::print_summary(std::cout, eval::summarize(pp), bundle.target);
  }
  return 0;
}

int run(int argc, char** argv) {
  using namespace rnx;
  const cli::Args args(
      argc, argv,
      {"bundle", "data", "csv", "threads", "no-metrics", "plan-cache-mb"},
      "usage: rnx_predict --bundle model.rnxb --data ds.rnxd [options]\n"
      "  --bundle FILE   model bundle (.rnxb) from rnx_train --save-bundle\n"
      "  --data FILE     scenarios to predict (.rnxd, or a sharded .rnxm\n"
      "                  manifest — streamed shard by shard)\n"
      "  --csv FILE      write per-path predictions as CSV\n"
      "  --threads N     batch fan-out lanes (0 = all cores), default 1\n"
      "  --plan-cache-mb M  cap the plan cache at M MiB (LRU eviction);\n"
      "                  peak bytes / evictions print at exit so the\n"
      "                  budget can be sized from a real run\n"
      "  --no-metrics    skip the label-based metric table");

  const std::string bundle_path = args.get("bundle", std::string());
  const std::string data_path = args.get("data", std::string());
  if (bundle_path.empty() || data_path.empty()) {
    std::cerr << "error: need --bundle and --data\n";
    return 2;
  }

  if (data::is_manifest_file(data_path))
    return run_streaming(bundle_path, data_path,
                         args.get("csv", std::string()),
                         args.get("threads", std::size_t{1}),
                         !args.has("no-metrics"));

  serve::InferenceEngine engine(bundle_path,
                                args.get("threads", std::size_t{1}));
  if (args.has("plan-cache-mb"))
    engine.set_plan_cache_budget(
        args.get_positive("plan-cache-mb", std::size_t{64}) * 1024 * 1024);
  std::cout << "bundle: " << bundle_path << " (" << engine.model().name()
            << ", target " << core::to_string(engine.target())
            << ", state_dim " << engine.model().config().state_dim
            << ", iterations " << engine.model().config().iterations
            << ")\n";
  std::cout << "kernels: " << nn::kernels::active().name << " ("
            << nn::kernels::dispatch_reason() << ")\n";

  const data::Dataset ds = data::Dataset::load(data_path);
  std::cout << "predicting " << ds.total_paths() << " paths across "
            << ds.size() << " samples...\n";

  if (const auto csv = args.get("csv", std::string()); !csv.empty()) {
    const std::vector<std::vector<double>> preds =
        engine.predict_batch(ds.samples());
    std::ofstream f(csv);
    if (!f) {
      std::cerr << "error: cannot open " << csv << "\n";
      return 1;
    }
    const bool delay = engine.target() == core::PredictionTarget::kDelay;
    f << "sample,src,dst,prediction," << (delay ? "mean_delay_s" : "jitter_s2")
      << ",delivered\n";
    for (std::size_t si = 0; si < ds.size(); ++si)
      for (std::size_t pi = 0; pi < ds[si].paths.size(); ++pi) {
        const auto& p = ds[si].paths[pi];
        f << si << ',' << p.src << ',' << p.dst << ',' << preds[si][pi]
          << ',' << (delay ? p.mean_delay_s : p.jitter_s2) << ','
          << p.delivered << "\n";
      }
    std::cout << "csv written: " << csv << "\n";
  }

  // Exit report for operators sizing --plan-cache-mb: the peak is what
  // an unbudgeted run would have held resident; evictions > 0 means the
  // budget actually bit on this workload.
  const auto report_cache = [&engine] {
    const core::PlanCache::Stats cs = engine.plan_cache().stats();
    std::cout << "plan cache: peak " << cs.peak_bytes << " bytes, "
              << cs.evictions << " evictions (" << cs.hits << " hits / "
              << cs.misses << " misses)\n";
  };

  if (!args.has("no-metrics")) {
    // Metric computation goes through the same eval path as rnx_train so
    // the bundle reproduces training-time numbers bit for bit.  The
    // engine's pool is idle here (no predict_batch in flight), so borrow
    // it for the fan-out; a --csv run before this warmed the plan cache.
    const auto pp = eval::predict_dataset(
        engine.model(), ds, engine.scaler(), engine.min_delivered(),
        engine.target(), engine.batch_pool());
    if (pp.size() == 0) {
      std::cout << "(no label-valid paths: skipping metrics)\n";
      report_cache();
      return 0;
    }
    eval::print_summary(std::cout, eval::summarize(pp), engine.target());
  }
  report_cache();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // Corrupt bundles/datasets and I/O failures surface here as clean
    // diagnostics instead of std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

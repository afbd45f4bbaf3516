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
// --data takes a monolithic .rnxd file or a sharded .rnxm manifest
// (DESIGN.md §D); data::open_source picks the reader.  Either way one
// eval::predict_source pass forwards every sample once, writing the CSV
// rows and pooling the metrics.  A .rnxd file is loaded whole; a
// manifest keeps one shard plus the prefetch depth in memory.
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>

#include "cli.hpp"
#include "data/source.hpp"
#include "eval/metrics.hpp"
#include "nn/kernels.hpp"
#include "serve/bundle.hpp"
#include "util/thread_pool.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rnx;
  const cli::Args args(
      argc, argv, {"bundle", "data", "csv", "threads", "no-metrics"},
      "usage: rnx_predict --bundle model.rnxb --data ds.rnxd [options]\n"
      "  --bundle FILE   model bundle (.rnxb) from rnx_train --save-bundle\n"
      "  --data FILE     scenarios to predict (.rnxd, or a sharded .rnxm\n"
      "                  manifest — streamed shard by shard)\n"
      "  --csv FILE      write per-path predictions as CSV\n"
      "  --threads N     batch fan-out lanes (0 = all cores), default 1\n"
      "  --no-metrics    skip the label-based metric table");

  const std::string bundle_path = args.get("bundle", std::string());
  const std::string data_path = args.get("data", std::string());
  if (bundle_path.empty() || data_path.empty()) {
    std::cerr << "error: need --bundle and --data\n";
    return 2;
  }
  const std::string csv_path = args.get("csv", std::string());
  std::size_t threads = args.get("threads", std::size_t{1});

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

  const std::unique_ptr<data::SampleSource> src =
      data::open_source(data_path);
  std::cout << "predicting " << src->size() << " samples...\n";

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
      *bundle.model, *src, bundle.scaler, bundle.min_delivered, bundle.target,
      pool ? &*pool : nullptr,
      csv ? std::function<void(std::size_t, const data::Sample&,
                               const nn::Tensor&)>(per_sample)
          : nullptr);
  if (csv) std::cout << "csv written: " << csv_path << "\n";

  if (!args.has("no-metrics")) {
    if (pp.size() == 0) {
      std::cout << "(no label-valid paths: skipping metrics)\n";
      return 0;
    }
    eval::print_summary(std::cout, eval::summarize(pp), bundle.target);
  }
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

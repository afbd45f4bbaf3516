// Ablation A1 — message-passing depth T.
//
// RouteNet's accuracy depends on how many rounds of path<->link<->node
// message passing are run before the readout (DESIGN.md design decision).
// This bench trains the extended architecture at several T on the same
// GEANT2 dataset and reports held-out accuracy and per-sample cost.
// Expected shape: large gain from T=1 to T~3-4, then diminishing returns
// at growing cost.
#include <iostream>

#include "bench_common.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace rnx;
  benchcfg::print_banner("Ablation A1: message-passing iterations (T)");

  eval::Fig2Config base = benchcfg::default_fig2_config();
  base.train_samples = benchcfg::scaled(benchcfg::quick_mode() ? 12 : 40);
  base.geant2_test_samples = benchcfg::scaled(benchcfg::quick_mode() ? 4 : 10);
  base.nsfnet_test_samples = 1;  // unused here, keep generation minimal
  base.train.epochs = benchcfg::quick_mode() ? 8 : 25;
  base.model.state_dim = 10;

  const eval::Fig2Datasets ds = eval::make_fig2_datasets(base);
  const data::Scaler scaler =
      data::Scaler::fit(ds.train.samples(), base.train.min_delivered);

  util::Table table({"T", "train loss", "test median APE", "test MAPE",
                     "train s/epoch", "inference ms/sample"});
  for (const std::size_t t : {1u, 2u, 4u, 6u}) {
    core::ModelConfig mc = base.model;
    mc.iterations = t;
    core::Model model(core::ModelKind::kExtended, mc);
    core::Trainer trainer(model, base.train);
    util::Stopwatch w;
    const auto history = trainer.fit(ds.train, scaler);
    const double per_epoch = w.seconds() / static_cast<double>(history.size());

    const auto pp = eval::predict_dataset(model, ds.geant2_test, scaler,
                                          base.train.min_delivered);
    const auto summary = eval::summarize(pp);

    const nn::NoGradGuard guard;
    util::Stopwatch infer;
    constexpr int kReps = 10;
    for (int i = 0; i < kReps; ++i)
      (void)model.forward(ds.geant2_test[0], scaler);
    table.add_row({util::Table::cell(t),
                   util::Table::cell(history.back().train_loss, 4),
                   util::Table::cell(summary.median_ape * 100, 2) + " %",
                   util::Table::cell(summary.mape * 100, 2) + " %",
                   util::Table::cell(per_epoch, 2),
                   util::Table::cell(infer.seconds() / kReps * 1e3, 2)});
  }
  table.print(std::cout);
  return 0;
}

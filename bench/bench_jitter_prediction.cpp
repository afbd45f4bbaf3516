// Extension — jitter estimation (paper abstract: "delay or jitter").
//
// Trains the extended RouteNet with the jitter (delay-variance) label on
// the same queue-varied GEANT2 data used for Fig. 2 and reports accuracy
// on held-out GEANT2 and unseen NSFNET, next to a delay-trained model as
// the reference point.
#include <iostream>

#include "bench_common.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "util/table.hpp"

int main() {
  using namespace rnx;
  benchcfg::print_banner("Extension: jitter as the regression target");

  eval::Fig2Config base = benchcfg::default_fig2_config();
  base.train_samples = benchcfg::scaled(benchcfg::quick_mode() ? 12 : 40);
  base.geant2_test_samples = benchcfg::scaled(benchcfg::quick_mode() ? 4 : 10);
  base.nsfnet_test_samples = benchcfg::scaled(benchcfg::quick_mode() ? 4 : 10);
  base.train.epochs = benchcfg::quick_mode() ? 8 : 25;
  base.model.state_dim = 10;
  base.model.iterations = 3;

  const eval::Fig2Datasets ds = eval::make_fig2_datasets(base);
  const data::Scaler scaler =
      data::Scaler::fit(ds.train.samples(), base.train.min_delivered);

  util::Table table({"target", "topology", "median APE", "MAPE",
                     "Pearson r"});
  for (const auto target :
       {core::PredictionTarget::kDelay, core::PredictionTarget::kJitter}) {
    core::Model model(core::ModelKind::kExtended, base.model);
    core::TrainConfig tc = base.train;
    tc.target = target;
    core::Trainer trainer(model, tc);
    (void)trainer.fit(ds.train, scaler);
    const char* name =
        target == core::PredictionTarget::kDelay ? "delay" : "jitter";
    for (const auto* set : {&ds.geant2_test, &ds.nsfnet_test}) {
      const auto s = eval::summarize(eval::predict_dataset(
          model, *set, scaler, tc.min_delivered, target));
      table.add_row({name,
                     set == &ds.geant2_test ? "geant2" : "nsfnet (unseen)",
                     util::Table::cell(s.median_ape * 100, 2) + " %",
                     util::Table::cell(s.mape * 100, 2) + " %",
                     util::Table::cell(s.pearson, 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: jitter is harder than delay (variance of\n"
               "a heavy-tailed quantity) but remains clearly predictive,\n"
               "as the RouteNet line of work reports.\n";
  return 0;
}

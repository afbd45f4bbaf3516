// The paper's core use case: train the extended RouteNet on queue-varied
// GEANT2 scenarios and predict per-path mean delays for new scenarios,
// comparing against the packet-level simulator's ground truth.  Trained
// weights are saved so the what-if example can reuse them.
//
// Run: ./delay_prediction_geant2 [train_samples] [epochs]
//      (defaults 60 / 30; larger = more accurate, slower)
#include <cstdlib>
#include <iostream>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "eval/metrics.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rnx;
  const std::size_t train_n =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 30;

  // Queue-varied GEANT2 scenarios in the load regime where queueing
  // dominates (cf. paper §3).
  data::GeneratorConfig gen;
  gen.target_packets = 150'000;
  gen.util_lo = 0.7;
  gen.util_hi = 0.95;

  std::cout << "generating " << train_n + 10 << " GEANT2 scenarios...\n";
  data::Dataset all(
      data::generate_dataset(topo::geant2(), train_n + 10, gen, 99));
  const auto [test, train] = all.split(10);

  const data::Scaler scaler = data::Scaler::fit(train.samples());
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.iterations = 4;
  core::Model model(core::ModelKind::kExtended, mc);

  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_samples = 4;
  tc.lr = 2e-3;
  tc.verbose = false;
  core::Trainer trainer(model, tc);
  std::cout << "training extended RouteNet (" << train.size()
            << " samples, " << epochs << " epochs)...\n";
  const auto history = trainer.fit(train, scaler, &test);
  std::cout << "loss: " << history.front().train_loss << " -> "
            << history.back().train_loss << " (val "
            << history.back().val_loss << ")\n\n";

  const auto pp = eval::predict_dataset(model, test, scaler, 10);
  const auto s = eval::summarize(pp);
  const auto ape = eval::absolute_relative_errors(pp);

  util::Table table({"metric", "value"});
  table.add_row({"held-out paths", util::Table::cell(s.n)})
      .add_row({"median |rel err|",
                util::Table::cell(s.median_ape * 100, 2) + " %"})
      .add_row({"P90 |rel err|",
                util::Table::cell(util::percentile(ape, 90) * 100, 2) + " %"})
      .add_row({"MAPE", util::Table::cell(s.mape * 100, 2) + " %"})
      .add_row({"Pearson r", util::Table::cell(s.pearson, 4)})
      .add_row({"R^2", util::Table::cell(s.r2, 4)});
  table.print(std::cout);

  model.save_weights("routenet-ext_geant2.rnxw");
  std::cout << "\nweights saved to routenet-ext_geant2.rnxw "
               "(what_if_queue_upgrade reuses them)\n";
  return 0;
}

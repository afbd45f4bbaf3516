// Quickstart: the whole pipeline on a small topology in under a minute.
//
//   1. build a 5-node topology with mixed queue sizes,
//   2. simulate queue-varied scenarios to create a dataset,
//   3. train the extended RouteNet on it,
//   4. predict delays for a held-out scenario and compare to simulation.
//
// Run: ./quickstart [num_samples] (default 60)
#include <cstdlib>
#include <iostream>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "eval/metrics.hpp"
#include "topo/zoo.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rnx;
  const std::size_t num_samples =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;

  // 1. A small ring topology; every node starts with a standard queue.
  //    The generator below randomizes queue sizes per scenario.
  const topo::Topology net = topo::ring(5, /*capacity_bps=*/10e6);
  std::cout << "topology: " << net.name() << " (" << net.num_nodes()
            << " nodes, " << net.num_links() << " directed links)\n";

  // 2. Generate a dataset with the packet-level simulator.
  data::GeneratorConfig gen;
  gen.p_tiny_queue = 0.5;        // half the devices get 1-packet queues
  gen.target_packets = 20'000;   // per-scenario simulated packet budget
  std::cout << "simulating " << num_samples << " scenarios...\n";
  data::Dataset all(data::generate_dataset(net, num_samples, gen,
                                           /*seed=*/7));
  const auto [test, train] = all.split(num_samples / 5);
  std::cout << "dataset: " << train.size() << " train / " << test.size()
            << " test samples, " << all.total_paths() << " paths total\n";

  // 3. Train the extended RouteNet (the paper's architecture).
  const data::Scaler scaler = data::Scaler::fit(train.samples());
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.iterations = 4;
  core::Model model(core::ModelKind::kExtended, mc);
  core::TrainConfig tc;
  tc.epochs = 15;
  tc.verbose = false;
  core::Trainer trainer(model, tc);
  std::cout << "training " << model.name() << " for " << tc.epochs
            << " epochs...\n";
  const auto history = trainer.fit(train, scaler, &test);
  std::cout << "final train loss " << history.back().train_loss
            << ", test loss " << history.back().val_loss << "\n\n";

  // 4. Evaluate: per-path predicted vs simulated delay on held-out data.
  const auto pp = eval::predict_dataset(model, test, scaler, 10);
  const auto summary = eval::summarize(pp);
  util::Table table({"metric", "value"});
  table.add_row({"paths evaluated", util::Table::cell(summary.n)})
      .add_row({"MAPE", util::Table::cell(summary.mape * 100, 2) + " %"})
      .add_row({"median APE", util::Table::cell(summary.median_ape * 100, 2) + " %"})
      .add_row({"RMSE", util::Table::cell(summary.rmse * 1e3, 4) + " ms"})
      .add_row({"Pearson r", util::Table::cell(summary.pearson, 4)});
  table.print(std::cout);

  std::cout << "\nfirst 5 held-out paths (simulated vs predicted):\n";
  util::Table preview({"path", "simulated delay", "predicted delay"});
  for (std::size_t i = 0; i < 5 && i < pp.size(); ++i)
    preview.add_row({std::to_string(i),
                     util::Table::cell(pp.truth[i] * 1e3, 4) + " ms",
                     util::Table::cell(pp.pred[i] * 1e3, 4) + " ms"});
  preview.print(std::cout);
  return 0;
}

// Extension experiment (beyond the paper): how far does generalization
// carry?  The paper evaluates one unseen topology (NSFNET).  Here the
// GEANT2-trained extended RouteNet is evaluated on a family of random
// connected graphs of growing size, probing where transfer degrades.
#include <iostream>

#include "bench_common.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "topo/zoo.hpp"
#include "util/table.hpp"

int main() {
  using namespace rnx;
  benchcfg::print_banner(
      "Extension: generalization to random unseen topologies");
  benchcfg::BenchResult result("generalization_random");

  eval::Fig2Config base = benchcfg::default_fig2_config();
  base.train_samples = benchcfg::scaled(benchcfg::quick_mode() ? 12 : 40);
  base.geant2_test_samples = benchcfg::scaled(benchcfg::quick_mode() ? 4 : 8);
  base.nsfnet_test_samples = 1;
  base.train.epochs = benchcfg::quick_mode() ? 8 : 25;
  base.model.state_dim = 10;
  base.model.iterations = 3;

  const eval::Fig2Datasets ds = eval::make_fig2_datasets(base);
  const data::Scaler scaler =
      data::Scaler::fit(ds.train.samples(), base.train.min_delivered);

  core::Model model(core::ModelKind::kExtended, base.model);
  core::Trainer trainer(model, base.train);
  std::cout << "training on GEANT2 (" << ds.train.size() << " samples)...\n";
  (void)trainer.fit(ds.train, scaler);

  const auto seen = eval::summarize(eval::predict_dataset(
      model, ds.geant2_test, scaler, base.train.min_delivered));

  util::Table table({"topology", "nodes", "paths/sample", "median APE",
                     "MAPE", "Pearson r"});
  table.add_row({"geant2 (seen)", "24", "552",
                 util::Table::cell(seen.median_ape * 100, 2) + " %",
                 util::Table::cell(seen.mape * 100, 2) + " %",
                 util::Table::cell(seen.pearson, 3)});
  result.add("geant2_seen_median_ape", seen.median_ape);
  result.add("geant2_seen_mape", seen.mape);
  result.add("geant2_seen_pearson", seen.pearson);

  const std::size_t eval_n = benchcfg::quick_mode() ? 3 : 6;
  struct Shape {
    std::size_t nodes;
    std::size_t edges;
  };
  for (const auto [n, m] : {Shape{10, 15}, Shape{16, 25}, Shape{24, 37},
                            Shape{32, 50}}) {
    util::RngStream trng(n * 100 + m);
    const topo::Topology topo = topo::random_connected(n, m, trng);
    eval::Fig2Config gen_cfg = base;
    const data::Dataset test(data::generate_dataset(
        topo, eval_n, gen_cfg.gen, 5'000'000 + n));
    const auto s = eval::summarize(eval::predict_dataset(
        model, test, scaler, base.train.min_delivered));
    table.add_row({"random (unseen)", std::to_string(n),
                   std::to_string(n * (n - 1)),
                   util::Table::cell(s.median_ape * 100, 2) + " %",
                   util::Table::cell(s.mape * 100, 2) + " %",
                   util::Table::cell(s.pearson, 3)});
    const std::string tag = "random_n" + std::to_string(n);
    result.add(tag + "_median_ape", s.median_ape);
    result.add(tag + "_mape", s.mape);
    result.add(tag + "_pearson", s.pearson);
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: graceful degradation with topology-size\n"
               "distance from the 24-node training distribution; correlation\n"
               "stays clearly positive everywhere (the GNN transfers).\n";
  result.set_config("GEANT2-trained extended RouteNet, " +
                    std::to_string(ds.train.size()) + " train samples, " +
                    std::to_string(base.train.epochs) +
                    " epochs; random_connected eval at n=10/16/24/32");
  result.write();
  return 0;
}

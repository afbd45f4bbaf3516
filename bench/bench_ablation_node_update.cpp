// Ablation A3 — node-update rule variants.
//
// The paper specifies the node update as an element-wise *sum* of the
// states of the paths traversing the node (§2).  We compare:
//   (a) sum of path states, mean-normalized (library default — the
//       normalization makes aggregation magnitudes topology-size free,
//       which matters for transfer to the 14-node NSFNET);
//   (b) plain sum of path states (the paper's literal rule);
//   (c) positional messages (links' aggregation style applied to nodes).
// Reported on both the seen (GEANT2) and unseen (NSFNET) topology.
#include <iostream>

#include "bench_common.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "util/table.hpp"

int main() {
  using namespace rnx;
  benchcfg::print_banner("Ablation A3: node-update rule");

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

  struct Variant {
    std::string name;
    core::NodeUpdateRule rule;
    bool mean;
  };
  const std::vector<Variant> variants = {
      {"sum of path states, mean-normalized",
       core::NodeUpdateRule::kSumPathStates, true},
      {"sum of path states (paper literal)",
       core::NodeUpdateRule::kSumPathStates, false},
      {"positional messages", core::NodeUpdateRule::kPositionalMessages,
       true},
  };

  util::Table table({"node update", "geant2 median APE", "nsfnet median APE",
                     "nsfnet r"});
  for (const auto& v : variants) {
    core::ModelConfig mc = base.model;
    mc.node_rule = v.rule;
    mc.node_mean_aggregation = v.mean;
    core::Model model(core::ModelKind::kExtended, mc);
    core::Trainer trainer(model, base.train);
    (void)trainer.fit(ds.train, scaler);
    const auto g = eval::summarize(eval::predict_dataset(
        model, ds.geant2_test, scaler, base.train.min_delivered));
    const auto n = eval::summarize(eval::predict_dataset(
        model, ds.nsfnet_test, scaler, base.train.min_delivered));
    table.add_row({v.name,
                   util::Table::cell(g.median_ape * 100, 2) + " %",
                   util::Table::cell(n.median_ape * 100, 2) + " %",
                   util::Table::cell(n.pearson, 3)});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: all variants are comparable on the training\n"
               "topology; mean normalization wins on the unseen topology\n"
               "because sum magnitudes scale with path count (552 vs 182).\n";
  return 0;
}

// Train small, serve huge (DESIGN.md §G): train an extended RouteNet
// with scale-invariant features on a mix of small Barabási–Albert
// topologies (<= 50 nodes), then evaluate on ever larger BA graphs —
// up to 300 nodes — that the model has never seen at any scale.  The
// paper's generalization experiment holds network size roughly fixed;
// this probes the orthogonal axis the compact arena plans exist for:
// does accuracy survive a 6x size extrapolation, and how much plan
// memory does one forward over the big graphs actually take?
//
// A second table times one untrained serving-shape forward (extended,
// H=12, T=4) on BA-100 and BA-300 on 1, 2 and 4 lanes: a lone forward
// splits its path rows over a pool's idle lanes (DESIGN.md §T), with
// the split's capture arena reported next to it.
//
// BENCH_generalization_size.json carries the MRE-vs-size curve plus
// per-size plan bytes, forward times and arena bytes.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/plan.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "nn/autograd.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace rnx;

namespace {

/// Min of `reps` untaped forwards of `model` on `pool` (null: one lane),
/// and the predictions of the last.
double min_forward_ms(const core::Model& model, const data::Sample& s,
                      const data::Scaler& sc, util::ThreadPool* pool,
                      int reps, nn::Tensor& pred) {
  const nn::NoGradGuard guard;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pred = model.forward(s, sc, pool).value();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

/// The forward-timing table: BA-100 and BA-300, 1/2/4 lanes.
void time_split_forward(benchcfg::BenchResult& result) {
  constexpr int kReps = 7;
  core::ModelConfig mc;
  mc.state_dim = 12;
  mc.readout_hidden = 24;
  mc.iterations = 4;
  const core::Model model(core::ModelKind::kExtended, mc);
  data::GeneratorConfig gen;
  gen.target_packets = 20'000;  // labels unused: only the inputs matter

  util::Table table({"BA nodes", "paths", "1 lane ms", "2 lanes ms",
                     "4 lanes ms", "split arena bytes", "bitwise"});
  for (const std::size_t n : {std::size_t{100}, std::size_t{300}}) {
    util::RngStream trng(11'000 + n);
    const topo::Topology topo = topo::barabasi_albert(n, 2, trng);
    util::RngStream rng(12'000 + n);
    const data::Sample s = data::generate_sample(topo, gen, rng);
    const data::Scaler sc = data::Scaler::fit(std::vector<data::Sample>{s}, 0);
    std::vector<std::string> row{std::to_string(n),
                                 std::to_string(s.paths.size())};
    nn::Tensor serial, split;
    bool bitwise = true;
    std::string tag = "n";
    tag += std::to_string(n);
    for (const std::size_t lanes : {1u, 2u, 4u}) {
      util::ThreadPool pool(lanes);
      const double ms = min_forward_ms(model, s, sc, &pool, kReps,
                                       lanes == 1 ? serial : split);
      if (lanes > 1)
        bitwise = bitwise && split.same_shape(serial) &&
                  std::memcmp(split.flat().data(), serial.flat().data(),
                              serial.size() * sizeof(double)) == 0;
      row.push_back(util::Table::cell(ms, 1));
      result.add(tag + "_forward_ms_" + std::to_string(lanes) + "lane", ms);
    }
    const std::size_t arena = model.split_arena_bytes(s);
    row.push_back(std::to_string(arena));
    row.push_back(bitwise ? "yes" : "NO");
    result.add(tag + "_split_arena_bytes", static_cast<double>(arena));
    table.add_row(row);
  }
  std::cout << "\nuntrained extended forward (H=12, T=4), min of " << kReps
            << ", split over 1/2/4 pool lanes:\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  benchcfg::print_banner(
      "Extension: train small, serve huge (size generalization)");
  benchcfg::BenchResult result("generalization_size");
  const bool quick = benchcfg::quick_mode();

  data::GeneratorConfig gen;
  gen.target_packets = quick ? 40'000 : 120'000;
  gen.util_lo = 0.5;
  gen.util_hi = 0.9;

  // Mixed small-topology training corpus: BA graphs at four sizes, all
  // well under the evaluation range so every eval point extrapolates.
  const std::size_t per_topo = benchcfg::scaled(quick ? 3 : 10);
  std::vector<data::Sample> pool;
  for (const std::size_t n : {std::size_t{20}, std::size_t{30},
                              std::size_t{40}, std::size_t{50}}) {
    util::RngStream trng(9'000 + n);
    const topo::Topology topo = topo::barabasi_albert(n, 2, trng);
    std::vector<data::Sample> s =
        data::generate_dataset(topo, per_topo, gen, 7'000'000 + n);
    for (data::Sample& smp : s) pool.push_back(std::move(smp));
  }
  const data::Dataset train(std::move(pool));

  core::ModelConfig mc;
  mc.state_dim = 10;
  mc.iterations = 3;
  // The tentpole mode: dimensionless inputs, so nothing about the
  // fitted scaler's traffic/capacity moments anchors the model to the
  // training sizes.
  mc.scale_invariant_features = true;

  core::TrainConfig tc;
  tc.epochs = quick ? 8 : 25;
  tc.batch_samples = 4;
  tc.lr = 2e-3;
  tc.verbose = false;

  const data::Scaler scaler =
      data::Scaler::fit(train.samples(), tc.min_delivered);
  core::Model model(core::ModelKind::kExtended, mc);
  core::Trainer trainer(model, tc);
  std::cout << "training on " << train.size()
            << " samples over BA{20,30,40,50}...\n";
  (void)trainer.fit(train, scaler);

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{60, 100}
            : std::vector<std::size_t>{60, 120, 200, 300};
  const std::size_t eval_n = quick ? 2 : 3;

  util::Table table({"BA nodes", "paths/sample", "MRE", "median APE",
                     "Pearson r", "plan bytes"});
  for (const std::size_t n : sizes) {
    util::RngStream trng(11'000 + n);
    const topo::Topology topo = topo::barabasi_albert(n, 2, trng);
    const data::Dataset test(
        data::generate_dataset(topo, eval_n, gen, 8'000'000 + n));
    const auto s = eval::summarize(
        eval::predict_dataset(model, test, scaler, tc.min_delivered));
    // Plan footprint at this size (extended plans: node+link interleave).
    const std::size_t plan_bytes = core::build_plan(test[0], true).bytes();
    table.add_row({std::to_string(n), std::to_string(n * (n - 1)),
                   util::Table::cell(s.mape * 100, 2) + " %",
                   util::Table::cell(s.median_ape * 100, 2) + " %",
                   util::Table::cell(s.pearson, 3),
                   std::to_string(plan_bytes)});
    // Built by append (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive in the inlined char_traits copy (PR105651).
    std::string tag = "n";
    tag += std::to_string(n);
    result.add(tag + "_mre", s.mape);
    result.add(tag + "_median_ape", s.median_ape);
    result.add(tag + "_pearson", s.pearson);
    result.add(tag + "_plan_bytes", static_cast<double>(plan_bytes));
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: MRE degrades gracefully with size (the\n"
               "scale-invariant inputs keep features in-distribution);\n"
               "plan bytes grow linearly in total path length, not in\n"
               "paths x links.\n";
  time_split_forward(result);
  result.set_config(
      "extended RouteNet(state_dim 10, iters 3, scale-invariant), " +
      std::to_string(train.size()) + " train samples on BA{20..50}, " +
      std::to_string(tc.epochs) + " epochs; eval on BA up to " +
      std::to_string(sizes.back()) + " nodes");
  result.write();
  return 0;
}

// Figure 1 — the extended message-passing architecture.
//
// Fig. 1 is a diagram; its code realization is the message-passing plan
// and the three update functions.  This bench (a) audits the structure —
// interleaving, aggregation fan-in — on a real GEANT2 sample, printing
// the quantities the diagram depicts, and (b) times one forward pass
// phase by phase for both architectures.
#include <iostream>

#include "bench_common.hpp"
#include "core/plan.hpp"
#include "core/model.hpp"
#include "data/generator.hpp"
#include "topo/zoo.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace rnx;
  benchcfg::print_banner("Figure 1: extended message-passing structure");

  data::GeneratorConfig gen;
  gen.target_packets = 30'000;
  util::RngStream rng(1);
  const data::Sample sample =
      data::generate_sample(topo::geant2(), gen, rng);
  const data::Scaler scaler = data::Scaler::fit({&sample, 1});

  const core::MpPlan orig_plan = core::build_plan(sample, false);
  const core::MpPlan ext_plan = core::build_plan(sample, true);

  std::size_t ext_node_positions = 0, ext_link_positions = 0;
  for (std::size_t i = 0; i < ext_plan.num_positions(); ++i)
    (ext_plan.position(i).is_node ? ext_node_positions : ext_link_positions) +=
        1;
  const std::size_t ext_elems = ext_plan.total_entries();
  const std::size_t orig_elems = orig_plan.total_entries();

  util::Table structure({"quantity", "original", "extended"});
  structure
      .add_row({"path entities", util::Table::cell(orig_plan.num_paths),
                util::Table::cell(ext_plan.num_paths)})
      .add_row({"link entities", util::Table::cell(orig_plan.num_links),
                util::Table::cell(ext_plan.num_links)})
      .add_row({"node entities", "0 (not modelled)",
                util::Table::cell(ext_plan.num_nodes)})
      .add_row({"RNN_P sequence positions",
                util::Table::cell(orig_plan.num_positions()),
                util::Table::cell(ext_plan.num_positions())})
      .add_row({"  of which node positions", "0",
                util::Table::cell(ext_node_positions)})
      .add_row({"  of which link positions",
                util::Table::cell(orig_plan.num_positions()),
                util::Table::cell(ext_link_positions)})
      .add_row({"sequence elements (sum over paths)",
                util::Table::cell(orig_elems), util::Table::cell(ext_elems)})
      .add_row({"path->node incidences (RNN_N fan-in)", "0",
                util::Table::cell(ext_plan.inc_path_rows.size())});
  structure.print(std::cout);

  // The interleaving invariant of Fig. 1: node1-link1-node2-link2-...
  bool interleaved = true;
  for (std::size_t i = 0; i < ext_plan.num_positions(); ++i)
    interleaved &= (ext_plan.position(i).is_node == (i % 2 == 0));
  std::cout << "\ninterleaving node-link-node-link holds: "
            << (interleaved ? "YES" : "NO") << "\n\n";

  // -- per-architecture forward timing -----------------------------------
  core::ModelConfig mc;
  mc.state_dim = 16;
  mc.iterations = 4;
  const core::Model orig(core::ModelKind::kOriginal, mc);
  const core::Model ext(core::ModelKind::kExtended, mc);

  auto time_forward = [&](const core::Model& m) {
    const nn::NoGradGuard guard;
    util::Stopwatch w;
    constexpr int kReps = 20;
    for (int i = 0; i < kReps; ++i) (void)m.forward(sample, scaler);
    return w.seconds() / kReps * 1e3;
  };
  util::Table timing({"model", "forward (ms/sample)", "overhead vs original"});
  const double t_orig = time_forward(orig);
  const double t_ext = time_forward(ext);
  timing
      .add_row({"routenet", util::Table::cell(t_orig, 3), "1.00x"})
      .add_row({"routenet-ext", util::Table::cell(t_ext, 3),
                util::Table::cell(t_ext / t_orig, 2) + "x"});
  timing.print(std::cout);
  std::cout << "\nnode entity cost: the interleaved sequence doubles RNN_P "
               "positions;\nmeasured overhead should sit near 2x.\n";
  return 0;
}

#include "core/plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace rnx::core {

MpPlan build_plan(const data::Sample& sample, bool use_nodes) {
  MpPlan plan;
  plan.num_paths = sample.paths.size();
  plan.num_links = sample.num_links();
  plan.num_nodes = sample.num_nodes;
  plan.set_interleaved(use_nodes);

  std::size_t max_hops = 0;
  std::size_t total_hops = 0;
  for (const auto& p : sample.paths) {
    // Hop h reads nodes[h]; samples arrive without Sample::validate().
    if (use_nodes && p.nodes.size() < p.links.size())
      throw std::out_of_range("build_plan: path has fewer nodes than links");
    max_hops = std::max(max_hops, p.links.size());
    total_hops += p.links.size();
  }

  // Each path contributes one arena entry per traversed element: hops
  // link entries, plus hops node entries when interleaved.
  const std::size_t seq_len = use_nodes ? 2 * max_hops : max_hops;
  plan.arena_reserve(seq_len, use_nodes ? 2 * total_hops : total_hops);
  for (std::size_t pos = 0; pos < seq_len; ++pos) {
    const std::size_t hop = use_nodes ? pos / 2 : pos;
    const bool is_node = use_nodes && (pos % 2 == 0);
    for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
      const auto& path = sample.paths[pi];
      if (hop >= path.links.size()) continue;  // path already finished
      plan.push_entry(static_cast<nn::Index>(pi),
                      is_node ? static_cast<nn::Index>(path.nodes[hop])
                              : static_cast<nn::Index>(path.links[hop]));
    }
    plan.close_position();
  }
  // Trailing positions can be empty when use_nodes toggles parity; drop
  // any empty tail so the RNN loop does no zero-row work.
  plan.drop_empty_tail();

  if (use_nodes) {
    // A path "traverses" the nodes whose output queues it occupies:
    // nodes[0..hops-1] (the destination only receives).
    plan.inc_path_rows.reserve(total_hops);
    plan.inc_node_ids.reserve(total_hops);
    for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
      const auto& path = sample.paths[pi];
      for (std::size_t h = 0; h < path.links.size(); ++h) {
        plan.inc_path_rows.push_back(static_cast<nn::Index>(pi));
        plan.inc_node_ids.push_back(static_cast<nn::Index>(path.nodes[h]));
      }
    }
  }
  return plan;
}

RefPlan build_plan_reference(const data::Sample& sample, bool use_nodes) {
  RefPlan plan;
  plan.num_paths = sample.paths.size();
  plan.num_links = sample.num_links();
  plan.num_nodes = sample.num_nodes;

  std::size_t max_hops = 0;
  for (const auto& p : sample.paths)
    max_hops = std::max(max_hops, p.links.size());

  const std::size_t seq_len = use_nodes ? 2 * max_hops : max_hops;
  plan.positions.resize(seq_len);
  for (std::size_t pos = 0; pos < seq_len; ++pos) {
    RefSeqPosition& sp = plan.positions[pos];
    const std::size_t hop = use_nodes ? pos / 2 : pos;
    sp.is_node = use_nodes && (pos % 2 == 0);
    for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
      const auto& path = sample.paths[pi];
      if (hop >= path.links.size()) continue;
      sp.path_rows.push_back(static_cast<nn::Index>(pi));
      sp.elem_ids.push_back(sp.is_node
                                ? static_cast<nn::Index>(path.nodes[hop])
                                : static_cast<nn::Index>(path.links[hop]));
    }
  }
  while (!plan.positions.empty() && plan.positions.back().path_rows.empty())
    plan.positions.pop_back();

  if (use_nodes) {
    for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
      const auto& path = sample.paths[pi];
      for (std::size_t h = 0; h < path.links.size(); ++h) {
        plan.inc_path_rows.push_back(static_cast<nn::Index>(pi));
        plan.inc_node_ids.push_back(static_cast<nn::Index>(path.nodes[h]));
      }
    }
  }
  return plan;
}

std::vector<nn::Index> valid_label_rows(const data::Sample& sample,
                                        std::uint64_t min_delivered,
                                        PredictionTarget target) {
  std::vector<nn::Index> rows;
  for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
    const auto& p = sample.paths[pi];
    const double label = target == PredictionTarget::kDelay
                             ? p.mean_delay_s
                             : p.jitter_s2;
    if (p.delivered >= min_delivered && label > 0.0)
      rows.push_back(static_cast<nn::Index>(pi));
  }
  return rows;
}

}  // namespace rnx::core

#include "data/sample.hpp"

#include <cmath>
#include <stdexcept>

namespace rnx::data {

topo::Topology Sample::to_topology() const {
  topo::Graph g(num_nodes);
  for (const auto& l : links) g.add_link(l.src, l.dst);
  topo::Topology t(topo_name, std::move(g));
  for (topo::LinkId l = 0; l < links.size(); ++l)
    t.set_link_capacity(l, link_capacity_bps.at(l));
  for (topo::NodeId n = 0; n < num_nodes; ++n)
    t.set_queue_size(n, queue_pkts.at(n));
  return t;
}

void Sample::validate() const {
  if (num_nodes == 0) throw std::runtime_error("Sample: zero nodes");
  if (link_capacity_bps.size() != links.size())
    throw std::runtime_error("Sample: capacity count != link count");
  if (queue_pkts.size() != num_nodes)
    throw std::runtime_error("Sample: queue count != node count");
  for (const auto& l : links)
    if (l.src >= num_nodes || l.dst >= num_nodes)
      throw std::runtime_error("Sample: link endpoint out of range");
  // Written so NaN fails every check (NaN compares false to everything).
  for (const auto& c : link_capacity_bps)
    if (!std::isfinite(c) || c <= 0.0)
      throw std::runtime_error("Sample: non-positive or non-finite capacity");
  for (const auto& q : queue_pkts)
    if (q == 0) throw std::runtime_error("Sample: zero queue");
  try {
    scenario.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("Sample: bad scenario: ") + e.what());
  }
  for (const auto& p : paths) {
    if (p.nodes.size() < 2 || p.links.size() + 1 != p.nodes.size())
      throw std::runtime_error("Sample: malformed path");
    if (p.nodes.front() != p.src || p.nodes.back() != p.dst)
      throw std::runtime_error("Sample: path endpoints disagree");
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      const auto l = p.links[i];
      if (l >= links.size()) throw std::runtime_error("Sample: bad link id");
      if (links[l].src != p.nodes[i] || links[l].dst != p.nodes[i + 1])
        throw std::runtime_error("Sample: path/link mismatch");
    }
    if (!std::isfinite(p.traffic_bps) || p.traffic_bps < 0.0 ||
        !(p.loss_rate >= 0.0 && p.loss_rate <= 1.0))
      throw std::runtime_error("Sample: bad path attributes");
    if (p.priority_class >= scenario.priority_classes)
      throw std::runtime_error("Sample: path class out of scenario range");
  }
}

}  // namespace rnx::data

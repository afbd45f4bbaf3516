#include "topo/topology.hpp"

#include <cmath>
#include <stdexcept>

namespace rnx::topo {

Topology::Topology(std::string name, Graph graph)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      capacity_bps_(graph_.num_links(), 0.0),
      prop_delay_s_(graph_.num_links(), 0.0),
      queue_pkts_(graph_.num_nodes(), kStandardQueuePackets) {}

void Topology::set_link_capacity(LinkId l, double bits_per_sec) {
  if (!(bits_per_sec > 0.0) || !std::isfinite(bits_per_sec))
    throw std::invalid_argument(
        "Topology: capacity must be positive and finite");
  capacity_bps_.at(l) = bits_per_sec;
}

void Topology::set_all_capacities(double bits_per_sec) {
  for (LinkId l = 0; l < graph_.num_links(); ++l)
    set_link_capacity(l, bits_per_sec);
}

void Topology::set_link_prop_delay(LinkId l, double seconds) {
  if (!(seconds >= 0.0) || !std::isfinite(seconds))
    throw std::invalid_argument(
        "Topology: propagation delay must be non-negative and finite");
  prop_delay_s_.at(l) = seconds;
}

void Topology::set_queue_size(NodeId n, std::uint32_t packets) {
  if (packets == 0)
    throw std::invalid_argument("Topology: queue must hold >= 1 packet");
  queue_pkts_.at(n) = packets;
}

void Topology::set_all_queue_sizes(std::uint32_t packets) {
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) set_queue_size(n, packets);
}

void Topology::validate() const {
  for (LinkId l = 0; l < graph_.num_links(); ++l) {
    if (!(capacity_bps_[l] > 0.0) || !std::isfinite(capacity_bps_[l]))
      throw std::logic_error("Topology: link " + std::to_string(l) +
                             " has no finite capacity");
    if (!(prop_delay_s_[l] >= 0.0) || !std::isfinite(prop_delay_s_[l]))
      throw std::logic_error("Topology: link " + std::to_string(l) +
                             " has no finite propagation delay");
  }
  for (NodeId n = 0; n < graph_.num_nodes(); ++n)
    if (queue_pkts_[n] == 0)
      throw std::logic_error("Topology: node " + std::to_string(n) +
                             " has zero queue");
}

}  // namespace rnx::topo

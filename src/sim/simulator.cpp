#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rnx::sim {

namespace {

enum EvKind : std::uint32_t { kFlowGen, kHopArrival, kDeparture };

struct Flow {
  topo::NodeId src;
  topo::NodeId dst;
  double rate_pps;
  std::uint8_t cls;
  const topo::Path* path;
  util::RngStream rng;
  std::unique_ptr<ArrivalProcess> arrivals;
};

struct Port {
  std::unique_ptr<Scheduler> sched;     // waiting packets
  std::optional<SimPacket> in_service;  // transmitting packet, if any
  std::uint32_t capacity;    // max packets in system (service included)
  double service_start = 0;  // start time of current service
  // occupancy integration (measurement window only)
  double last_change = 0.0;
  double occupancy_integral = 0.0;
  double busy_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;

  [[nodiscard]] std::size_t occupancy() const noexcept {
    return sched->size() + (in_service.has_value() ? 1u : 0u);
  }
};

}  // namespace

Simulator::Simulator(const topo::Topology& topo,
                     const topo::RoutingScheme& routing,
                     const topo::TrafficMatrix& traffic, SimConfig config)
    : topo_(topo), routing_(routing), traffic_(traffic),
      cfg_(std::move(config)) {
  if (topo.num_nodes() != routing.num_nodes() ||
      topo.num_nodes() != traffic.num_nodes())
    throw std::invalid_argument("Simulator: size mismatch between inputs");
  // Every event time is 0 plus non-negative finite gaps, the invariant
  // the event queue's rank relies on (sim/event_queue.hpp): reject NaN
  // and infinite inputs here rather than mis-order events later.  The
  // topology keeps its own capacities positive and finite and its
  // propagation delays finite and >= 0 (Topology::validate).
  if (!(cfg_.window_s > 0.0) || !(cfg_.warmup_s >= 0.0) ||
      !std::isfinite(cfg_.window_s + cfg_.warmup_s))
    throw std::invalid_argument("Simulator: bad time configuration");
  if (!(cfg_.mean_packet_bits > 0.0) || !std::isfinite(cfg_.mean_packet_bits))
    throw std::invalid_argument("Simulator: bad packet size");
  cfg_.scenario.validate();
  topo.validate();
}

SimResult Simulator::run() {
  const double w_start = cfg_.warmup_s;
  const double w_end = cfg_.warmup_s + cfg_.window_s;
  const util::RngStream root(cfg_.seed);
  const std::uint32_t num_classes = cfg_.scenario.priority_classes;

  // --- flows ----------------------------------------------------------
  std::vector<Flow> flows;
  for (const auto& [s, d] : routing_.pairs()) {
    const double bps = traffic_.get(s, d);
    if (bps <= 0.0) continue;
    const double rate_pps = bps / cfg_.mean_packet_bits;
    const std::uint32_t cls =
        cfg_.flow_class ? std::min(cfg_.flow_class(s, d), num_classes - 1)
                        : 0u;
    flows.push_back(Flow{s, d, rate_pps, static_cast<std::uint8_t>(cls),
                         &routing_.path(s, d),
                         root.derive("flow", flows.size()),
                         make_arrival_process(cfg_.scenario, rate_pps)});
  }

  // --- ports ----------------------------------------------------------
  std::vector<Port> ports(topo_.num_links());
  for (topo::LinkId l = 0; l < topo_.num_links(); ++l) {
    ports[l].sched = make_scheduler(cfg_.scenario, cfg_.mean_packet_bits);
    ports[l].capacity = topo_.queue_size(topo_.graph().link(l).src);
  }

  // --- per-flow statistics ---------------------------------------------
  std::vector<util::Welford> delay(flows.size());
  std::vector<std::uint64_t> generated(flows.size(), 0);
  std::vector<std::uint64_t> dropped(flows.size(), 0);

  // --- event loop -------------------------------------------------------
  // Ids are flow indices (kFlowGen) or link indices (the others).
  const auto max_id = static_cast<std::uint32_t>(
      std::max<std::size_t>({flows.size(), ports.size(), 1}) - 1);
  EventQueue queue(max_id);
  // Packets on each link's wire, in departure order: a port's departures
  // are time-ordered and its delay is fixed, so its hop arrivals come due
  // in the order they were pushed.
  std::vector<std::deque<SimPacket>> wires(ports.size());
  std::uint64_t events = 0;
  bool truncated = false;

  auto window_overlap = [&](double a, double b) {
    return std::max(0.0, std::min(b, w_end) - std::max(a, w_start));
  };
  auto integrate = [&](Port& p, double now) {
    const double span = window_overlap(p.last_change, now);
    if (span > 0.0)
      p.occupancy_integral += span * static_cast<double>(p.occupancy());
    p.last_change = now;
  };

  auto start_service = [&](topo::LinkId l, double now) {
    Port& p = ports[l];
    p.service_start = now;
    const double svc = p.in_service->size_bits / topo_.link_capacity(l);
    queue.push(now + svc, kDeparture, l);
  };

  // Offer a packet to the port of its current hop; drop-tail if full.
  auto offer = [&](const SimPacket& pkt, double now) {
    const Flow& f = flows[pkt.flow];
    const topo::LinkId l = f.path->links[pkt.hop];
    Port& p = ports[l];
    ++p.arrivals;
    if (p.occupancy() >= p.capacity) {
      ++p.drops;
      if (pkt.measured) ++dropped[pkt.flow];
      return;
    }
    integrate(p, now);
    if (!p.in_service.has_value()) {
      p.in_service = pkt;
      start_service(l, now);
    } else {
      p.sched->push(pkt);
    }
  };

  auto schedule_gen = [&](std::uint32_t fi, double now) {
    Flow& f = flows[fi];
    const double next = f.arrivals->next(now, f.rng);
    if (next < w_end) queue.push(next, kFlowGen, fi);
  };

  // Prime every flow with its first arrival.
  for (std::uint32_t fi = 0; fi < flows.size(); ++fi) schedule_gen(fi, 0.0);

  // Pushes made while handling an event reuse its heap slot (replace-top,
  // sim/event_queue.hpp); the pop order, and so every result, is that of
  // a plain (time, seq) priority queue.
  while (!queue.empty()) {
    if (events == cfg_.max_events) {
      util::log_warn("Simulator: event cap reached, truncating run");
      truncated = true;
      break;
    }
    ++events;
    const QueuedEvent ev = queue.take();
    const double now = ev.time;

    switch (ev.kind) {
      case kFlowGen: {
        Flow& f = flows[ev.id];
        SimPacket pkt;
        pkt.gen_time = now;
        pkt.flow = ev.id;
        pkt.hop = 0;
        pkt.cls = f.cls;
        pkt.measured = (now >= w_start && now < w_end);
        pkt.size_bits = cfg_.size_dist == PacketSizeDist::kExponential
                            ? f.rng.exponential(cfg_.mean_packet_bits)
                            : cfg_.mean_packet_bits;
        if (pkt.measured) ++generated[ev.id];
        schedule_gen(ev.id, now);
        offer(pkt, now);
        break;
      }
      case kDeparture: {
        Port& p = ports[ev.id];
        integrate(p, now);
        SimPacket pkt = *p.in_service;
        p.in_service.reset();
        p.busy_s += window_overlap(p.service_start, now);
        if (!p.sched->empty()) {
          p.in_service = p.sched->pop_next();
          start_service(ev.id, now);
        }

        const Flow& f = flows[pkt.flow];
        const double prop = topo_.link_prop_delay(ev.id);
        const double arrive = now + prop;
        ++pkt.hop;
        if (pkt.hop == f.path->links.size()) {
          if (pkt.measured) delay[pkt.flow].add(arrive - pkt.gen_time);
        } else if (prop == 0.0) {
          offer(pkt, arrive);  // fast path: no wire latency, no heap trip
        } else {
          wires[ev.id].push_back(pkt);
          queue.push(arrive, kHopArrival, ev.id);
        }
        break;
      }
      case kHopArrival:
        offer(wires[ev.id].front(), now);
        wires[ev.id].pop_front();
        break;
    }
    queue.settle();
  }

  // --- assemble results --------------------------------------------------
  SimResult res;
  res.total_events = events;
  res.truncated = truncated;
  res.sim_time_s = w_end;
  res.paths.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    PathStats ps;
    ps.src = flows[i].src;
    ps.dst = flows[i].dst;
    ps.generated = generated[i];
    ps.delivered = delay[i].count();
    ps.dropped = dropped[i];
    ps.mean_delay_s = delay[i].mean();
    ps.jitter_s2 = delay[i].variance();
    ps.min_delay_s = delay[i].min();
    ps.max_delay_s = delay[i].max();
    res.paths.push_back(ps);
  }
  res.links.resize(ports.size());
  for (std::size_t l = 0; l < ports.size(); ++l) {
    // Close the occupancy integral at the window end.
    integrate(ports[l], w_end);
    LinkStats& ls = res.links[l];
    ls.arrivals = ports[l].arrivals;
    ls.drops = ports[l].drops;
    ls.utilization = ports[l].busy_s / cfg_.window_s;
    ls.mean_queue_pkts = ports[l].occupancy_integral / cfg_.window_s;
  }
  return res;
}

}  // namespace rnx::sim

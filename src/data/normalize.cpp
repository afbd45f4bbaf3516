#include "data/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "data/source.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"

namespace rnx::data {

namespace {
Moments from_welford(const util::Welford& w) {
  Moments m;
  m.mean = w.mean();
  // Guard against degenerate channels (e.g. all queues identical when
  // randomize_queues is off): fall back to unit scale.
  m.stddev = w.stddev() > 1e-12 ? w.stddev() : 1.0;
  return m;
}

// One accumulator for both fit overloads: per-sample order fixed here,
// so in-memory and streaming fits agree bit for bit.
struct FitAccumulator {
  util::Welford traffic, capacity, queue, log_delay, log_jitter;
  std::uint64_t min_delivered;

  explicit FitAccumulator(std::uint64_t min_delivered_)
      : min_delivered(min_delivered_) {}

  void add(const Sample& s) {
    for (const double c : s.link_capacity_bps) capacity.add(c);
    for (const auto q : s.queue_pkts) queue.add(static_cast<double>(q));
    for (const auto& p : s.paths) {
      traffic.add(p.traffic_bps);
      if (p.delivered >= min_delivered && p.mean_delay_s > 0.0)
        log_delay.add(std::log(p.mean_delay_s));
      if (p.delivered >= min_delivered && p.jitter_s2 > 0.0)
        log_jitter.add(std::log(p.jitter_s2));
    }
  }

  [[nodiscard]] Scaler finish() const {
    if (log_delay.count() == 0)
      throw std::invalid_argument("Scaler::fit: no usable delay labels");
    // Jitter labels can legitimately be absent (e.g. deterministic
    // packet sizes at trivial load); leave unit moments in that case.
    const Moments lj =
        log_jitter.count() > 0 ? from_welford(log_jitter) : Moments{};
    return Scaler::from_moments(from_welford(traffic),
                                from_welford(capacity), from_welford(queue),
                                from_welford(log_delay), lj);
  }
};

// Samples reach the forward pass without Sample::validate(), so every id
// and per-entity vector read here is range-checked first, with the
// exception type of the model's own index guards.
std::size_t checked_link(const Sample& s, std::size_t l) {
  if (l >= s.num_links() || l >= s.link_capacity_bps.size())
    throw std::out_of_range("link id " + std::to_string(l) +
                            " out of range (" + std::to_string(s.num_links()) +
                            " links, " +
                            std::to_string(s.link_capacity_bps.size()) +
                            " capacities)");
  return l;
}

}  // namespace

Scaler Scaler::fit(std::span<const Sample> train, std::uint64_t min_delivered) {
  FitAccumulator acc(min_delivered);
  for (const auto& s : train) acc.add(s);
  return acc.finish();
}

Scaler Scaler::fit(SampleSource& train, std::uint64_t min_delivered) {
  FitAccumulator acc(min_delivered);
  train.reset();
  while (const auto sp = train.next()) acc.add(*sp);
  return acc.finish();
}

Scaler Scaler::from_moments(const Moments& traffic, const Moments& capacity,
                            const Moments& queue, const Moments& log_delay,
                            const Moments& log_jitter) {
  const auto check = [](const Moments& m, const char* channel) {
    if (!std::isfinite(m.mean) || !std::isfinite(m.stddev) ||
        m.stddev <= 0.0)
      throw std::invalid_argument(
          std::string("Scaler::from_moments: invalid moments for ") +
          channel);
  };
  check(traffic, "traffic");
  check(capacity, "capacity");
  check(queue, "queue");
  check(log_delay, "log_delay");
  check(log_jitter, "log_jitter");
  Scaler sc;
  sc.traffic_ = traffic;
  sc.capacity_ = capacity;
  sc.queue_ = queue;
  sc.log_delay_ = log_delay;
  sc.log_jitter_ = log_jitter;
  return sc;
}

double Scaler::delay_to_target(double delay_s) const {
  if (delay_s <= 0.0)
    throw std::invalid_argument("Scaler: non-positive delay");
  return log_delay_.normalize(std::log(delay_s));
}

double Scaler::target_to_delay(double target) const {
  return std::exp(log_delay_.denormalize(target));
}

double Scaler::jitter_to_target(double jitter_s2) const {
  if (jitter_s2 <= 0.0)
    throw std::invalid_argument("Scaler: non-positive jitter");
  return log_jitter_.normalize(std::log(jitter_s2));
}

double Scaler::target_to_jitter(double target) const {
  return std::exp(log_jitter_.denormalize(target));
}

std::vector<double> link_utilization(const Sample& s) {
  std::vector<double> load(s.num_links(), 0.0);
  for (const auto& p : s.paths)
    for (const auto l : p.links) load[checked_link(s, l)] += p.traffic_bps;
  for (std::size_t l = 0; l < load.size(); ++l) {
    const double cap = s.link_capacity_bps[checked_link(s, l)];
    load[l] = cap > 0.0 ? load[l] / cap : 0.0;
  }
  return load;
}

std::vector<double> path_bottleneck_load(const Sample& s) {
  std::vector<double> out(s.paths.size(), 0.0);
  for (std::size_t pi = 0; pi < s.paths.size(); ++pi) {
    const auto& p = s.paths[pi];
    if (p.links.empty()) continue;
    double bottleneck = s.link_capacity_bps[checked_link(s, p.links.front())];
    for (const auto l : p.links)
      bottleneck = std::min(bottleneck, s.link_capacity_bps[checked_link(s, l)]);
    out[pi] = bottleneck > 0.0 ? p.traffic_bps / bottleneck : 0.0;
  }
  return out;
}

std::vector<double> node_queue_fraction(const Sample& s) {
  if (s.queue_pkts.size() < s.num_nodes)
    throw std::out_of_range("node_queue_fraction: " +
                            std::to_string(s.queue_pkts.size()) +
                            " queue sizes for " + std::to_string(s.num_nodes) +
                            " nodes");
  std::vector<double> out(s.num_nodes, 0.0);
  for (std::size_t n = 0; n < s.num_nodes; ++n)
    out[n] = static_cast<double>(s.queue_pkts[n]) /
             static_cast<double>(topo::kStandardQueuePackets);
  return out;
}

}  // namespace rnx::data

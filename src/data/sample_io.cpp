#include "data/sample_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "sim/scenario.hpp"
#include "util/binio.hpp"

namespace rnx::data::io {

namespace {
// Bounds on length fields: far above any real sample, far below an
// allocation that could hurt.
constexpr std::uint32_t kMaxNameLen = 1u << 20;
constexpr std::uint64_t kMaxElems = 1ull << 28;
}  // namespace

void write_sample(std::ostream& f, const Sample& s) {
  using util::put;
  using util::put_vec;
  util::put_string(f, s.topo_name);
  put(f, s.num_nodes);
  put_vec(f, s.links);
  put_vec(f, s.link_capacity_bps);
  put_vec(f, s.queue_pkts);
  put(f, s.max_utilization);
  put(f, static_cast<std::uint8_t>(s.scenario_recorded ? 1 : 0));
  put(f, static_cast<std::uint8_t>(s.scenario.policy));
  put(f, static_cast<std::uint8_t>(s.scenario.traffic));
  put(f, s.scenario.priority_classes);
  put(f, s.scenario.onoff_burst_pkts);
  put(f, s.scenario.onoff_duty);
  put(f, s.scenario.drr_quantum_bits);
  put(f, static_cast<std::uint64_t>(s.paths.size()));
  for (const auto& p : s.paths) {
    put(f, p.src);
    put(f, p.dst);
    put_vec(f, p.nodes);
    put_vec(f, p.links);
    put(f, p.traffic_bps);
    put(f, p.priority_class);
    put(f, p.mean_delay_s);
    put(f, p.jitter_s2);
    put(f, p.loss_rate);
    put(f, p.delivered);
  }
}

Sample read_sample(std::istream& f, std::uint32_t version,
                   const std::string& what) {
  util::Reader<> r(f, what);
  Sample s;
  s.topo_name = r.get_string("topology name", 0, kMaxNameLen);
  r.get(s.num_nodes);
  r.get_vec(s.links, kMaxElems);
  r.get_vec(s.link_capacity_bps, kMaxElems);
  r.get_vec(s.queue_pkts, kMaxElems);
  r.get(s.max_utilization);
  if (version >= 2) {
    std::uint8_t recorded = 0, policy = 0, traffic = 0;
    r.get(recorded);
    r.get(policy);
    r.get(traffic);
    if (policy >= sim::kNumSchedulerPolicies)
      r.fail("invalid scheduler policy " + std::to_string(policy));
    if (traffic >= sim::kNumTrafficProcesses)
      r.fail("invalid traffic process " + std::to_string(traffic));
    s.scenario_recorded = recorded != 0;
    s.scenario.policy = static_cast<sim::SchedulerPolicy>(policy);
    s.scenario.traffic = static_cast<sim::TrafficProcess>(traffic);
    r.get(s.scenario.priority_classes);
    r.get(s.scenario.onoff_burst_pkts);
    r.get(s.scenario.onoff_duty);
    r.get(s.scenario.drr_quantum_bits);
  }
  std::uint64_t np = 0;
  r.get(np);
  if (np > kMaxElems) r.fail("implausible path count");
  s.paths.resize(np);
  for (auto& p : s.paths) {
    r.get(p.src);
    r.get(p.dst);
    r.get_vec(p.nodes, kMaxElems);
    r.get_vec(p.links, kMaxElems);
    r.get(p.traffic_bps);
    if (version >= 2) r.get(p.priority_class);
    r.get(p.mean_delay_s);
    r.get(p.jitter_s2);
    r.get(p.loss_rate);
    r.get(p.delivered);
  }
  return s;
}

std::uint64_t sample_digest(const Sample& s) {
  std::ostringstream bytes(std::ios::binary);
  write_sample(bytes, s);
  return util::fnv1a64(bytes.view());
}

void write_dataset_header(std::ostream& f, std::uint64_t count) {
  f.write(kDatasetMagic.data(), kDatasetMagic.size());
  util::put(f, kDatasetVersion);
  util::put(f, count);
}

DatasetHeader read_dataset_header(std::istream& f, std::uint64_t file_bytes,
                                  const std::string& what) {
  util::Reader<> r(f, what);
  if (!util::read_magic(f, kDatasetMagic)) r.fail("bad magic");
  DatasetHeader h;
  r.get(h.version);
  if (h.version < kDatasetMinVersion || h.version > kDatasetVersion)
    r.fail("unsupported version " + std::to_string(h.version));
  r.get(h.count);
  // A corrupt/truncated header must not drive a huge reserve(): every
  // sample needs at least kMinSampleBytes, so the claimed count is
  // bounded by the bytes actually present after the prelude.
  const std::uint64_t payload =
      file_bytes > kDatasetHeaderBytes ? file_bytes - kDatasetHeaderBytes : 0;
  if (h.count > payload / kMinSampleBytes)
    r.fail("implausible sample count " + std::to_string(h.count) +
           " for a " + std::to_string(file_bytes) + "-byte file");
  return h;
}

void write_dataset_stream(std::ostream& f,
                          const std::vector<Sample>& samples) {
  write_dataset_header(f, static_cast<std::uint64_t>(samples.size()));
  for (const auto& s : samples) write_sample(f, s);
}

std::vector<Sample> read_dataset_stream(std::istream& f,
                                        std::uint64_t file_bytes,
                                        const std::string& what) {
  const DatasetHeader h = read_dataset_header(f, file_bytes, what);
  std::vector<Sample> samples;
  samples.reserve(h.count);
  for (std::uint64_t i = 0; i < h.count; ++i) {
    Sample s = read_sample(f, h.version, what);
    s.validate();
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace rnx::data::io

#include "serve/bundle.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "util/binio.hpp"

namespace rnx::serve {

namespace {

constexpr util::EnvelopeFormat kBundleFormat{
    .magic = "RNXB",
    .min_version = kMinBundleVersion,
    .max_version = kBundleVersion,
    .noun = "bundle",
    .extension = ".rnxb",
};

}  // namespace

void save_bundle(const std::string& path, const core::Model& model,
                 const data::Scaler& scaler, core::PredictionTarget target,
                 std::uint64_t min_delivered) {
  using util::put;
  std::ostringstream body(std::ios::binary);
  put(body, static_cast<std::uint8_t>(model.kind()));
  put(body, static_cast<std::uint8_t>(target));
  put(body, min_delivered);
  const core::ModelConfig& mc = model.config();
  put(body, static_cast<std::uint64_t>(mc.state_dim));
  put(body, static_cast<std::uint64_t>(mc.readout_hidden));
  put(body, static_cast<std::uint64_t>(mc.iterations));
  put(body, static_cast<std::uint8_t>(mc.node_rule));
  put(body, static_cast<std::uint8_t>(mc.node_mean_aggregation));
  put(body, static_cast<std::uint8_t>(mc.fused_gru));
  put(body, static_cast<std::uint8_t>(mc.scenario_features));
  put(body, static_cast<std::uint8_t>(mc.scale_invariant_features));
  put(body, static_cast<std::uint8_t>(mc.link_mean_aggregation));
  put(body, mc.init_seed);
  put(body, std::array{scaler.traffic_moments(), scaler.capacity_moments(),
                       scaler.queue_moments(), scaler.log_delay_moments(),
                       scaler.log_jitter_moments()});
  nn::save_params(body, model.named_params());
  util::write_envelope(path, kBundleFormat, kFp64BundleVersion, body.view());
}

ModelBundle load_bundle(const std::string& path) {
  const std::string what = "load_bundle(" + path + ")";
  util::Envelope env = util::read_envelope(path, kBundleFormat, what);
  const std::uint32_t version = env.version;
  std::istringstream body(std::move(env.body), std::ios::binary);
  util::Reader<> r(body, what);

  std::uint8_t kind_byte = 0, target_byte = 0;
  r.get(kind_byte);
  r.get(target_byte);
  if (kind_byte > 1)
    r.fail("invalid model kind byte " + std::to_string(kind_byte));
  const auto kind = static_cast<core::ModelKind>(kind_byte);
  if (target_byte > 1)
    r.fail("invalid prediction target byte " + std::to_string(target_byte));

  ModelBundle out;
  out.target = static_cast<core::PredictionTarget>(target_byte);
  r.get(out.min_delivered);

  core::ModelConfig mc;
  std::uint64_t state_dim = 0, readout_hidden = 0, iterations = 0;
  r.get(state_dim);
  r.get(readout_hidden);
  r.get(iterations);
  mc.state_dim = static_cast<std::size_t>(state_dim);
  mc.readout_hidden = static_cast<std::size_t>(readout_hidden);
  mc.iterations = static_cast<std::size_t>(iterations);
  std::uint8_t node_rule = 0, node_mean = 0, fused = 0;
  r.get(node_rule);
  if (node_rule > 1)
    r.fail("invalid node rule byte " + std::to_string(node_rule));
  mc.node_rule = static_cast<core::NodeUpdateRule>(node_rule);
  r.get(node_mean);
  mc.node_mean_aggregation = node_mean != 0;
  r.get(fused);
  mc.fused_gru = fused != 0;
  if (version >= 2) {
    std::uint8_t scenario = 0;
    r.get(scenario);
    mc.scenario_features = scenario != 0;
  }
  if (version >= 3) {
    // v3 feature flags; older bundles imply both off, so v1/v2 files
    // keep loading (and serving) byte-for-byte as before.
    std::uint8_t scale_inv = 0, link_mean = 0;
    r.get(scale_inv);
    mc.scale_invariant_features = scale_inv != 0;
    r.get(link_mean);
    mc.link_mean_aggregation = link_mean != 0;
  }
  std::uint8_t enc_byte = 0;  // v1-v3 bundles are always fp64
  if (version >= 4) {
    r.get(enc_byte);
    if (enc_byte > static_cast<std::uint8_t>(nn::WeightEncoding::kInt8))
      r.fail("invalid weight encoding byte " + std::to_string(enc_byte));
  }
  out.encoding = static_cast<nn::WeightEncoding>(enc_byte);
  r.get(mc.init_seed);

  // traffic, capacity, queue, log delay, log jitter
  std::array<data::Moments, 5> m;
  r.get(m);
  out.scaler = data::Scaler::from_moments(m[0], m[1], m[2], m[3], m[4]);

  out.model = core::make_model(kind, mc);
  nn::NamedParams params = out.model->named_params();
  // The section magic must agree with the header's encoding byte.
  nn::load_params(body, params, out.encoding);
  return out;
}

}  // namespace rnx::serve

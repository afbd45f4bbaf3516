// Legacy quantized bundles (DESIGN.md §K): the read side of the fp16 /
// int8 "RNXQ" weight sections and the v4 .rnxb container.
//
// Nothing in the tree writes these files any more, so the decoder is
// pinned on two v4 bundles checked in under tests/fixtures:
//   * each fixture's file bytes, v4 header and encoding, decoded fp64
//     weights and scalar-backend predictions, plus the prediction drift
//     from the fp64 model it was quantized from;
//   * binary16 decoding on raw bits;
//   * corrupt input fails loudly: truncation, wrong magic, bad tags,
//     bad int8 scales, a bad header encoding byte, a header encoding
//     that disagrees with the section magic, and bit rot.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/kernels.hpp"
#include "nn/serialize.hpp"
#include "serve/bundle.hpp"
#include "serve/inference.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;
using nn::WeightEncoding;
namespace fs = std::filesystem;

// ---- fp16 decoding ---------------------------------------------------------

struct Fp16Case {
  std::uint16_t bits;
  double value;
};

void expect_decodes(const std::vector<Fp16Case>& table) {
  for (const Fp16Case& c : table)
    EXPECT_EQ(nn::fp16_to_double(c.bits), c.value) << std::hex << c.bits;
}

TEST(QuantizeFp16, ExactValuesDecode) {
  expect_decodes({{0x3c00, 1.0},
                  {0xbc00, -1.0},
                  {0x3800, 0.5},
                  {0xc100, -2.5},
                  {0x6400, 1024.0},
                  {0x7bff, 65504.0},  // largest finite half
                  {0xfbff, -65504.0},
                  {0x0400, std::ldexp(1.0, -14)}});  // smallest normal
}

TEST(QuantizeFp16, SignedZeroAndInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_decodes({{0x0000, 0.0}, {0x8000, 0.0}, {0x7c00, inf},
                  {0xfc00, -inf}});
  EXPECT_FALSE(std::signbit(nn::fp16_to_double(0x0000)));
  EXPECT_TRUE(std::signbit(nn::fp16_to_double(0x8000)));
}

TEST(QuantizeFp16, NanStaysNan) {
  for (const std::uint16_t bits : {0x7e00, 0xfe00, 0x7c01})
    EXPECT_TRUE(std::isnan(nn::fp16_to_double(bits))) << std::hex << bits;
}

TEST(QuantizeFp16, SubnormalsRepresented) {
  expect_decodes({{0x0001, std::ldexp(1.0, -24)},  // smallest subnormal
                  {0x8001, -std::ldexp(1.0, -24)},
                  {0x03ff, 1023.0 * std::ldexp(1.0, -24)}});
}

// ---- the v4 fixtures -------------------------------------------------------

// Both fixtures hold the extended model at DiskFormatGolden's config
// (state_dim 8, readout_hidden 12, 3 iterations, init_seed 11) with its
// fixed scaler moments, target delay and min_delivered 10, written by
// save_bundle's former fp16 and int8 modes.  file_digest is the value
// DiskFormatGolden.BundleBytes pinned for those saves.
struct Fixture {
  const char* file;
  WeightEncoding encoding;
  std::uint64_t file_digest;
  std::uint64_t weights_digest;             // decoded fp64 weights
  std::uint64_t scalar_predictions_digest;  // on fixture_dataset()
  double max_mean_drift;  // mean relative error vs the fp64 model
};
constexpr Fixture kFp16Fixture{"ext_fp16_v4.rnxb", WeightEncoding::kFp16,
                               3477494399091911347ull, 7649064042824947956ull,
                               11937857935938710824ull, 5e-3};
constexpr Fixture kInt8Fixture{"ext_int8_v4.rnxb", WeightEncoding::kInt8,
                               6160407561766415403ull, 8583573126245381391ull,
                               2303476040042046429ull, 2e-1};
constexpr Fixture kFixtures[] = {kFp16Fixture, kInt8Fixture};

// The weight section follows the 24-byte envelope and the 129-byte v4
// header; the header's encoding byte follows kind, target,
// min_delivered, three u64 dims and six u8 flags.
constexpr std::size_t kSectionOffset = 24 + 129;
constexpr std::size_t kEncodingOffset = 24 + 40;

std::string fixture_path(const Fixture& fx) {
  return std::string(RNX_LINT_SOURCE_DIR) + "/tests/fixtures/" + fx.file;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), {}};
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// DiskFormatGolden's two-sample ring(4) dataset.
const data::Dataset& fixture_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig cfg;
    cfg.target_packets = 2'000;
    return data::Dataset(data::generate_dataset(topo::ring(4), 2, cfg, 7));
  }();
  return ds;
}

core::ModelConfig fixture_config() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 3;
  mc.init_seed = 11;
  return mc;
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() /
          ("rnx_quantize." + std::to_string(::getpid()) + "." + name +
           ".rnxb"))
      .string();
}

// Recompute the envelope's body checksum after editing the body.
void reseal(std::string& bytes) {
  const std::uint64_t sum = fnv1a(bytes.data() + 24, bytes.size() - 24);
  std::memcpy(bytes.data() + 16, &sum, sizeof(sum));
}

// `load` must throw a runtime_error whose message contains `needle`.
template <typename Load>
void expect_rejected(const Load& load, const std::string& needle) {
  try {
    load();
    ADD_FAILURE() << "corrupt input accepted; want '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void expect_bundle_rejected(const std::string& bytes,
                            const std::string& needle) {
  const std::string path = temp_path("corrupt");
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  expect_rejected([&] { (void)serve::load_bundle(path); }, needle);
  fs::remove(path);
}

TEST(QuantizeBundle, FixturesLoadAsV4) {
  for (const Fixture& fx : kFixtures) {
    const std::string bytes = slurp(fixture_path(fx));
    ASSERT_GE(bytes.size(), 8u) << fx.file;
    EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), fx.file_digest) << fx.file;
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, 4);
    EXPECT_EQ(version, serve::kBundleVersion) << fx.file;

    const serve::ModelBundle b = serve::load_bundle(fixture_path(fx));
    EXPECT_EQ(b.encoding, fx.encoding) << fx.file;
    EXPECT_EQ(b.kind(), core::ModelKind::kExtended) << fx.file;
    EXPECT_EQ(b.model->config().state_dim, 8u) << fx.file;
    EXPECT_EQ(b.model->config().iterations, 3u) << fx.file;
    EXPECT_EQ(b.min_delivered, 10u) << fx.file;
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const auto& [name, var] : b.model->named_params())
      h = fnv1a(var.value().flat().data(),
                var.value().size() * sizeof(double), h);
    EXPECT_EQ(h, fx.weights_digest) << fx.file;
  }
}

TEST(QuantizeBundle, FixtureScalarPredictionsPinned) {
  const nn::kernels::ScopedBackendOverride scalar(
      nn::kernels::scalar_backend());
  for (const Fixture& fx : kFixtures) {
    const serve::InferenceEngine engine(fixture_path(fx));
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const auto& sample : fixture_dataset().samples()) {
      const std::vector<double> p = engine.predict(sample);
      h = fnv1a(p.data(), p.size() * sizeof(double), h);
    }
    EXPECT_EQ(h, fx.scalar_predictions_digest) << fx.file;
  }
}

// The fixtures were quantized from freshly initialised weights, which
// the stored config (init_seed included) rebuilds exactly.  Under the
// active backend, quantized predictions must track that fp64 model
// within a pinned mean relative error: fp16 keeps ~3 significant digits
// of every weight, int8 is coarser.
TEST(QuantizeBundle, PredictionDriftWithinPinnedBound) {
  for (const Fixture& fx : kFixtures) {
    const serve::InferenceEngine quant(fixture_path(fx));
    serve::ModelBundle fp64 = serve::load_bundle(fixture_path(fx));
    fp64.model = core::make_model(fp64.kind(), fp64.model->config());
    const serve::InferenceEngine full(std::move(fp64));
    double err_sum = 0.0;
    std::size_t count = 0;
    for (const auto& sample : fixture_dataset().samples()) {
      const std::vector<double> a = full.predict(sample);
      const std::vector<double> b = quant.predict(sample);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        err_sum += std::abs(b[i] - a[i]) / std::max(std::abs(a[i]), 1e-12);
        ++count;
      }
    }
    ASSERT_GT(count, 0u);
    EXPECT_LT(err_sum / static_cast<double>(count), fx.max_mean_drift)
        << fx.file;
  }
}

// save_bundle writes the v3 layout, which load_bundle reads as fp64.
TEST(QuantizeBundle, Fp64SaveStaysByteIdenticalV3) {
  const auto model = core::make_model(core::ModelKind::kExtended,
                                      fixture_config());
  const std::string path = temp_path("fp64");
  serve::save_bundle(path, *model,
                     serve::load_bundle(fixture_path(kFp16Fixture)).scaler,
                     core::PredictionTarget::kDelay, 10);
  const std::string bytes = slurp(path);
  ASSERT_GE(bytes.size(), 8u);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  EXPECT_EQ(version, serve::kFp64BundleVersion);
  EXPECT_EQ(serve::load_bundle(path).encoding, WeightEncoding::kFp64);
  fs::remove(path);
}

TEST(QuantizeBundle, CorruptQuantSectionRejectedByChecksum) {
  std::string bytes = slurp(fixture_path(kInt8Fixture));
  bytes[bytes.size() - 5] ^= 0x01;  // flip one quantized payload bit
  expect_bundle_rejected(bytes, "checksum");
}

// The header's encoding byte selects the weight reader.  It must name a
// known encoding, and the section magic must agree with it: a v4 header
// claiming fp64 in front of an "RNXQ" section is refused.  Both edits
// re-seal the checksum, so only these guards stand in the way.
TEST(QuantizeBundle, SectionMagicMustMatchHeaderEncoding) {
  const std::string bytes = slurp(fixture_path(kInt8Fixture));
  ASSERT_EQ(bytes[kEncodingOffset], static_cast<char>(WeightEncoding::kInt8));
  const std::pair<char, const char*> cases[] = {
      {static_cast<char>(WeightEncoding::kFp64), "magic"},
      {3, "invalid weight encoding byte"}};
  for (const auto& [byte, needle] : cases) {
    std::string bad = bytes;
    bad[kEncodingOffset] = byte;
    reseal(bad);
    expect_bundle_rejected(bad, needle);
  }
}

// ---- RNXQ sections ---------------------------------------------------------

std::string fixture_section(const Fixture& fx) {
  return slurp(fixture_path(fx)).substr(kSectionOffset);
}

// Any quantized encoding selects the RNXQ reader; each tensor carries
// its own tag.
void load_section(std::string section, nn::NamedParams params) {
  std::istringstream in(std::move(section), std::ios::binary);
  nn::load_params(in, params, WeightEncoding::kInt8);
}

nn::NamedParams fixture_params() {
  return core::make_model(core::ModelKind::kExtended, fixture_config())
      ->named_params();
}

// Offset of the first tensor's encoding tag inside a section: magic 4 +
// version 4 + count 8 + name_len 4 + name + rows 8 + cols 8.
std::size_t first_tag_offset() {
  return 20 + fixture_params().front().first.size() + 16;
}

TEST(QuantizeSection, CorruptInputRejected) {
  const std::string bytes = fixture_section(kInt8Fixture);
  ASSERT_EQ(bytes.substr(0, 4), "RNXQ");
  EXPECT_NO_THROW(load_section(bytes, fixture_params()));

  // Truncation at several depths: header, mid-name, mid-payload.
  for (const std::size_t keep :
       {std::size_t{2}, std::size_t{9}, std::size_t{20}, bytes.size() - 3})
    EXPECT_THROW(load_section(bytes.substr(0, keep), fixture_params()),
                 std::runtime_error)
        << "keep=" << keep;

  // Wrong magic ("RNXW" plain section fed to the quantized loader).
  std::string wrong = bytes;
  wrong[3] = 'W';
  EXPECT_THROW(load_section(wrong, fixture_params()), std::runtime_error);

  // Invalid encoding tag on the first tensor.
  std::string bad_enc = bytes;
  ASSERT_EQ(bad_enc[first_tag_offset()],
            static_cast<char>(WeightEncoding::kInt8));
  bad_enc[first_tag_offset()] = 9;
  expect_rejected([&] { load_section(bad_enc, fixture_params()); },
                  "invalid encoding byte");

  // A negative or non-finite int8 scale (the f64 after the tag).
  for (const double scale : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    std::string bad = bytes;
    std::memcpy(bad.data() + first_tag_offset() + 1, &scale, sizeof(scale));
    expect_rejected([&] { load_section(bad, fixture_params()); },
                    "corrupt scale");
  }
}

TEST(QuantizeSection, NameAndShapeMismatchRejected) {
  const std::string bytes = fixture_section(kFp16Fixture);

  nn::NamedParams renamed = fixture_params();
  renamed[0].first = "nope";
  EXPECT_THROW(load_section(bytes, renamed), std::runtime_error);

  nn::NamedParams reshaped = fixture_params();
  reshaped[0].second = nn::Var(nn::Tensor(2, 2), true);
  EXPECT_THROW(load_section(bytes, reshaped), std::runtime_error);
}

}  // namespace

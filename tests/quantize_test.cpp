// Quantized weight bundles (DESIGN.md §K): the fp16/int8 "RNXQ" weight
// sections, the v4 .rnxb container, and the accuracy-drift gate.
//
// Pins three independent contracts:
//   * the lossy primitives themselves (binary16 round-to-nearest-even,
//     subnormals, saturation, NaN; int8 symmetric per-tensor scale);
//   * the container: fp64 saves stay BYTE-identical to the v3 layout,
//     quantized saves round-trip through v4 with provenance recorded,
//     and corrupt sections fail loudly without huge allocations;
//   * the drift gate: int8/fp16 predictions stay within a pinned
//     mean-relative-error bound of the fp64 bundle on real samples.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "serve/bundle.hpp"
#include "serve/inference.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx;
using nn::WeightEncoding;

// ---- fp16 primitives -------------------------------------------------------

TEST(QuantizeFp16, ExactValuesRoundTrip) {
  // Everything representable in binary16 must survive unchanged.
  const std::vector<double> exact = {0.0,   1.0,    -1.0,   0.5,    2.0,
                                     -2.5,  1024.0, 65504.0, -65504.0,
                                     0.125, 6.103515625e-05 /* min normal */};
  for (const double v : exact)
    EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(v)), v) << v;
}

TEST(QuantizeFp16, SignedZeroAndInfinity) {
  EXPECT_EQ(nn::fp16_from_double(0.0), 0x0000);
  EXPECT_EQ(nn::fp16_from_double(-0.0), 0x8000);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(inf)), inf);
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(-inf)), -inf);
  // Beyond half range saturates to infinity rather than garbage.
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(70000.0)), inf);
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(-1e300)), -inf);
}

TEST(QuantizeFp16, NanStaysNan) {
  const std::uint16_t h =
      nn::fp16_from_double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(nn::fp16_to_double(h)));
}

TEST(QuantizeFp16, SubnormalsRepresented) {
  // Smallest positive binary16 subnormal is 2^-24.
  const double tiny = std::ldexp(1.0, -24);
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(tiny)), tiny);
  // Halfway below the smallest subnormal rounds to zero (even).
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(std::ldexp(1.0, -26))),
            0.0);
}

TEST(QuantizeFp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half value
  // 1 + 2^-10; ties go to the even mantissa, i.e. down to 1.0.
  EXPECT_EQ(nn::fp16_to_double(nn::fp16_from_double(1.0 + std::ldexp(1.0, -11))),
            1.0);
  // Just above the tie rounds up.
  EXPECT_EQ(nn::fp16_to_double(
                nn::fp16_from_double(1.0 + std::ldexp(1.0, -11) * 1.5)),
            1.0 + std::ldexp(1.0, -10));
}

TEST(QuantizeFp16, RelativeErrorBounded) {
  util::RngStream rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(-8.0, 8.0);
    const double r = nn::fp16_to_double(nn::fp16_from_double(v));
    // binary16 has 11 significand bits: eps/2 = 2^-12.
    EXPECT_LE(std::abs(r - v), std::abs(v) * std::ldexp(1.0, -11) + 1e-30)
        << v;
  }
}

// ---- RNXQ sections ---------------------------------------------------------

nn::NamedParams make_params(std::uint64_t seed) {
  util::RngStream rng(seed);
  nn::NamedParams p;
  p.emplace_back("w", nn::Var(nn::uniform_init(7, 5, -2.0, 2.0, rng), true));
  p.emplace_back("b", nn::Var(nn::uniform_init(1, 5, -0.5, 0.5, rng), true));
  p.emplace_back("zeros", nn::Var(nn::Tensor(3, 3), true));
  return p;
}

nn::NamedParams like(const nn::NamedParams& src) {
  nn::NamedParams out;
  for (const auto& [name, v] : src)
    out.emplace_back(name,
                     nn::Var(nn::Tensor(v.value().rows(), v.value().cols()),
                             true));
  return out;
}

TEST(QuantizeSection, Fp16RoundTripWithinHalfPrecision) {
  const nn::NamedParams src = make_params(5);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_params(buf, src, WeightEncoding::kFp16);
  nn::NamedParams dst = like(src);
  nn::load_params(buf, dst, WeightEncoding::kFp16);
  for (std::size_t p = 0; p < src.size(); ++p) {
    const auto& a = src[p].second.value();
    const auto& b = dst[p].second.value();
    for (std::size_t i = 0; i < a.size(); ++i) {
      // The stored value is exactly the fp16 rounding of the original.
      EXPECT_EQ(b.flat()[i],
                nn::fp16_to_double(nn::fp16_from_double(a.flat()[i])));
    }
  }
}

TEST(QuantizeSection, Int8RoundTripWithinScaleStep) {
  const nn::NamedParams src = make_params(7);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_params(buf, src, WeightEncoding::kInt8);
  nn::NamedParams dst = like(src);
  nn::load_params(buf, dst, WeightEncoding::kInt8);
  for (std::size_t p = 0; p < src.size(); ++p) {
    const auto& a = src[p].second.value();
    const auto& b = dst[p].second.value();
    double maxabs = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      maxabs = std::max(maxabs, std::abs(a.flat()[i]));
    const double scale = maxabs / 127.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Within half a quantization step, and the extremes map exactly.
      EXPECT_LE(std::abs(b.flat()[i] - a.flat()[i]), scale / 2.0 + 1e-15);
      const double q = b.flat()[i] / (scale > 0 ? scale : 1.0);
      EXPECT_NEAR(q, std::round(q), 1e-9);  // decoded values sit on the grid
    }
  }
  // The all-zero tensor decodes to exact zeros (scale 0 special case).
  const auto& z = dst.back().second.value();
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z.flat()[i], 0.0);
}

TEST(QuantizeSection, UnknownEncodingRejectedAtSave) {
  const nn::NamedParams src = make_params(9);
  std::stringstream buf;
  EXPECT_THROW(nn::save_params(buf, src, static_cast<WeightEncoding>(3)),
               std::invalid_argument);
}

TEST(QuantizeSection, ParseEncodingNames) {
  EXPECT_EQ(nn::parse_weight_encoding("fp64"), WeightEncoding::kFp64);
  EXPECT_EQ(nn::parse_weight_encoding("fp16"), WeightEncoding::kFp16);
  EXPECT_EQ(nn::parse_weight_encoding("int8"), WeightEncoding::kInt8);
  EXPECT_THROW((void)nn::parse_weight_encoding("int4"), std::invalid_argument);
  EXPECT_STREQ(nn::to_string(WeightEncoding::kInt8), "int8");
}

TEST(QuantizeSection, CorruptInputRejected) {
  const nn::NamedParams src = make_params(11);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_params(buf, src, WeightEncoding::kInt8);
  const std::string bytes = buf.str();

  const auto load_from = [&](std::string data) {
    std::stringstream in(std::move(data),
                         std::ios::in | std::ios::out | std::ios::binary);
    nn::NamedParams dst = like(src);
    nn::load_params(in, dst, WeightEncoding::kInt8);
  };

  // Truncation at several depths: header, mid-name, mid-payload.
  for (const std::size_t keep :
       {std::size_t{2}, std::size_t{9}, std::size_t{20}, bytes.size() - 3})
    EXPECT_THROW(load_from(bytes.substr(0, keep)), std::runtime_error)
        << "keep=" << keep;

  // Wrong magic ("RNXW" plain section fed to the quantized loader).
  std::string wrong = bytes;
  wrong[3] = 'W';
  EXPECT_THROW(load_from(wrong), std::runtime_error);

  // Invalid encoding tag on the first tensor.  Layout: magic 4 +
  // version 4 + count 8 + name_len 4 + "w" 1 + rows 8 + cols 8 = 37.
  std::string bad_enc = bytes;
  bad_enc[37] = 9;
  EXPECT_THROW(load_from(bad_enc), std::runtime_error);
}

TEST(QuantizeSection, NameAndShapeMismatchRejected) {
  const nn::NamedParams src = make_params(13);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_params(buf, src, WeightEncoding::kFp16);

  nn::NamedParams renamed = like(src);
  renamed[0].first = "nope";
  EXPECT_THROW(nn::load_params(buf, renamed, WeightEncoding::kFp16),
               std::runtime_error);

  buf.clear();
  buf.seekg(0);
  nn::NamedParams reshaped = like(src);
  reshaped[0].second = nn::Var(nn::Tensor(2, 2), true);
  EXPECT_THROW(nn::load_params(buf, reshaped, WeightEncoding::kFp16),
               std::runtime_error);
}

// ---- v4 bundles ------------------------------------------------------------

const data::Dataset& test_dataset() {
  static const data::Dataset ds = [] {
    util::set_log_level(util::LogLevel::kWarn);
    data::GeneratorConfig gen;
    gen.target_packets = 20'000;
    return data::Dataset(data::generate_dataset(topo::nsfnet(), 4, gen, 11));
  }();
  return ds;
}

core::ModelConfig small_config() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 2;
  mc.init_seed = 5;
  return mc;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), {}};
}

TEST(QuantizeBundle, Fp64SaveStaysByteIdenticalV3) {
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);

  const std::string p_default = "/tmp/rnx_quant_default.rnxb";
  const std::string p_explicit = "/tmp/rnx_quant_fp64.rnxb";
  serve::save_bundle(p_default, model, scaler, core::PredictionTarget::kDelay,
                     5);
  serve::save_bundle(p_explicit, model, scaler, core::PredictionTarget::kDelay,
                     5, WeightEncoding::kFp64);
  const std::string a = slurp(p_default), b = slurp(p_explicit);
  EXPECT_EQ(a, b);

  // Header says v3 — the pre-quantization layout, bit for bit.
  ASSERT_GE(a.size(), 8u);
  std::uint32_t version = 0;
  std::memcpy(&version, a.data() + 4, 4);
  EXPECT_EQ(version, serve::kFp64BundleVersion);

  const serve::ModelBundle loaded = serve::load_bundle(p_default);
  EXPECT_EQ(loaded.encoding, WeightEncoding::kFp64);
  std::filesystem::remove(p_default);
  std::filesystem::remove(p_explicit);
}

TEST(QuantizeBundle, QuantizedRoundTripRecordsEncoding) {
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);

  for (const WeightEncoding enc :
       {WeightEncoding::kFp16, WeightEncoding::kInt8}) {
    const std::string path = "/tmp/rnx_quant_v4.rnxb";
    serve::save_bundle(path, model, scaler, core::PredictionTarget::kDelay, 5,
                       enc);
    const std::string bytes = slurp(path);
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, 4);
    EXPECT_EQ(version, serve::kBundleVersion);

    const serve::ModelBundle loaded = serve::load_bundle(path);
    EXPECT_EQ(loaded.encoding, enc);
    EXPECT_EQ(loaded.model->config().state_dim, 8u);

    // Weights decode to the expected grid: every loaded value matches
    // quantize(original) exactly — the container adds no extra loss.
    if (enc == WeightEncoding::kFp16) {
      const nn::NamedParams pa = model.named_params();
      const nn::NamedParams pb = loaded.model->named_params();
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t p = 0; p < pa.size(); ++p)
        for (std::size_t i = 0; i < pa[p].second.value().size(); ++i)
          EXPECT_EQ(pb[p].second.value().flat()[i],
                    nn::fp16_to_double(
                        nn::fp16_from_double(pa[p].second.value().flat()[i])));
    }
    std::filesystem::remove(path);
  }
}

// The accuracy gate: quantized predictions must track the fp64 bundle
// within a pinned mean-relative-error drift on real simulator samples.
// fp16 keeps ~3 significant digits of every weight; int8 is coarser.
// These bounds are deliberately tight — loosening them is a red flag,
// not a chore.
TEST(QuantizeBundle, PredictionDriftWithinPinnedBound) {
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);

  const std::string p64 = "/tmp/rnx_quant_drift64.rnxb";
  serve::save_bundle(p64, model, scaler, core::PredictionTarget::kDelay, 5);
  const serve::InferenceEngine full(p64);

  const auto drift_vs_full = [&](WeightEncoding enc) {
    const std::string pq = "/tmp/rnx_quant_driftq.rnxb";
    serve::save_bundle(pq, model, scaler, core::PredictionTarget::kDelay, 5,
                       enc);
    const serve::InferenceEngine quant(pq);
    double err_sum = 0.0;
    std::size_t count = 0;
    for (const auto& sample : ds.samples()) {
      const std::vector<double> a = full.predict(sample);
      const std::vector<double> b = quant.predict(sample);
      EXPECT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        err_sum += std::abs(b[i] - a[i]) / std::max(std::abs(a[i]), 1e-12);
        ++count;
      }
    }
    std::filesystem::remove(pq);
    return err_sum / static_cast<double>(count);
  };

  EXPECT_LT(drift_vs_full(WeightEncoding::kFp16), 5e-3);
  EXPECT_LT(drift_vs_full(WeightEncoding::kInt8), 2e-1);
  std::filesystem::remove(p64);
}

TEST(QuantizeBundle, CorruptQuantSectionRejectedByChecksum) {
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
  const std::string path = "/tmp/rnx_quant_bitrot.rnxb";
  serve::save_bundle(path, model, scaler, core::PredictionTarget::kDelay, 5,
                     WeightEncoding::kInt8);
  std::string bytes = slurp(path);
  bytes[bytes.size() - 5] ^= 0x01;  // flip one quantized payload bit
  {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)serve::load_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
}

// The header's encoding byte selects the weight reader, and the section
// magic must agree with it: a v4 header claiming fp64 in front of an
// "RNXQ" section is refused even with a valid checksum.
TEST(QuantizeBundle, SectionMagicMustMatchHeaderEncoding) {
  const data::Dataset& ds = test_dataset();
  const core::Model model(core::ModelKind::kExtended, small_config());
  const data::Scaler scaler = data::Scaler::fit(ds.samples(), 5);
  const std::string path = "/tmp/rnx_quant_magic.rnxb";
  serve::save_bundle(path, model, scaler, core::PredictionTarget::kDelay, 5,
                     WeightEncoding::kInt8);
  std::string bytes = slurp(path);
  // Envelope header 24 bytes; the body's encoding byte follows kind,
  // target, min_delivered, three u64 dims and six u8 flags (40 bytes).
  constexpr std::size_t kEncodingOffset = 24 + 40;
  ASSERT_EQ(bytes[kEncodingOffset],
            static_cast<char>(WeightEncoding::kInt8));
  bytes[kEncodingOffset] = static_cast<char>(WeightEncoding::kFp64);
  std::uint64_t sum = 0xcbf29ce484222325ull;  // re-seal the checksum
  for (std::size_t i = 24; i < bytes.size(); ++i) {
    sum ^= static_cast<unsigned char>(bytes[i]);
    sum *= 0x100000001b3ull;
  }
  std::memcpy(bytes.data() + 16, &sum, sizeof(sum));
  {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)serve::load_bundle(path);
    FAIL() << "fp64 header over an RNXQ section accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

}  // namespace

#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>

#include "util/binio.hpp"

namespace rnx::nn {

namespace {
constexpr std::string_view kMagic = "RNXW";
constexpr std::string_view kQuantMagic = "RNXQ";
constexpr std::uint32_t kVersion = 1;  // of both section kinds

using Reader = util::Reader<>;

// An "RNXQ" tensor carries its own encoding tag; any quantized tag is
// accepted whatever encoding the caller selected the section with.
void get_payload(Reader& r, std::span<double> out, bool quantized,
                 const std::string& name) {
  if (!quantized) {
    r.get_span(out);
    return;
  }
  std::uint8_t tag = 0;
  r.get(tag);
  if (tag == static_cast<std::uint8_t>(WeightEncoding::kFp16)) {
    for (double& v : out) {
      std::uint16_t h = 0;
      r.get(h);
      v = fp16_to_double(h);
    }
  } else if (tag == static_cast<std::uint8_t>(WeightEncoding::kInt8)) {
    double scale = 0.0;
    r.get(scale);
    if (!std::isfinite(scale) || scale < 0.0)
      r.fail("corrupt scale for " + name);
    for (double& v : out) {
      std::int8_t q = 0;
      r.get(q);
      v = static_cast<double>(q) * scale;
    }
  } else {
    r.fail("invalid encoding byte " + std::to_string(tag) + " for " + name);
  }
}
}  // namespace

void save_params(std::ostream& f, const NamedParams& params) {
  f.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
  util::put(f, kVersion);
  util::put(f, static_cast<std::uint64_t>(params.size()));
  for (const auto& [name, var] : params) {
    util::put_string(f, name);
    const Tensor& t = var.value();
    util::put(f, static_cast<std::uint64_t>(t.rows()));
    util::put(f, static_cast<std::uint64_t>(t.cols()));
    util::put_span(f, t.flat());
  }
  if (!f) throw std::runtime_error("save_params: write failed");
}

void save_params(const std::string& path, const NamedParams& params) {
  util::atomic_write_stream(
      path, [&params](std::ostream& f) { save_params(f, params); });
}

void load_params(std::istream& f, NamedParams& params,
                 WeightEncoding encoding) {
  Reader r(f, "load_params");
  const bool quantized = encoding != WeightEncoding::kFp64;
  if (!util::read_magic(f, quantized ? kQuantMagic : kMagic))
    r.fail("bad magic");
  std::uint32_t version = 0;
  r.get(version);
  if (version != kVersion) r.fail("unsupported version");
  std::uint64_t count = 0;
  r.get(count);

  std::map<std::string, Var*> by_name;
  for (auto& [name, var] : params) {
    if (!by_name.emplace(name, &var).second)
      r.fail("duplicate param name " + name);
  }
  if (count != params.size()) r.fail("parameter count mismatch");

  for (std::uint64_t i = 0; i < count; ++i) {
    // A corrupt header must fail loudly here, not surface later as a
    // multi-gigabyte allocation or a misleading "unknown parameter".
    const std::string name =
        r.get_string("parameter name", 1, kMaxParamNameLen);
    std::uint64_t rows = 0, cols = 0;
    r.get(rows);
    r.get(cols);
    const auto it = by_name.find(name);
    if (it == by_name.end()) r.fail("unknown parameter " + name);
    Tensor& dst = it->second->mutable_value();
    // Shape-check before any payload read, so a corrupt header can never
    // trigger a huge read.
    if (dst.rows() != rows || dst.cols() != cols)
      r.fail("shape mismatch for " + name);
    get_payload(r, dst.flat(), quantized, name);
    // One non-finite weight (say an fp16 weight that overflowed to inf
    // when it was written) makes every prediction non-finite.
    if (!std::ranges::all_of(dst.flat(),
                             [](double v) { return std::isfinite(v); }))
      r.fail("non-finite weight in " + name);
  }
}

void load_params(const std::string& path, NamedParams& params) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_params: cannot open " + path);
  try {
    load_params(f, params);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + path);
  }
}

// ---- encoding names and fp16 decoding -------------------------------------

const char* to_string(WeightEncoding enc) noexcept {
  switch (enc) {
    case WeightEncoding::kFp64: return "fp64";
    case WeightEncoding::kFp16: return "fp16";
    case WeightEncoding::kInt8: return "int8";
  }
  return "unknown";
}

double fp16_to_double(std::uint16_t h) noexcept {
  const bool neg = (h & 0x8000u) != 0;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  double v;
  if (exp == 0x1fu) {
    v = mant != 0 ? std::numeric_limits<double>::quiet_NaN()
                  : std::numeric_limits<double>::infinity();
  } else if (exp != 0) {
    v = std::ldexp(static_cast<double>(mant | 0x400u),
                   static_cast<int>(exp) - 25);
  } else {
    v = std::ldexp(static_cast<double>(mant), -24);
  }
  return neg ? -v : v;
}

}  // namespace rnx::nn

// Versioned binary (de)serialization of named parameter sets: the
// weight sections of .rnxw files and .rnxb bundles.
//
// One writer and one reader serve both section kinds, selected by
// WeightEncoding and built on the shared POD codec in util/binio:
//
//   magic "RNXW" (fp64) or "RNXQ" (fp16 / int8), u32 version 1,
//   u64 count, then per parameter:
//     u32 name length, name bytes, u64 rows, u64 cols,
//     RNXW: rows*cols f64
//     RNXQ: u8 encoding tag (WeightEncoding), then the payload:
//           fp16 -> rows*cols u16; int8 -> f64 scale + rows*cols i8
//
// All values are little-endian, as written by the host.  load_params
// matches strictly by name and shape, so a weight file can never be
// silently misapplied to a different architecture.  Quantized
// calibration is per-tensor and happens at save time; load always
// dequantizes back to fp64, so the rest of the stack never sees a
// reduced-precision type.  DESIGN.md §K documents the quantized format
// and the accuracy-drift gate.
//
// The stream overloads exist so the weight section can be embedded in
// larger containers (serve::ModelBundle stores one verbatim inside a
// .rnxb file); the path overloads read and write a plain fp64 .rnxw
// file, atomically on save.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "nn/autograd.hpp"

namespace rnx::nn {

using NamedParams = std::vector<std::pair<std::string, Var>>;

/// Parameter names longer than this are rejected on load: no real
/// parameter name comes close, so a bigger length can only be file
/// corruption — reject it instead of attempting the allocation.
inline constexpr std::uint32_t kMaxParamNameLen = 4096;

/// How a weight section stores its tensors.  The byte values are the
/// on-disk tags — never renumber, only append.
enum class WeightEncoding : std::uint8_t {
  kFp64 = 0,  ///< full precision: a plain "RNXW" section
  kFp16 = 1,  ///< IEEE binary16, round-to-nearest-even, u16 payload
  kInt8 = 2,  ///< per-tensor symmetric int8: scale = maxabs/127, i8 payload
};

[[nodiscard]] const char* to_string(WeightEncoding enc) noexcept;
/// Parse "fp64" / "fp16" / "int8"; throws std::invalid_argument otherwise.
[[nodiscard]] WeightEncoding parse_weight_encoding(const std::string& s);

/// Lossy round-trip primitives, exposed so tests can pin the rounding
/// rules (double -> float -> binary16 with round-to-nearest-even; values
/// beyond half range saturate to +/-inf).
[[nodiscard]] std::uint16_t fp16_from_double(double v) noexcept;
[[nodiscard]] double fp16_to_double(std::uint16_t h) noexcept;

/// Append one weight section to an open binary stream: "RNXW" for kFp64,
/// else "RNXQ" quantizing every tensor with `encoding` (int8 scale is
/// maxabs/127; all-zero tensors store scale 0 and decode to exact
/// zeros).  Throws std::invalid_argument on an unknown encoding and
/// std::runtime_error on I/O failure.
void save_params(std::ostream& f, const NamedParams& params,
                 WeightEncoding encoding = WeightEncoding::kFp64);
/// Atomically write an fp64 .rnxw file.
void save_params(const std::string& path, const NamedParams& params);

/// Consume one weight section written with `encoding` ("RNXW" for
/// kFp64, else "RNXQ"; the section magic must match) into the given
/// set.  Every stored name must exist in `params` with an identical
/// shape and vice versa; throws std::runtime_error otherwise (including
/// on truncated or corrupt input — a bad header can never trigger an
/// unbounded allocation).
void load_params(std::istream& f, NamedParams& params,
                 WeightEncoding encoding = WeightEncoding::kFp64);
/// Read an fp64 .rnxw file; errors name the path.
void load_params(const std::string& path, NamedParams& params);

}  // namespace rnx::nn

// Versioned binary (de)serialization of named parameter sets: the
// weight sections of .rnxw files and .rnxb bundles.
//
// Every save writes a full-precision "RNXW" section.  The reader also
// accepts the quantized "RNXQ" section that v4 bundles carry; nothing
// writes those any more, but bundles written earlier keep loading
// (DESIGN.md §K; pinned by tests/fixtures).  Both are built on the
// shared POD codec in util/binio:
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
// silently misapplied to a different architecture, and rejects any
// non-finite value.  Quantized sections dequantize back to fp64 at
// load, so the rest of the stack never sees a reduced-precision type.
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
/// on-disk tags of .rnxb v4 headers and RNXQ tensors — never renumber.
enum class WeightEncoding : std::uint8_t {
  kFp64 = 0,  ///< full precision: a plain "RNXW" section
  kFp16 = 1,  ///< IEEE binary16, u16 payload
  kInt8 = 2,  ///< per-tensor symmetric int8: f64 scale, i8 payload
};

[[nodiscard]] const char* to_string(WeightEncoding enc) noexcept;

/// Decode one IEEE binary16 value (subnormals, +/-inf and NaN included).
[[nodiscard]] double fp16_to_double(std::uint16_t h) noexcept;

/// Append one fp64 "RNXW" weight section to an open binary stream.
/// Throws std::runtime_error on I/O failure.
void save_params(std::ostream& f, const NamedParams& params);
/// Atomically write an fp64 .rnxw file.
void save_params(const std::string& path, const NamedParams& params);

/// Consume one weight section stored with `encoding` ("RNXW" for
/// kFp64, else "RNXQ"; the section magic must match) into the given
/// set.  Every stored name must exist in `params` with an identical
/// shape and vice versa, and every value must be finite; throws
/// std::runtime_error otherwise (including on truncated or corrupt
/// input — a bad header can never trigger an unbounded allocation).
void load_params(std::istream& f, NamedParams& params,
                 WeightEncoding encoding = WeightEncoding::kFp64);
/// Read an fp64 .rnxw file; errors name the path.
void load_params(const std::string& path, NamedParams& params);

}  // namespace rnx::nn

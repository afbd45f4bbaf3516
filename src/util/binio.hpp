// Binary I/O shared by every rnx on-disk format (DESIGN.md "On-disk
// formats").  Each piece exists once:
//
//   * the POD codec: put/get of trivially copyable values in host byte
//     order, plus u32-length strings and u64-length vectors whose reads
//     are bounded, so a corrupt length field can never drive a huge
//     allocation;
//   * fnv1a64, the checksum of every format (and util::hash_label);
//   * atomic writes: temp file in the target's directory, then rename;
//   * the checksummed envelope of .rnxb bundles, .rnxc checkpoints and
//     .rnxm shard manifests:
//
//       magic[4] | u32 version | u64 body size | u64 FNV-1a(body) | body
//
//     write_envelope always writes atomically.  read_envelope checks the
//     magic, the version range, the body size against the bytes left in
//     the file and the checksum before a caller parses one body byte.
//
// Readers raise the caller's typed error: Reader<Error> and
// read_envelope<Error> throw Error(what + ": " + problem), so a
// checkpoint fails with CheckpointError and a manifest with
// ManifestError while the framing code exists once.  Lives in util so
// nn (weights) and data (datasets) can share it without depending on
// each other.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rnx::util {

// ---- checksum --------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over raw bytes.  Chain buffers by passing the previous
/// result as `h`, so multi-buffer content checksums without a
/// concatenated copy.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t h = kFnvOffsetBasis) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- writing ---------------------------------------------------------------

template <typename T>
void put(std::ostream& f, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Raw elements, no length prefix (the reader knows the count).
template <typename T>
void put_span(std::ostream& f, std::span<const T> v) {
  static_assert(std::is_trivially_copyable_v<T>);
  f.write(reinterpret_cast<const char*>(v.data()),
          static_cast<std::streamsize>(v.size_bytes()));
}

/// u32 length, then the bytes.
inline void put_string(std::ostream& f, std::string_view s) {
  put(f, static_cast<std::uint32_t>(s.size()));
  f.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// u64 element count, then the raw elements.
template <typename T>
void put_vec(std::ostream& f, const std::vector<T>& v) {
  put(f, static_cast<std::uint64_t>(v.size()));
  put_span(f, std::span<const T>(v));
}

// ---- reading ---------------------------------------------------------------

/// Reads the codec above from a stream; every failure throws
/// Error(what + ": " + problem).  `what` names the operation and file
/// and must outlive the reader.
template <typename Error = std::runtime_error>
class Reader {
 public:
  Reader(std::istream& in, std::string_view what) : in_(in), what_(what) {}

  [[noreturn]] void fail(std::string_view problem) const {
    throw Error(std::string(what_) + ": " + std::string(problem));
  }

  template <typename T>
  void get(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!read(&v, sizeof(T))) fail("truncated file");
  }

  template <typename T>
  void get_span(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!read(out.data(), out.size_bytes())) fail("truncated file");
  }

  /// A put_string value whose length must lie in [min_len, max_len];
  /// `label` names the field in errors ("implausible <label> length N").
  [[nodiscard]] std::string get_string(std::string_view label,
                                       std::uint32_t min_len,
                                       std::uint32_t max_len) {
    std::uint32_t len = 0;
    get(len);
    if (len < min_len || len > max_len)
      fail("implausible " + std::string(label) + " length " +
           std::to_string(len));
    std::string s(len, '\0');
    if (!read(s.data(), len)) fail("truncated " + std::string(label));
    return s;
  }

  /// A put_vec value of at most `max_len` elements.
  template <typename T>
  void get_vec(std::vector<T>& v, std::uint64_t max_len) {
    std::uint64_t n = 0;
    get(n);
    if (n > max_len) fail("implausible vector length " + std::to_string(n));
    v.resize(n);
    if (!read(v.data(), n * sizeof(T))) fail("truncated vector");
  }

 private:
  bool read(void* p, std::size_t n) {
    in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    return static_cast<bool>(in_);
  }

  std::istream& in_;
  std::string_view what_;
};

/// Consume magic.size() bytes; true when they equal `magic`.
[[nodiscard]] bool read_magic(std::istream& f, std::string_view magic);

// ---- atomic writes ---------------------------------------------------------

/// Stream content into `path` atomically: a temp file in the same
/// directory, flushed, then renamed over the target.  A crash or full
/// disk mid-write leaves the previous file (if any) untouched; the temp
/// file is removed on failure.  Throws std::runtime_error.  Fault sites
/// io.atomic.write and io.atomic.rename fail the two steps.
void atomic_write_stream(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

/// Remove leftover "*.tmp" files of interrupted atomic writes from `dir`
/// (non-recursive).  Only names whose stem carries a known rnx extension
/// (.rnxd/.rnxm/.rnxb/.rnxw/.rnxc) are touched — a crash between open
/// and rename is the ONLY writer of such names, so deleting them is
/// always safe.  Returns the number removed; a missing/unreadable dir
/// removes nothing.
std::size_t remove_stale_temps(const std::string& dir);

// ---- checksummed envelope --------------------------------------------------

struct EnvelopeFormat {
  std::string_view magic;  ///< exactly 4 bytes
  std::uint32_t min_version = 1;
  std::uint32_t max_version = 1;
  std::string_view noun;       ///< "bundle": names the format in errors
  std::string_view extension;  ///< ".rnxb": names the format in errors
  /// Optional fault site that flips one body bit before the checksum is
  /// verified, so chaos tests drive the real detection path.
  std::string_view bitflip_site = {};
};

struct Envelope {
  std::uint32_t version = 0;
  std::string body;
};

/// Atomically write `body` framed as `format` with `version`.
void write_envelope(const std::string& path, const EnvelopeFormat& format,
                    std::uint32_t version, std::string_view body);

namespace detail {
/// Fill `out` from `path`; returns "" on success, else the problem.
[[nodiscard]] std::string read_envelope(const std::string& path,
                                        const EnvelopeFormat& format,
                                        Envelope& out);
}  // namespace detail

/// Read and verify an envelope.  Throws Error(what + ": " + problem) on
/// a missing file, bad magic, a version outside the format's range, a
/// body size of 0 or beyond the bytes left in the file (checked before
/// the body is allocated), truncation or a checksum mismatch.
template <typename Error = std::runtime_error>
[[nodiscard]] Envelope read_envelope(const std::string& path,
                                     const EnvelopeFormat& format,
                                     std::string_view what) {
  Envelope out;
  const std::string problem = detail::read_envelope(path, format, out);
  if (!problem.empty()) throw Error(std::string(what) + ": " + problem);
  return out;
}

}  // namespace rnx::util

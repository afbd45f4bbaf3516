// Sharded on-disk dataset store (DESIGN.md §D).
//
// A store is one .rnxm manifest plus N .rnxd shard files living next to
// it.  Each shard is a complete, standalone dataset file (same codec,
// same version — Dataset::load opens one directly), so the store
// degrades gracefully and tooling composes.  The manifest records the
// provenance (generator seed + GeneratorConfig digest) and, per shard,
// the sample count and an FNV-1a checksum of the shard file's bytes:
// truncation, bit rot and missing files all fail loudly with TYPED
// errors instead of surfacing as subtly wrong training data.
//
// Manifest layout ("RNXM", the shared envelope of util/binio):
//   magic "RNXM", u32 version, u64 body size, u64 FNV-1a body checksum,
//   body:
//     u64 seed, u64 config digest, u64 total samples, u64 shard count,
//     per shard: u32 name_len + bytes (file name, relative to the
//                manifest's directory), u64 samples, u64 checksum
//
// Versioning rule (same as bundles): any layout change bumps
// kManifestVersion; readers reject unknown versions, but keep loading
// every older one.  Writes are streaming — ShardWriter buffers at most
// one shard, so datagen peak memory is O(shard), not O(dataset) — and
// atomic (temp file + rename) for both shards and the manifest.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace rnx::data {

inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr std::uint32_t kMinManifestVersion = 1;

/// Base of every sharded-store failure, so callers can catch the whole
/// family or discriminate on the concrete type.
struct ShardError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// The manifest itself is missing, corrupt, or an unsupported version.
struct ManifestError : ShardError {
  using ShardError::ShardError;
};
/// A shard file named by the manifest does not exist.
struct MissingShardError : ShardError {
  using ShardError::ShardError;
};
/// A shard file's bytes do not match the manifest checksum, or its
/// sample count disagrees with the manifest.
struct ShardChecksumError : ShardError {
  using ShardError::ShardError;
};

struct ShardInfo {
  std::string file;            ///< relative to the manifest's directory
  std::uint64_t samples = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a of the shard file's bytes
};

struct ShardManifest {
  std::uint32_t version = kManifestVersion;
  std::uint64_t seed = 0;
  std::uint64_t config_digest = 0;  ///< data::config_digest(GeneratorConfig)
  std::uint64_t total_samples = 0;
  std::vector<ShardInfo> shards;
};

/// True when `path` exists and starts with the manifest magic — the
/// cheap sniff the CLI tools use to route .rnxm vs .rnxd inputs.
[[nodiscard]] bool is_manifest_file(const std::string& path);

/// Streaming shard writer: add() samples in order as they commit, and
/// shards flush to disk every `samples_per_shard` — peak memory is one
/// shard, regardless of dataset size.  Shard files are written next to
/// the manifest as `<stem>.shard-<i>.rnxd`.  finish() flushes the
/// trailing partial shard and atomically writes the manifest; a writer
/// destroyed without finish() leaves no manifest (the store does not
/// exist until its manifest does).
class ShardWriter {
 public:
  ShardWriter(std::string manifest_path, std::size_t samples_per_shard,
              std::uint64_t seed, std::uint64_t config_digest);

  void add(const Sample& s);
  /// Flush + write the manifest; returns what was written.  add() and a
  /// second finish() are errors afterwards.
  ShardManifest finish();

  [[nodiscard]] std::uint64_t samples_written() const noexcept {
    return manifest_.total_samples + in_shard_;
  }

 private:
  void flush_shard();

  std::string manifest_path_;
  std::string dir_;   ///< manifest directory ("" for CWD)
  std::string stem_;  ///< manifest file name without extension
  std::size_t samples_per_shard_;
  ShardManifest manifest_;
  std::ostringstream body_;  ///< serialized samples of the open shard
  std::uint64_t in_shard_ = 0;
  bool finished_ = false;
};

/// Reader over a sharded store: parses + integrity-checks the manifest
/// up front, loads shards on demand.  Random access is at shard
/// granularity — the streaming SampleSource (data/source.hpp) pulls
/// shard-by-shard so whole-dataset residency never happens.
class ShardedReader {
 public:
  /// Throws ManifestError on a missing/corrupt/unsupported manifest.
  explicit ShardedReader(std::string manifest_path);

  [[nodiscard]] const ShardManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return manifest_.shards.size();
  }
  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return manifest_.total_samples;
  }
  [[nodiscard]] std::string shard_path(std::size_t i) const;

  /// Load shard `i`, verifying the file checksum against the manifest
  /// before parsing and the sample count after.  Throws
  /// MissingShardError / ShardChecksumError / std::runtime_error (parse
  /// errors surface as the dataset codec's own diagnostics).
  [[nodiscard]] Dataset load_shard(std::size_t i) const;

  /// Concatenate every shard in order — the monolithic-equivalence
  /// convenience for tests and small stores.
  [[nodiscard]] Dataset load_all() const;

 private:
  std::string manifest_path_;
  std::string dir_;
  ShardManifest manifest_;
};

}  // namespace rnx::data

// The .rnxd sample codec, built on the shared POD codec in util/binio.
//
// The monolithic dataset file (dataset.cpp) and the sharded store
// (shards.cpp) serialize samples through exactly one implementation, so
// a shard file IS a valid .rnxd dataset and a per-sample FNV-1a digest
// is comparable across monolithic, sharded, serial and parallel
// outputs — the equivalence the datagen determinism tests and the CI
// digest diff pin.  A .rnxd file has no checksummed envelope: it is the
// plain prelude below followed by the samples, and the shard manifest
// carries each shard's checksum.  Writes go through
// util::atomic_write_stream.
//
// Versioning follows the dataset format rules (dataset.hpp): v2 appends
// the scenario block; v1 files still load.  Any layout change bumps
// kDatasetVersion here and nowhere else.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "data/sample.hpp"

namespace rnx::data::io {

inline constexpr std::string_view kDatasetMagic = "RNXD";
// v2 appends the scenario block (policy / traffic process / classes /
// on-off shape / DRR quantum) per sample and a priority class per path;
// v1 files (pre-scenario-engine) still load with the default scenario
// and scenario_recorded = false.
inline constexpr std::uint32_t kDatasetVersion = 2;
inline constexpr std::uint32_t kDatasetMinVersion = 1;

/// Bytes of the fixed .rnxd prelude: magic, u32 version, u64 count.
inline constexpr std::uint64_t kDatasetHeaderBytes = 16;

/// Conservative lower bound on one serialized sample (v1 floor: name
/// length + num_nodes + three empty-vector headers + max_utilization +
/// path count).  Used to reject corrupt headers whose sample count could
/// not possibly fit in the file — the bound that keeps a truncated or
/// bit-rotten header from triggering a multi-GB reserve() up front.
inline constexpr std::uint64_t kMinSampleBytes = 40;

/// Serialize one sample in the current (v2) layout.
void write_sample(std::ostream& f, const Sample& s);

/// Deserialize one sample of a `version`-layout file.  Throws
/// std::runtime_error (prefixed with `what`) on truncation or
/// implausible lengths; does NOT run Sample::validate() — callers do,
/// so error messages can carry file context.
[[nodiscard]] Sample read_sample(std::istream& f, std::uint32_t version,
                                 const std::string& what);

/// FNV-1a digest of the sample's current-version serialized bytes: the
/// identity the parallel-vs-serial and sharded-vs-monolithic
/// equivalence checks compare.
[[nodiscard]] std::uint64_t sample_digest(const Sample& s);

/// Write the .rnxd prelude (magic, current version, sample count).
void write_dataset_header(std::ostream& f, std::uint64_t count);

/// Read + validate the prelude; returns {version, count}.  `file_bytes`
/// is the total stream size: a count that cannot fit in the remaining
/// bytes (kMinSampleBytes each) is rejected here, before any
/// allocation.
struct DatasetHeader {
  std::uint32_t version = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] DatasetHeader read_dataset_header(std::istream& f,
                                                std::uint64_t file_bytes,
                                                const std::string& what);

/// Serialize a whole dataset (header + samples) to a stream.
void write_dataset_stream(std::ostream& f,
                          const std::vector<Sample>& samples);

/// Deserialize a whole dataset; every sample is validated.  `what`
/// prefixes error messages (typically the file path).
[[nodiscard]] std::vector<Sample> read_dataset_stream(
    std::istream& f, std::uint64_t file_bytes, const std::string& what);

}  // namespace rnx::data::io

#include "data/shards.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "data/sample_io.hpp"
#include "util/binio.hpp"
#include "util/fault.hpp"

namespace rnx::data {

namespace {

constexpr util::EnvelopeFormat kManifestFormat{
    .magic = "RNXM",
    .min_version = kMinManifestVersion,
    .max_version = kManifestVersion,
    .noun = "manifest",
    .extension = ".rnxm",
    .bitflip_site = "io.manifest.bitflip",
};

std::filesystem::path shard_file_path(const std::string& dir,
                                      const std::string& file) {
  return dir.empty() ? std::filesystem::path(file)
                     : std::filesystem::path(dir) / file;
}

std::string shard_file_name(const std::string& stem, std::size_t index) {
  return stem + ".shard-" + std::to_string(index) + ".rnxd";
}

}  // namespace

bool is_manifest_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return f && util::read_magic(f, kManifestFormat.magic);
}

// ---- ShardWriter ----------------------------------------------------------

ShardWriter::ShardWriter(std::string manifest_path,
                         std::size_t samples_per_shard, std::uint64_t seed,
                         std::uint64_t config_digest)
    : manifest_path_(std::move(manifest_path)),
      samples_per_shard_(samples_per_shard == 0 ? 1 : samples_per_shard),
      body_(std::ios::binary) {
  const std::filesystem::path p(manifest_path_);
  dir_ = p.parent_path().string();
  stem_ = p.stem().string();
  if (stem_.empty())
    throw std::invalid_argument("ShardWriter: empty manifest file name: " +
                                manifest_path_);
  if (!dir_.empty()) std::filesystem::create_directories(dir_);
  manifest_.seed = seed;
  manifest_.config_digest = config_digest;
}

void ShardWriter::add(const Sample& s) {
  if (finished_)
    throw std::logic_error("ShardWriter::add: writer already finished");
  io::write_sample(body_, s);
  if (++in_shard_ >= samples_per_shard_) flush_shard();
}

void ShardWriter::flush_shard() {
  if (in_shard_ == 0) return;
  // A shard file is a complete .rnxd dataset: header + the buffered
  // samples.  Checksum exactly the bytes that hit disk — chained FNV
  // over header then body, no concatenated copy of the shard.
  std::ostringstream header(std::ios::binary);
  io::write_dataset_header(header, in_shard_);
  const std::string head = header.str();
  const std::string_view body = body_.view();

  ShardInfo info;
  info.file = shard_file_name(stem_, manifest_.shards.size());
  info.samples = in_shard_;
  info.checksum = util::fnv1a64(body, util::fnv1a64(head));
  util::atomic_write_stream(
      shard_file_path(dir_, info.file).string(), [&](std::ostream& f) {
        f.write(head.data(), static_cast<std::streamsize>(head.size()));
        f.write(body.data(), static_cast<std::streamsize>(body.size()));
      });

  manifest_.total_samples += in_shard_;
  manifest_.shards.push_back(std::move(info));
  body_.str(std::string());
  body_.clear();
  in_shard_ = 0;
}

ShardManifest ShardWriter::finish() {
  if (finished_)
    throw std::logic_error("ShardWriter::finish: already finished");
  flush_shard();
  finished_ = true;

  std::ostringstream b(std::ios::binary);
  util::put(b, manifest_.seed);
  util::put(b, manifest_.config_digest);
  util::put(b, manifest_.total_samples);
  util::put(b, static_cast<std::uint64_t>(manifest_.shards.size()));
  for (const auto& s : manifest_.shards) {
    util::put_string(b, s.file);
    util::put(b, s.samples);
    util::put(b, s.checksum);
  }
  util::write_envelope(manifest_path_, kManifestFormat, kManifestVersion,
                       b.view());
  return manifest_;
}

// ---- ShardedReader --------------------------------------------------------

ShardedReader::ShardedReader(std::string manifest_path)
    : manifest_path_(std::move(manifest_path)) {
  dir_ = std::filesystem::path(manifest_path_).parent_path().string();
  const std::string what = "ShardedReader(" + manifest_path_ + ")";
  util::Envelope env =
      util::read_envelope<ManifestError>(manifest_path_, kManifestFormat, what);
  manifest_.version = env.version;
  std::istringstream bs(std::move(env.body), std::ios::binary);
  util::Reader<ManifestError> r(bs, what);
  r.get(manifest_.seed);
  r.get(manifest_.config_digest);
  r.get(manifest_.total_samples);
  std::uint64_t num_shards = 0;
  r.get(num_shards);
  if (num_shards > (1ull << 20))
    r.fail("implausible shard count " + std::to_string(num_shards));
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < num_shards; ++i) {
    ShardInfo info;
    info.file = r.get_string("shard file name", 1, 1u << 12);
    r.get(info.samples);
    r.get(info.checksum);
    sum += info.samples;
    manifest_.shards.push_back(std::move(info));
  }
  if (sum != manifest_.total_samples)
    r.fail("shard sample counts sum to " + std::to_string(sum) +
           ", manifest claims " + std::to_string(manifest_.total_samples));
}

std::string ShardedReader::shard_path(std::size_t i) const {
  return shard_file_path(dir_, manifest_.shards.at(i).file).string();
}

Dataset ShardedReader::load_shard(std::size_t i) const {
  const ShardInfo& info = manifest_.shards.at(i);
  const std::string path = shard_path(i);
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw MissingShardError("ShardedReader: missing shard file " + path +
                            " (named by " + manifest_path_ + ")");
  // One buffer for the whole shard: pre-sized read, checksum in place,
  // then MOVE into the parse stream — transient memory stays O(shard),
  // the store's residency contract.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec)
    throw MissingShardError("ShardedReader: cannot stat shard " + path +
                            " (" + ec.message() + ")");
  std::string bytes(size, '\0');
  f.read(bytes.data(), static_cast<std::streamsize>(size));
  if (!f || f.gcount() != static_cast<std::streamsize>(size))
    throw ShardChecksumError("ShardedReader: short read on shard " + path);
  // Injected faults fire BEFORE the checksum verify: a short read and a
  // flipped bit must both surface through the real integrity check.
  if (!bytes.empty() && util::fault_fires("io.shard.truncate"))
    bytes.resize(bytes.size() / 2);
  if (!bytes.empty() && util::fault_fires("io.shard.bitflip")) {
    const std::uint64_t k =
        util::FaultInjector::instance().fired("io.shard.bitflip");
    bytes[(k * 769) % bytes.size()] ^= static_cast<char>(1u << (k % 8));
  }
  if (util::fnv1a64(bytes) != info.checksum)
    throw ShardChecksumError("ShardedReader: checksum mismatch for shard " +
                             path + " (file corrupt or replaced)");
  const std::uint64_t total = bytes.size();
  std::istringstream in(std::move(bytes), std::ios::binary);
  Dataset d(io::read_dataset_stream(in, total,
                                    "ShardedReader(" + path + ")"));
  if (d.size() != info.samples)
    throw ShardChecksumError(
        "ShardedReader: shard " + path + " holds " +
        std::to_string(d.size()) + " samples, manifest claims " +
        std::to_string(info.samples));
  return d;
}

Dataset ShardedReader::load_all() const {
  std::vector<Sample> all;
  all.reserve(manifest_.total_samples);
  for (std::size_t i = 0; i < num_shards(); ++i) {
    Dataset d = load_shard(i);
    for (auto& s : d.release_samples()) all.push_back(std::move(s));
  }
  return Dataset(std::move(all));
}

}  // namespace rnx::data

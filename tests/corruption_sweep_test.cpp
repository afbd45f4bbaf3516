// Exhaustive corruption sweeps over the integrity-checked on-disk
// formats (DESIGN.md §R): model bundles (.rnxb) and shard manifests
// (.rnxm).  Every truncation point and a bit flip in every 64-byte
// window must surface as the format's TYPED load error — never a crash,
// a hang, a huge allocation, or a silently wrong object.  Checkpoint
// (.rnxc) corruption is swept in checkpoint_test.cpp; the envelope's
// body-size bound is checked here for all three envelope formats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/model.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/shards.hpp"
#include "serve/bundle.hpp"
#include "topo/zoo.hpp"
#include "util/log.hpp"

namespace {

using namespace rnx;
namespace fs = std::filesystem;

std::vector<char> read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::vector<char>& bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Truncation points: every header edge, the tail, and an even stride
/// through the body — capped so the sweep stays fast on big artifacts.
std::set<std::size_t> truncation_points(std::size_t size) {
  std::set<std::size_t> pts = {0, 1, 3, 4, 5, 7, 8, 15, 16, 23, 24};
  const std::size_t stride = std::max<std::size_t>(1, size / 128);
  for (std::size_t n = 0; n < size; n += stride) pts.insert(n);
  pts.insert(size - 1);
  pts.erase(size);  // keep strictly-truncated lengths only
  std::set<std::size_t> in_range;
  for (const std::size_t n : pts)
    if (n < size) in_range.insert(n);
  return in_range;
}

class CorruptionSweepTest : public ::testing::Test {
 protected:
  CorruptionSweepTest() {
    util::set_log_level(util::LogLevel::kWarn);
    dir_ = fs::temp_directory_path() /
           ("rnx_corrupt." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    data::GeneratorConfig gen;
    gen.target_packets = 2'000;
    ds_ = std::make_unique<data::Dataset>(
        data::generate_dataset(topo::ring(4), 2, gen, 11));

    core::ModelConfig mc;
    mc.state_dim = 4;
    mc.readout_hidden = 6;
    mc.iterations = 1;
    mc.init_seed = 3;
    const auto model = core::make_model(core::ModelKind::kExtended, mc);
    serve::save_bundle(bundle_path().string(), *model,
                       data::Scaler::fit(ds_->samples(), 1),
                       core::PredictionTarget::kDelay, 1);

    data::ShardWriter writer(manifest_path().string(), 1, 11,
                             data::config_digest(gen));
    for (const auto& s : ds_->samples()) writer.add(s);
    (void)writer.finish();
  }
  ~CorruptionSweepTest() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path bundle_path() const { return dir_ / "m.rnxb"; }
  [[nodiscard]] fs::path manifest_path() const { return dir_ / "s.rnxm"; }

  fs::path dir_;
  std::unique_ptr<data::Dataset> ds_;
};

TEST_F(CorruptionSweepTest, BundleTruncationAtEveryPointIsTyped) {
  const std::vector<char> pristine = read_file(bundle_path());
  ASSERT_GT(pristine.size(), 24u);  // more than just the header
  const fs::path victim = dir_ / "trunc.rnxb";
  std::size_t attempts = 0;
  for (const std::size_t len : truncation_points(pristine.size())) {
    write_file(victim, {pristine.begin(),
                        pristine.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW((void)serve::load_bundle(victim.string()),
                 std::runtime_error)
        << "truncated to " << len << " of " << pristine.size() << " bytes";
    ++attempts;
  }
  EXPECT_GE(attempts, 32u);
  // The pristine file still loads — the sweep proved detection, not rot.
  EXPECT_NO_THROW((void)serve::load_bundle(bundle_path().string()));
}

TEST_F(CorruptionSweepTest, BundleBitFlipInEveryWindowIsTyped) {
  const std::vector<char> pristine = read_file(bundle_path());
  const fs::path victim = dir_ / "flip.rnxb";
  std::size_t attempts = 0;
  for (std::size_t w = 0; w < pristine.size(); w += 64) {
    // One flipped bit per 64-byte window, walking byte offset and bit
    // position so header fields, length fields, checksum and body all
    // get hit across the sweep.
    const std::size_t byte =
        std::min(w + (w / 64) % 64, pristine.size() - 1);
    std::vector<char> mutated = pristine;
    mutated[byte] = static_cast<char>(
        static_cast<unsigned char>(mutated[byte]) ^ (1u << ((w / 64) % 8)));
    write_file(victim, mutated);
    EXPECT_THROW((void)serve::load_bundle(victim.string()),
                 std::runtime_error)
        << "bit flip at byte " << byte;
    ++attempts;
  }
  EXPECT_GE(attempts, 8u);
  EXPECT_NO_THROW((void)serve::load_bundle(bundle_path().string()));
}

TEST_F(CorruptionSweepTest, ManifestTruncationAtEveryPointIsTyped) {
  const std::vector<char> pristine = read_file(manifest_path());
  ASSERT_GT(pristine.size(), 24u);
  // Corrupt the real manifest in place (shards stay next to it, so a
  // survivor-parse would find them); restore after the sweep.
  for (const std::size_t len : truncation_points(pristine.size())) {
    write_file(manifest_path(),
               {pristine.begin(),
                pristine.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW(data::ShardedReader r(manifest_path().string()),
                 data::ManifestError)
        << "truncated to " << len << " of " << pristine.size() << " bytes";
  }
  write_file(manifest_path(), pristine);
  EXPECT_EQ(data::ShardedReader(manifest_path().string()).total_samples(),
            2u);
}

TEST_F(CorruptionSweepTest, ManifestBitFlipInEveryWindowIsTyped) {
  const std::vector<char> pristine = read_file(manifest_path());
  for (std::size_t w = 0; w < pristine.size(); w += 16) {
    // Manifests are small: flip densely, one bit per 16-byte window.
    const std::size_t byte =
        std::min(w + (w / 16) % 16, pristine.size() - 1);
    std::vector<char> mutated = pristine;
    mutated[byte] = static_cast<char>(
        static_cast<unsigned char>(mutated[byte]) ^ (1u << ((w / 16) % 8)));
    write_file(manifest_path(), mutated);
    EXPECT_THROW(data::ShardedReader r(manifest_path().string()),
                 data::ManifestError)
        << "bit flip at byte " << byte;
  }
  write_file(manifest_path(), pristine);
  EXPECT_EQ(data::ShardedReader(manifest_path().string()).load_all().size(),
            2u);
}

// The envelope bounds the body size by the bytes left in the file.  The
// size field is set to 32 MiB: more than the file holds, yet below
// every per-format bound the readers once carried (64 MiB, 1 GiB,
// 4 GiB).  Each load must fail with its format's typed error naming the
// claimed size — a reader that trusted the field would allocate the
// body first and then report a truncation.
constexpr std::uint64_t kClaimedBodyBytes = 32ull << 20;

void claim_body_size(const fs::path& path) {
  std::vector<char> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 24u);
  ASSERT_LT(bytes.size(), kClaimedBodyBytes);
  std::memcpy(bytes.data() + 8, &kClaimedBodyBytes, 8);
  write_file(path, bytes);
}

TEST_F(CorruptionSweepTest, EnvelopeBodySizeBoundedByFile) {
  core::TrainCheckpoint ck;
  core::TrainCheckpoint::ParamState p;
  p.name = "w";
  p.value = p.m = p.v = nn::Tensor(2, 2);
  ck.params.push_back(std::move(p));
  const std::string checkpoint = (dir_ / "train.rnxc").string();
  core::save_checkpoint(checkpoint, ck);

  claim_body_size(bundle_path());
  claim_body_size(checkpoint);
  claim_body_size(manifest_path());
  const std::string want = "body size " + std::to_string(kClaimedBodyBytes);
  try {
    (void)serve::load_bundle(bundle_path().string());
    ADD_FAILURE() << "bundle with an oversized body size accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  try {
    (void)core::load_checkpoint(checkpoint);
    ADD_FAILURE() << "checkpoint with an oversized body size accepted";
  } catch (const core::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  try {
    const data::ShardedReader reader(manifest_path().string());
    ADD_FAILURE() << "manifest with an oversized body size accepted";
  } catch (const data::ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
}

}  // namespace

// Golden byte pins for every rnx on-disk format (DESIGN.md "On-disk
// formats").
//
// The format tests elsewhere compare two saves with each other (default
// vs explicit fp64, save vs reload), so a codec rewrite that moved every
// writer the same way would pass them all.  These constants are FNV-1a
// digests of the exact bytes each writer puts on disk; a mismatch means
// an on-disk layout changed, which needs a format version bump and
// back-compat loading — never a silent diff.
//
// Models use freshly initialised weights (no training), so the digests
// do not depend on the SIMD kernel backend.  Pinned:
//   - save_bundle for both model kinds (the v4 quantized bundles it
//     wrote before it lost its encoding parameter are checked in under
//     tests/fixtures and pinned by tests/quantize_test.cpp);
//   - save_checkpoint of a fixed TrainCheckpoint;
//   - Model::save_weights;
//   - Dataset::save of two fixed generated samples;
//   - one ShardWriter store: both shard files and the manifest;
//   - data::config_digest of the default GeneratorConfig.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

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

std::uint64_t file_digest(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f) << "cannot open " << p;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::istreambuf_iterator<char> it(f), end; it != end; ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 0x100000001b3ull;
  }
  return h;
}

core::ModelConfig golden_config() {
  core::ModelConfig mc;
  mc.state_dim = 8;
  mc.readout_hidden = 12;
  mc.iterations = 3;
  mc.init_seed = 11;
  return mc;
}

data::Scaler golden_scaler() {
  return data::Scaler::from_moments({1.5e6, 4.0e5}, {1.0e7, 2.5e6},
                                    {24.0, 9.0}, {-5.25, 0.75},
                                    {-12.5, 1.125});
}

data::Dataset golden_dataset() {
  data::GeneratorConfig cfg;
  cfg.target_packets = 2'000;
  return data::Dataset(data::generate_dataset(topo::ring(4), 2, cfg, 7));
}

class DiskFormatGolden : public ::testing::Test {
 protected:
  DiskFormatGolden() {
    util::set_log_level(util::LogLevel::kWarn);
    dir_ = fs::temp_directory_path() /
           ("rnx_disk_golden." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~DiskFormatGolden() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(DiskFormatGolden, BundleBytes) {
  struct Case {
    const char* name;
    core::ModelKind kind;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"orig fp64", core::ModelKind::kOriginal, 7455097211106632663ull},
      {"ext fp64", core::ModelKind::kExtended, 10344966453658963824ull},
  };
  const data::Scaler scaler = golden_scaler();
  for (const Case& c : cases) {
    const fs::path path = dir_ / "m.rnxb";
    const auto model = core::make_model(c.kind, golden_config());
    serve::save_bundle(path.string(), *model, scaler,
                       core::PredictionTarget::kDelay, 10);
    EXPECT_EQ(file_digest(path), c.digest) << c.name;
  }
}

TEST_F(DiskFormatGolden, CheckpointBytes) {
  core::TrainCheckpoint ck;
  ck.streaming = true;
  ck.config_digest = 0x0123456789abcdefull;
  ck.epoch = 3;
  ck.batch_in_epoch = 7;
  ck.samples_done = 28;
  ck.lr = 1e-3;
  ck.loss_sum = 12.5;
  ck.loss_count = 28;
  ck.best_val = 0.375;
  ck.since_best = 2;
  ck.adam_t = 61;
  const data::Scaler scaler = golden_scaler();
  ck.scaler_moments = {scaler.traffic_moments(), scaler.capacity_moments(),
                       scaler.queue_moments(), scaler.log_delay_moments(),
                       scaler.log_jitter_moments()};
  for (const auto& [name, var] :
       core::make_model(core::ModelKind::kOriginal, golden_config())
           ->named_params()) {
    core::TrainCheckpoint::ParamState p;
    p.name = name;
    p.value = var.value();
    p.m = nn::Tensor::full(p.value.rows(), p.value.cols(), 0.25);
    p.v = nn::Tensor::full(p.value.rows(), p.value.cols(), 0.0625);
    ck.params.push_back(std::move(p));
  }
  const fs::path path = dir_ / "train.rnxc";
  core::save_checkpoint(path.string(), ck);
  EXPECT_EQ(file_digest(path), 17218186879390571592ull);
}

TEST_F(DiskFormatGolden, WeightsBytes) {
  const fs::path path = dir_ / "w.rnxw";
  core::make_model(core::ModelKind::kExtended, golden_config())
      ->save_weights(path.string());
  EXPECT_EQ(file_digest(path), 679751286713468258ull);
}

TEST_F(DiskFormatGolden, DatasetBytes) {
  const fs::path path = dir_ / "ds.rnxd";
  golden_dataset().save(path.string());
  EXPECT_EQ(file_digest(path), 6673842889968440330ull);
}

TEST_F(DiskFormatGolden, ShardStoreBytes) {
  const fs::path manifest = dir_ / "store.rnxm";
  data::ShardWriter writer(manifest.string(), 1, 5,
                           data::config_digest(data::GeneratorConfig{}));
  const data::Dataset ds = golden_dataset();
  for (const auto& s : ds.samples()) writer.add(s);
  (void)writer.finish();
  EXPECT_EQ(file_digest(dir_ / "store.shard-0.rnxd"),
            2079400606956636367ull);
  EXPECT_EQ(file_digest(dir_ / "store.shard-1.rnxd"),
            14997199390733047624ull);
  EXPECT_EQ(file_digest(manifest), 5120072752218611543ull);
}

TEST_F(DiskFormatGolden, GeneratorConfigDigest) {
  EXPECT_EQ(data::config_digest(data::GeneratorConfig{}),
            2315459028429228645ull);
}

}  // namespace

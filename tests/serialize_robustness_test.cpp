// Corrupt-input robustness of the serializers: a damaged .rnxw or
// .rnxd must fail with a descriptive error — never a multi-gigabyte
// allocation from an unchecked length field, and never the misleading
// "unknown parameter" that an unchecked partial name read used to
// produce.  Dataset writes must additionally be atomic: a failed save
// never clobbers a previously good file.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "topo/zoo.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx::nn;
using rnx::util::RngStream;

template <typename T>
void put(std::ostream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

// One reader serves both weight sections, so every name-length guard
// runs against the fp64 "RNXW" and the quantized "RNXQ" section.
struct Section {
  const char* magic;
  WeightEncoding encoding;
};
constexpr Section kSections[] = {{"RNXW", WeightEncoding::kFp64},
                                 {"RNXQ", WeightEncoding::kFp16}};

// A syntactically valid header claiming `count` parameters, then the
// first parameter's `name_len` and (optionally) some name bytes.
std::string file_with_name_len(std::uint64_t count, std::uint32_t name_len,
                               const std::string& name_bytes,
                               const char* magic = "RNXW") {
  std::ostringstream f(std::ios::binary);
  f.write(magic, 4);
  put(f, std::uint32_t{1});  // version
  put(f, count);
  put(f, name_len);
  f.write(name_bytes.data(),
          static_cast<std::streamsize>(name_bytes.size()));
  return f.str();
}

TEST(SerializeRobustness, OversizedNameLengthRejectedFast) {
  RngStream rng(1);
  Mlp m({2, 2}, Activation::kNone, rng, "m");
  NamedParams params = m.named_params();

  // 4 GiB name length: must be rejected on the length check, not
  // attempted as an allocation + read.
  for (const Section& sec : kSections) {
    std::istringstream f(
        file_with_name_len(params.size(), 0xFFFFFFFFu, "", sec.magic),
        std::ios::binary);
    try {
      load_params(f, params, sec.encoding);
      FAIL() << sec.magic << ": corrupt name length accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("name length"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SerializeRobustness, ZeroNameLengthRejected) {
  RngStream rng(2);
  Mlp m({2, 2}, Activation::kNone, rng, "m");
  NamedParams params = m.named_params();
  for (const Section& sec : kSections) {
    std::istringstream f(file_with_name_len(params.size(), 0, "", sec.magic),
                         std::ios::binary);
    EXPECT_THROW(load_params(f, params, sec.encoding), std::runtime_error)
        << sec.magic;
  }
}

TEST(SerializeRobustness, TruncationInsideNameIsDescriptive) {
  RngStream rng(3);
  Mlp m({2, 2}, Activation::kNone, rng, "m");
  NamedParams params = m.named_params();

  // Claims an 8-byte name but the file ends after 3 bytes: the old code
  // read a half-garbage name and reported "unknown parameter".
  for (const Section& sec : kSections) {
    std::istringstream f(file_with_name_len(params.size(), 8, "m.l", sec.magic),
                         std::ios::binary);
    try {
      load_params(f, params, sec.encoding);
      FAIL() << sec.magic << ": truncated name accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
      EXPECT_EQ(std::string(e.what()).find("unknown parameter"),
                std::string::npos)
          << e.what();
    }
  }
}

// A non-finite weight makes every prediction non-finite, so it is
// refused at load in either section kind, naming the parameter.
TEST(SerializeRobustness, NonFiniteWeightRejected) {
  // A section holding one 1x2 tensor "w" with the given payload.
  const auto section = [](const char* magic, const std::string& payload) {
    std::string bytes = file_with_name_len(1, 1, "w", magic);
    std::ostringstream f(std::ios::binary);
    put(f, std::uint64_t{1});  // rows
    put(f, std::uint64_t{2});  // cols
    return bytes + f.str() + payload;
  };
  std::ostringstream nan64(std::ios::binary), inf16(std::ios::binary);
  put(nan64, 0.5);
  put(nan64, std::numeric_limits<double>::quiet_NaN());
  put(inf16, static_cast<std::uint8_t>(WeightEncoding::kFp16));
  put(inf16, std::uint16_t{0x3c00});  // 1.0
  put(inf16, std::uint16_t{0x7c00});  // +inf
  const std::pair<std::string, WeightEncoding> cases[] = {
      {section("RNXW", nan64.str()), WeightEncoding::kFp64},
      {section("RNXQ", inf16.str()), WeightEncoding::kFp16}};
  for (const auto& [bytes, encoding] : cases) {
    NamedParams params;
    params.emplace_back("w", Var(Tensor(1, 2), true));
    std::istringstream f(bytes, std::ios::binary);
    try {
      load_params(f, params, encoding);
      FAIL() << to_string(encoding) << ": non-finite weight accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite weight in w"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SerializeRobustness, PathOverloadNamesTheFile) {
  RngStream rng(4);
  Mlp m({2, 2}, Activation::kNone, rng, "m");
  NamedParams params = m.named_params();
  const std::string path = "/tmp/rnx_serialize_robustness.rnxw";
  {
    std::ofstream f(path, std::ios::binary);
    const std::string bytes =
        file_with_name_len(params.size(), 0xFFFFFFFFu, "");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    load_params(path, params);
    FAIL() << "corrupt file accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// ---- dataset (.rnxd) header robustness --------------------------------------

namespace {
// A syntactically valid .rnxd prelude claiming `count` samples, with no
// sample payload behind it.
void write_dataset_header_only(const std::string& path,
                               std::uint64_t count) {
  std::ofstream f(path, std::ios::binary);
  f.write("RNXD", 4);
  put(f, std::uint32_t{2});  // current version
  put(f, count);
}
}  // namespace

TEST(DatasetRobustness, ImplausibleSampleCountRejectedBeforeAllocation) {
  const std::string path = "/tmp/rnx_dataset_huge_count.rnxd";
  // 2^60 claimed samples in a 16-byte file: must be rejected on the
  // header bound (remaining bytes / min sample size), not attempted as
  // a multi-GB reserve() followed by a slow truncation error.
  write_dataset_header_only(path, 1ull << 60);
  try {
    (void)rnx::data::Dataset::load(path);
    FAIL() << "corrupt sample count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible sample count"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(DatasetRobustness, CountMustFitRemainingBytes) {
  const std::string path = "/tmp/rnx_dataset_overcount.rnxd";
  // Even a modest over-claim must fail the same bound: 1000 samples
  // cannot fit in an empty payload.
  write_dataset_header_only(path, 1000);
  EXPECT_THROW((void)rnx::data::Dataset::load(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(DatasetRobustness, SaveIsAtomic) {
  namespace fs = std::filesystem;
  using rnx::data::Dataset;
  const std::string dir = "/tmp/rnx_atomic_save_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/ds.rnxd";

  rnx::data::GeneratorConfig cfg;
  cfg.target_packets = 5'000;
  const Dataset ds(
      rnx::data::generate_dataset(rnx::topo::ring(4), 2, cfg, 3));
  ds.save(path);
  // No temp residue after a successful save, and the file loads.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(Dataset::load(path).size(), 2u);

  // A failing save (unwritable target directory) must throw without
  // touching anything at the destination.
  EXPECT_THROW(ds.save(dir + "/no_such_dir/ds.rnxd"), std::runtime_error);
  EXPECT_FALSE(fs::exists(dir + "/no_such_dir"));

  // Overwrite keeps the previous file intact until the rename: after a
  // successful second save the content is the new dataset, with no
  // temp file left behind.
  const Dataset ds2(
      rnx::data::generate_dataset(rnx::topo::ring(4), 3, cfg, 5));
  ds2.save(path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(Dataset::load(path).size(), 3u);
  fs::remove_all(dir);
}

// Model::save_weights goes through the same atomic writer as datasets:
// a save that fails mid-write keeps the previous weights file intact.
TEST(SerializeRobustness, WeightSaveIsAtomic) {
  namespace fs = std::filesystem;
  const std::string dir = "/tmp/rnx_weights_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/w.rnxw";
  RngStream rng(6);
  Mlp a({3, 4, 2}, Activation::kRelu, rng, "m");
  save_params(path, a.named_params());

  Mlp b({3, 4, 2}, Activation::kRelu, rng, "m");
  rnx::util::FaultInjector::instance().configure("io.atomic.write=nth:1");
  EXPECT_THROW(save_params(path, b.named_params()), std::runtime_error);
  rnx::util::FaultInjector::instance().reset();
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  NamedParams loaded = b.named_params();
  load_params(path, loaded);
  const NamedParams want = a.named_params();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& tw = want[i].second.value();
    const auto& tl = loaded[i].second.value();
    for (std::size_t j = 0; j < tw.size(); ++j)
      EXPECT_EQ(tw.flat()[j], tl.flat()[j]);
  }
  fs::remove_all(dir);
}

TEST(SerializeRobustness, StreamRoundTripIsBitwise) {
  RngStream rng(5);
  Mlp a({3, 4, 2}, Activation::kRelu, rng, "m");
  std::ostringstream out(std::ios::binary);
  save_params(out, a.named_params());

  RngStream rng2(77);
  Mlp b({3, 4, 2}, Activation::kRelu, rng2, "m");
  NamedParams pb = b.named_params();
  std::istringstream in(out.str(), std::ios::binary);
  load_params(in, pb);

  const NamedParams pa = a.named_params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto& ta = pa[i].second.value();
    const auto& tb = pb[i].second.value();
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t j = 0; j < ta.size(); ++j)
      EXPECT_EQ(ta.flat()[j], tb.flat()[j]);
  }
}

}  // namespace

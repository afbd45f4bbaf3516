#include "core/checkpoint.hpp"

#include <filesystem>
#include <sstream>

#include "util/binio.hpp"

namespace rnx::core {

namespace {

constexpr util::EnvelopeFormat kCheckpointFormat{
    .magic = "RNXC",
    .min_version = kMinCheckpointVersion,
    .max_version = kCheckpointVersion,
    .noun = "checkpoint",
    .extension = ".rnxc",
};

// Bounds that keep a corrupt checkpoint from driving huge allocations:
// far above any real model, far below anything that could hurt.
constexpr std::uint64_t kMaxParams = 1u << 16;
constexpr std::uint32_t kMaxNameLen = 1u << 12;
constexpr std::uint64_t kMaxTensorElems = 1ull << 28;

using Reader = util::Reader<CheckpointError>;

void put_tensor(std::ostream& f, const nn::Tensor& t) {
  util::put(f, static_cast<std::uint64_t>(t.rows()));
  util::put(f, static_cast<std::uint64_t>(t.cols()));
  util::put_span(f, t.flat());
}

nn::Tensor get_tensor(Reader& r) {
  std::uint64_t rows = 0, cols = 0;
  r.get(rows);
  r.get(cols);
  if (rows == 0 || cols == 0 || rows * cols > kMaxTensorElems)
    r.fail("implausible tensor shape " + std::to_string(rows) + "x" +
           std::to_string(cols));
  nn::Tensor t(rows, cols);
  r.get_span(t.flat());
  return t;
}

}  // namespace

std::string checkpoint_file(const std::string& dir) {
  return (std::filesystem::path(dir) / "train.rnxc").string();
}

void save_checkpoint(const std::string& path, const TrainCheckpoint& c) {
  using util::put;
  std::ostringstream b(std::ios::binary);
  put(b, static_cast<std::uint8_t>(c.streaming ? 1 : 0));
  put(b, c.config_digest);
  put(b, c.epoch);
  put(b, c.batch_in_epoch);
  put(b, c.samples_done);
  put(b, c.lr);
  put(b, c.shuffle_state);
  put(b, c.loss_sum);
  put(b, c.loss_count);
  put(b, c.best_val);
  put(b, c.since_best);
  put(b, c.adam_t);
  put(b, c.scaler_moments);
  put(b, static_cast<std::uint64_t>(c.params.size()));
  for (const TrainCheckpoint::ParamState& p : c.params) {
    util::put_string(b, p.name);
    put_tensor(b, p.value);
    put_tensor(b, p.m);
    put_tensor(b, p.v);
  }
  util::write_envelope(path, kCheckpointFormat, kCheckpointVersion, b.view());
}

TrainCheckpoint load_checkpoint(const std::string& path) {
  const std::string what = "load_checkpoint(" + path + ")";
  util::Envelope env =
      util::read_envelope<CheckpointError>(path, kCheckpointFormat, what);
  std::istringstream bs(std::move(env.body), std::ios::binary);
  Reader r(bs, what);
  TrainCheckpoint c;
  std::uint8_t streaming = 0;
  r.get(streaming);
  if (streaming > 1)
    r.fail("invalid mode byte " + std::to_string(streaming));
  c.streaming = streaming != 0;
  r.get(c.config_digest);
  r.get(c.epoch);
  r.get(c.batch_in_epoch);
  r.get(c.samples_done);
  r.get(c.lr);
  r.get(c.shuffle_state);
  r.get(c.loss_sum);
  r.get(c.loss_count);
  r.get(c.best_val);
  r.get(c.since_best);
  r.get(c.adam_t);
  r.get(c.scaler_moments);
  std::uint64_t count = 0;
  r.get(count);
  if (count > kMaxParams)
    r.fail("implausible parameter count " + std::to_string(count));
  c.params.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TrainCheckpoint::ParamState p;
    p.name = r.get_string("parameter name", 1, kMaxNameLen);
    p.value = get_tensor(r);
    p.m = get_tensor(r);
    p.v = get_tensor(r);
    if (!p.m.same_shape(p.value) || !p.v.same_shape(p.value))
      r.fail("moment shape mismatch for parameter '" + p.name + "'");
    c.params.push_back(std::move(p));
  }
  return c;
}

}  // namespace rnx::core

#include "data/source.hpp"

#include <utility>

#include "util/fault.hpp"

namespace rnx::data {

StreamingShardSource::StreamingShardSource(std::string manifest_path,
                                           std::size_t prefetch)
    : reader_(std::move(manifest_path)),
      prefetch_(prefetch == 0 ? 1 : prefetch) {}

StreamingShardSource::~StreamingShardSource() { stop(); }

std::size_t StreamingShardSource::peak_live_samples() const noexcept {
  const std::int64_t p = gauge_->peak.load();
  return p > 0 ? static_cast<std::size_t>(p) : 0;
}

void StreamingShardSource::stop() {
  if (queue_) queue_->close();  // producer's abandon signal
  if (producer_.joinable()) producer_.join();
  queue_.reset();
}

void StreamingShardSource::start() {
  queue_ = std::make_unique<
      util::BoundedQueue<std::shared_ptr<const Sample>>>(prefetch_);
  error_ = nullptr;
  producer_ = std::thread([this] { produce(); });
}

void StreamingShardSource::reset() {
  stop();
  start();
}

void StreamingShardSource::produce() {
  try {
    for (std::size_t i = 0; i < reader_.num_shards(); ++i) {
      // Injected producer crash (source.producer): throws on THIS
      // thread; the catch below parks it for the consumer — the same
      // ordering a real mid-stream shard failure takes.
      util::FaultInjector::instance().maybe_throw("source.producer");
      Dataset shard = reader_.load_shard(i);
      std::vector<Sample> samples = shard.release_samples();
      // The whole shard is resident from load until each sample's last
      // holder (queue or consumer) drops it; wrapping just transfers
      // ownership, so only the deleter decrements.
      const auto n = static_cast<std::int64_t>(samples.size());
      gauge_->add(n);
      std::int64_t handed = 0;
      bool abandoned = false;
      for (auto& s : samples) {
        auto gauge = gauge_;
        std::shared_ptr<const Sample> sp(
            new Sample(std::move(s)), [gauge](const Sample* p) {
              delete p;
              gauge->add(-1);
            });
        ++handed;
        if (!queue_->push(std::move(sp))) {  // consumer gone
          abandoned = true;
          break;
        }
      }
      // Samples never wrapped die with this vector — uncount them.
      if (handed < n) gauge_->add(-(n - handed));
      if (abandoned) return;
    }
  } catch (...) {
    // Park the error; close() below orders it before the consumer's
    // end-of-stream observation (both synchronize on the queue mutex).
    error_ = std::current_exception();
  }
  queue_->close();
}

std::shared_ptr<const Sample> StreamingShardSource::next() {
  if (!queue_)
    throw std::logic_error(
        "StreamingShardSource::next: reset() was never called");
  if (auto sp = queue_->pop()) return std::move(*sp);
  if (producer_.joinable()) producer_.join();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  return nullptr;
}

std::unique_ptr<SampleSource> open_source(const std::string& path) {
  if (is_manifest_file(path))
    return std::make_unique<StreamingShardSource>(path);
  return std::make_unique<DatasetSource>(Dataset::load(path));
}

}  // namespace rnx::data

// Pull-based sample streams (DESIGN.md §D).
//
// SampleSource is the unit training/eval consume: a resettable,
// fixed-size pass over samples.  The in-memory Dataset adapts trivially
// (DatasetSource); StreamingShardSource pulls a sharded on-disk store
// (data/shards.hpp) through a background prefetch thread and a
// util::BoundedQueue, so the consumer's peak residency is bounded by
// one shard plus the prefetch depth — datasets larger than RAM train
// fine.  open_source() picks between the two for a dataset file.
//
// Ownership: next() hands out shared_ptr<const Sample>.  The streaming
// source allocates each sample once and forgets it (the consumer's
// reference is the only one); DatasetSource aliases the dataset's
// storage (borrowed or owned by the source) with a non-owning pointer,
// so no copies happen on the in-memory path.  Consumers must hold the
// pointer for as long as they use the sample and key nothing on its
// address: a streamed sample's address is reused once the consumer
// drops it.
//
// Thread-safety (DESIGN.md §L): this type holds no mutex of its own —
// producer/consumer ordering lives entirely in the annotated
// util::BoundedQueue (whose lock discipline the static-analysis gate
// proves), the residency gauge is atomics, and `error_` is written by
// the producer strictly before queue_->close() and read by the
// consumer strictly after the closed queue drains, so the queue's
// internal mutex orders the handoff (see produce()/next()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "data/dataset.hpp"
#include "data/shards.hpp"
#include "util/bounded_queue.hpp"

namespace rnx::data {

class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Samples per pass (known up front for every source — the manifest
  /// records the total).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Begin a new pass.  Must be called before the first next() of every
  /// pass, including the first.
  virtual void reset() = 0;

  /// The next sample of the pass, nullptr once exhausted.  Rethrows a
  /// background I/O error (corrupt shard, missing file) at the point of
  /// consumption.
  [[nodiscard]] virtual std::shared_ptr<const Sample> next() = 0;

  /// True when the whole pass already lives in memory, so a consumer
  /// may hold all of it at once at no extra cost.
  [[nodiscard]] virtual bool in_memory() const { return false; }
};

/// In-memory adapter: one pass = the dataset in index order, zero-copy.
class DatasetSource final : public SampleSource {
 public:
  /// Borrowing form: `ds` must outlive the source.
  explicit DatasetSource(const Dataset& ds) : ds_(&ds) {}
  /// Owning form: the source keeps the dataset alive itself.
  explicit DatasetSource(Dataset&& ds)
      : owned_(std::make_shared<const Dataset>(std::move(ds))),
        ds_(owned_.get()) {}

  [[nodiscard]] std::size_t size() const override { return ds_->size(); }
  void reset() override { pos_ = 0; }
  [[nodiscard]] std::shared_ptr<const Sample> next() override {
    if (pos_ >= ds_->size()) return nullptr;
    // Non-owning alias into the dataset's storage (empty control block).
    return std::shared_ptr<const Sample>(std::shared_ptr<void>(),
                                         &(*ds_)[pos_++]);
  }
  [[nodiscard]] bool in_memory() const override { return true; }

 private:
  std::shared_ptr<const Dataset> owned_;  ///< owning form only
  const Dataset* ds_;
  std::size_t pos_ = 0;
};

/// Streaming pull over a sharded store: a background producer loads
/// shards in order and feeds samples through a bounded queue of depth
/// `prefetch`.  Peak resident samples <= one shard + prefetch + what
/// the consumer currently holds (instrumented: peak_live_samples()).
class StreamingShardSource final : public SampleSource {
 public:
  explicit StreamingShardSource(std::string manifest_path,
                                std::size_t prefetch = 64);
  ~StreamingShardSource() override;
  StreamingShardSource(const StreamingShardSource&) = delete;
  StreamingShardSource& operator=(const StreamingShardSource&) = delete;

  [[nodiscard]] std::size_t size() const override {
    return static_cast<std::size_t>(reader_.total_samples());
  }
  void reset() override;
  [[nodiscard]] std::shared_ptr<const Sample> next() override;

  [[nodiscard]] const ShardedReader& reader() const noexcept {
    return reader_;
  }
  /// High-water mark of simultaneously resident samples produced by
  /// this source (loaded-but-unconsumed + consumer-held).  The
  /// residency-bound test pins this against shard size + prefetch.
  [[nodiscard]] std::size_t peak_live_samples() const noexcept;

 private:
  // Survives the source so late-dropped samples can still decrement.
  struct Gauge {
    std::atomic<std::int64_t> live{0};
    std::atomic<std::int64_t> peak{0};
    void add(std::int64_t n) {
      const std::int64_t now = live.fetch_add(n) + n;
      std::int64_t prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
    }
  };

  void start();
  void stop();
  void produce();

  ShardedReader reader_;
  std::size_t prefetch_;
  std::shared_ptr<Gauge> gauge_ = std::make_shared<Gauge>();
  std::unique_ptr<util::BoundedQueue<std::shared_ptr<const Sample>>> queue_;
  std::thread producer_;
  std::exception_ptr error_;  ///< producer -> consumer, ordered by close()
};

/// One pass over a dataset file: a sharded-store manifest (.rnxm,
/// detected by magic) streams through StreamingShardSource, anything
/// else loads as a monolithic .rnxd into an owning DatasetSource.  The
/// load raises what Dataset::load / ShardedReader raise today (a
/// missing path is Dataset::load's std::runtime_error).
[[nodiscard]] std::unique_ptr<SampleSource> open_source(
    const std::string& path);

}  // namespace rnx::data

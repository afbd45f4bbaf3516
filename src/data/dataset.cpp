#include "data/dataset.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "data/sample_io.hpp"
#include "util/binio.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace rnx::data {

Dataset::Dataset(std::vector<Sample> samples) : samples_(std::move(samples)) {}

void Dataset::shuffle(util::RngStream& rng) {
  for (std::size_t i = samples_.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(samples_[i - 1], samples_[j]);
  }
}

std::pair<Dataset, Dataset> Dataset::split(std::size_t count) const {
  if (count > samples_.size())
    throw std::invalid_argument("Dataset::split: count > size");
  Dataset a, b;
  a.samples_.assign(samples_.begin(),
                    samples_.begin() + static_cast<std::ptrdiff_t>(count));
  b.samples_.assign(samples_.begin() + static_cast<std::ptrdiff_t>(count),
                    samples_.end());
  return {std::move(a), std::move(b)};
}

std::size_t Dataset::total_paths() const noexcept {
  std::size_t n = 0;
  for (const auto& s : samples_) n += s.paths.size();
  return n;
}

void Dataset::save(const std::string& path) const {
  // Stream into a temp file, then rename: a crash or full disk
  // mid-write must never destroy a previously good dataset at `path`,
  // and no second in-memory copy of the serialized bytes is made.
  util::atomic_write_stream(
      path, [this](std::ostream& f) { io::write_dataset_stream(f, samples_); });
}

Dataset Dataset::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("Dataset::load: cannot open " + path);
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec)
    throw std::runtime_error("Dataset::load: cannot stat " + path + " (" +
                             ec.message() + ")");
  return Dataset(io::read_dataset_stream(f, file_bytes,
                                         "Dataset::load(" + path + ")"));
}

void Dataset::export_csv(const std::string& path) const {
  util::CsvWriter csv(path, dataset_csv_header());
  for (std::size_t i = 0; i < samples_.size(); ++i)
    append_csv_rows(csv, samples_[i], i);
}

std::vector<std::string> dataset_csv_header() {
  return {"sample",       "topo",      "src",           "dst",
          "hops",         "traffic_bps", "policy",      "traffic_model",
          "class",        "max_util",  "mean_delay_s",  "jitter_s2",
          "loss_rate",    "delivered"};
}

void append_csv_rows(util::CsvWriter& csv, const Sample& s,
                     std::size_t sample_index) {
  for (const auto& p : s.paths) {
    csv.add_row({std::to_string(sample_index), s.topo_name,
                 std::to_string(p.src), std::to_string(p.dst),
                 std::to_string(p.links.size()),
                 util::Table::cell(p.traffic_bps, 1),
                 std::string(sim::to_string(s.scenario.policy)),
                 std::string(sim::to_string(s.scenario.traffic)),
                 std::to_string(p.priority_class),
                 util::Table::cell(s.max_utilization, 3),
                 util::Table::cell(p.mean_delay_s, 9),
                 util::Table::cell(p.jitter_s2, 12),
                 util::Table::cell(p.loss_rate, 6),
                 std::to_string(p.delivered)});
  }
}

Dataset load_or_generate(const std::string& path, std::size_t expected,
                         const std::function<Dataset()>& generate) {
  if (std::filesystem::exists(path)) {
    // Never swallow WHY a cache is rejected: a size mismatch (stale
    // cache from a different config) reads very differently from a
    // corrupt/truncated file, and silent regeneration hides both.
    try {
      Dataset d = Dataset::load(path);
      if (d.size() == expected) {
        util::log_info("dataset cache hit: ", path, " (", d.size(),
                       " samples)");
        return d;
      }
      util::log_warn("dataset cache size mismatch for ", path, ": have ",
                     d.size(), " samples, want ", expected,
                     "; regenerating");
    } catch (const std::exception& e) {
      util::log_warn("dataset cache unreadable (", e.what(),
                     "); regenerating");
    }
  }
  Dataset d = generate();
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  d.save(path);
  util::log_info("dataset written: ", path, " (", d.size(), " samples)");
  return d;
}

}  // namespace rnx::data

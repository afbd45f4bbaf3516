#include "eval/experiment.hpp"

#include <stdexcept>

#include "topo/zoo.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace rnx::eval {

namespace {
std::string cache_name(const Fig2Config& cfg, const std::string& topo,
                       std::size_t count, std::uint64_t salt) {
  // Key the cache file on everything that shapes the dataset.
  return cfg.cache_dir + "/" + topo + "_n" + std::to_string(count) + "_s" +
         std::to_string(cfg.data_seed + salt) + "_p" +
         std::to_string(static_cast<int>(cfg.gen.p_tiny_queue * 100)) + "_k" +
         std::to_string(cfg.gen.target_packets) + ".rnxd";
}

data::Dataset make_set(const Fig2Config& cfg, const topo::Topology& topo,
                       std::size_t count, std::uint64_t salt) {
  auto generate = [&] {
    return data::Dataset(data::generate_dataset(topo, count, cfg.gen,
                                                cfg.data_seed + salt));
  };
  if (cfg.cache_dir.empty()) return generate();
  return data::load_or_generate(cache_name(cfg, topo.name(), count, salt),
                                count, generate);
}
}  // namespace

Fig2Datasets make_fig2_datasets(const Fig2Config& cfg) {
  util::Stopwatch watch;
  const topo::Topology geant2 = topo::geant2();
  const topo::Topology nsf = topo::nsfnet();
  Fig2Datasets ds;
  // Distinct salts keep train and test draws independent.
  ds.train = make_set(cfg, geant2, cfg.train_samples, 0);
  ds.geant2_test = make_set(cfg, geant2, cfg.geant2_test_samples, 1'000'000);
  ds.nsfnet_test = make_set(cfg, nsf, cfg.nsfnet_test_samples, 2'000'000);
  ds.generate_seconds = watch.seconds();
  return ds;
}

const Fig2Curve& Fig2Result::curve(const std::string& model,
                                   const std::string& topology) const {
  for (const auto& c : curves)
    if (c.model == model && c.topology == topology) return c;
  throw std::out_of_range("Fig2Result::curve: no such combination");
}

Fig2Result run_fig2(const Fig2Config& cfg) {
  Fig2Result result;

  Fig2Datasets ds = make_fig2_datasets(cfg);
  result.generate_seconds = ds.generate_seconds;
  if (cfg.verbose)
    util::log_info("fig2: datasets ready (", ds.train.size(), " train / ",
                   ds.geant2_test.size(), " geant2 test / ",
                   ds.nsfnet_test.size(), " nsfnet test; ",
                   ds.generate_seconds, "s)");

  // Scaler fitted on the training set only (and reused everywhere),
  // exactly as the paper's protocol requires.
  const data::Scaler scaler =
      data::Scaler::fit(ds.train.samples(), cfg.train.min_delivered);

  core::Model ext(core::ModelKind::kExtended, cfg.model);
  core::Model orig(core::ModelKind::kOriginal, cfg.model);

  util::Stopwatch train_watch;
  {
    core::Trainer trainer(ext, cfg.train);
    result.ext_history = trainer.fit(ds.train, scaler, &ds.geant2_test);
  }
  {
    core::Trainer trainer(orig, cfg.train);
    result.orig_history = trainer.fit(ds.train, scaler, &ds.geant2_test);
  }
  result.train_seconds = train_watch.seconds();

  auto add_curve = [&](core::Model& model, const std::string& topo,
                       const data::Dataset& set) {
    Fig2Curve c;
    c.model = model.name();
    c.topology = topo;
    c.predictions =
        predict_dataset(model, set, scaler, cfg.train.min_delivered);
    c.summary = summarize(c.predictions);
    c.rel_errors = relative_errors(c.predictions);
    result.curves.push_back(std::move(c));
  };
  add_curve(ext, "geant2", ds.geant2_test);
  add_curve(orig, "geant2", ds.geant2_test);
  add_curve(ext, "nsfnet", ds.nsfnet_test);
  add_curve(orig, "nsfnet", ds.nsfnet_test);
  return result;
}

}  // namespace rnx::eval

// rnx_serve — multi-bundle micro-batching serving harness.
//
//   rnx_serve --bundle delay=d.rnxb --bundle jitter=j.rnxb
//             --data scenarios.rnxd --requests 512 --clients 8 --verify
//
// Loads every named bundle into one serve::ModelRegistry (shared plan
// cache + shared fan-out pool), starts a serve::BatchScheduler in
// threaded mode, and drives it with a deterministic replay workload: a
// producer paces request descriptors (model name + sample index) through
// a util::BoundedQueue, client threads pop, submit, and wait — the
// closed-loop shape of an operator API in front of the scheduler.
// Prints the ServeStats snapshot plus client-side p50/p99 latency and
// throughput; --verify additionally rechecks every response bitwise
// against direct InferenceEngine::predict, which is the scheduler's
// determinism contract (DESIGN.md §B2).  Exits 1 on any mismatch.
//
// Degradation rig (DESIGN.md §R): --deadline-ms attaches a completion
// deadline to every request (expired ones resolve with
// DeadlineExceededError, never a lost future); SIGINT/SIGTERM — or
// --term-after N, which raises SIGTERM deterministically after N
// requests for CI replay — stops the producer and drains gracefully:
// admitted requests complete, late ones shed with kDraining, and the
// final ServeStats snapshot is printed before exiting 128+signum.
// Either way the run self-checks the conservation laws
// (submitted == admitted + shed; every admitted future resolved) and
// exits 1 when they do not hold.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <iostream>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "data/dataset.hpp"
#include "nn/kernels.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace rnx;

struct RequestPlan {
  std::size_t model;   ///< index into names
  std::size_t sample;  ///< index into the dataset
};

int run(int argc, char** argv) {
  const cli::Args args(
      argc, argv,
      {"bundle", "data", "requests", "clients", "threads", "max-batch",
       "linger-us", "queue-depth", "seed", "verify", "deadline-ms",
       "term-after"},
      "usage: rnx_serve --bundle NAME=FILE [--bundle NAME=FILE ...] "
      "--data ds.rnxd [options]\n"
      "  --bundle NAME=FILE  register bundle FILE as model NAME\n"
      "                      (bare FILE registers as 'default')\n"
      "  --data FILE         scenarios to replay as requests (.rnxd)\n"
      "  --requests N        total requests to issue (default 256)\n"
      "  --clients C         concurrent client threads (default 4)\n"
      "  --threads T         fan-out lanes, 0 = all cores (default 0)\n"
      "  --max-batch B       micro-batch sample bound (default 16)\n"
      "  --linger-us L       micro-batch linger in us (default 100)\n"
      "  --queue-depth Q     admission bound in requests (default 1024)\n"
      "  --seed S            request routing seed (default 1)\n"
      "  --deadline-ms D     per-request completion deadline (0 = none);\n"
      "                      expired requests resolve with a typed error\n"
      "  --term-after N      raise SIGTERM after issuing N requests — the\n"
      "                      deterministic drain-path replay for CI\n"
      "  --verify            recheck every response bitwise vs predict()\n"
      "\n"
      "SIGINT/SIGTERM drain gracefully: admitted requests complete, new\n"
      "ones shed, final stats print, exit 128+signum.");

  const std::vector<std::string> bundle_specs = args.all("bundle");
  const std::string data_path = args.get("data", std::string());
  if (bundle_specs.empty() || data_path.empty()) {
    std::cerr << "error: need at least one --bundle and --data\n";
    return 2;
  }
  // Sizing flags are usage errors (exit 2) before anything loads.
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = args.get_positive("queue-depth", std::size_t{1024});
  cfg.max_batch_samples = args.get_positive("max-batch", std::size_t{16});
  cfg.max_linger =
      std::chrono::microseconds(args.get("linger-us", std::size_t{100}));
  const std::size_t clients = args.get_positive("clients", std::size_t{4});

  std::cout << "kernels: " << nn::kernels::active().name << " ("
            << nn::kernels::dispatch_reason() << ")\n";

  serve::ModelRegistry registry(args.get("threads", std::size_t{0}));
  std::vector<std::string> names;
  for (const std::string& spec : bundle_specs) {
    const auto eq = spec.find('=');
    const std::string name =
        eq == std::string::npos ? "default" : spec.substr(0, eq);
    const std::string path =
        eq == std::string::npos ? spec : spec.substr(eq + 1);
    try {
      registry.add(name, path);
    } catch (const std::invalid_argument& e) {
      // Empty/duplicate names are usage errors (exit 2, like cli.hpp),
      // not runtime failures.
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    names.push_back(name);
    const serve::InferenceEngine& e = registry.at(name);
    std::cout << "model '" << name << "': " << e.model().name()
              << ", target " << core::to_string(e.target()) << " ("
              << path << ")\n";
  }

  const data::Dataset ds = data::Dataset::load(data_path);
  if (ds.size() == 0) {
    std::cerr << "error: dataset holds no samples\n";
    return 2;
  }

  serve::BatchScheduler scheduler(cfg, registry.pool());

  serve::SubmitOptions submit_opts;
  submit_opts.deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::milliseconds(args.get("deadline-ms", std::size_t{0})));
  const std::size_t term_after = args.get("term-after", std::size_t{0});
  util::install_interrupt_handlers();

  // Deterministic workload: one stream draws every request's route.
  const std::size_t requests = args.get("requests", std::size_t{256});
  util::RngStream rng(args.get("seed", std::size_t{1}));
  std::vector<RequestPlan> plan(requests);
  for (RequestPlan& r : plan) {
    r.model = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1));
    r.sample = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ds.size()) - 1));
  }

  std::cout << "replaying " << requests << " requests over " << ds.size()
            << " samples, " << clients << " clients, batch<="
            << cfg.max_batch_samples << ", linger "
            << cfg.max_linger.count() << "us\n";

  // Producer -> clients: descriptor indices through a bounded queue.
  util::BoundedQueue<std::size_t> feed(2 * clients + 1);
  struct ClientLog {
    std::vector<double> latency_us;
    std::vector<std::size_t> answered;  ///< plan indices, for --verify
    std::vector<std::vector<double>> responses;
    std::size_t admitted = 0;  ///< futures handed out — all must resolve
    std::size_t resolved = 0;  ///< futures that delivered value OR error
    std::size_t shed = 0;
    std::size_t expired = 0;    ///< DeadlineExceededError resolutions
    std::size_t cancelled = 0;  ///< Cancelled/ShutdownError resolutions
    std::size_t failed = 0;
    std::string first_error;
  };
  std::vector<ClientLog> logs(clients);
  const bool verify = args.has("verify");

  util::Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    workers.emplace_back([&, c] {
      ClientLog& log = logs[c];
      while (const std::optional<std::size_t> idx = feed.pop()) {
        const RequestPlan& r = plan[*idx];
        const auto t0 = std::chrono::steady_clock::now();
        serve::Submitted sub =
            scheduler.submit(registry, names[r.model],
                             std::span(&ds[r.sample], 1), submit_opts);
        if (!sub.admitted()) {
          ++log.shed;
          continue;
        }
        ++log.admitted;
        serve::PredictionSet got;
        try {
          got = sub.result.get();
          ++log.resolved;
        } catch (const serve::DeadlineExceededError&) {
          // The deadline passed while queued: typed, counted, and the
          // forward pass was never paid — degradation, not failure.
          ++log.resolved;
          ++log.expired;
          continue;
        } catch (const serve::CancelledError&) {
          ++log.resolved;
          ++log.cancelled;
          continue;
        } catch (const serve::ShutdownError&) {
          ++log.resolved;
          ++log.cancelled;
          continue;
        } catch (const std::exception& e) {
          // A failed request (e.g. feature-gating) is a reportable
          // outcome for the harness, not a process abort.
          ++log.resolved;
          if (log.failed++ == 0) log.first_error = e.what();
          continue;
        }
        const auto t1 = std::chrono::steady_clock::now();
        log.latency_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (verify) {
          log.answered.push_back(*idx);
          log.responses.push_back(std::move(got[0]));
        }
      }
    });

  std::size_t issued = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (term_after != 0 && issued >= term_after &&
        !util::interrupt_requested())
      std::raise(SIGTERM);  // the deterministic CI stand-in for operator ^C
    if (util::interrupt_requested()) break;
    bool pushed = false;
    while (!(pushed = feed.try_push(i)) && !util::interrupt_requested())
      std::this_thread::yield();
    if (!pushed) break;
    ++issued;
  }
  // Graceful drain on signal (or normal end-of-workload): stop feeding,
  // let clients finish their in-hand requests, then drain the scheduler
  // so every admitted future resolves before stats print.
  feed.close();
  for (std::thread& w : workers) w.join();
  const bool interrupted = util::interrupt_requested();
  if (interrupted)
    std::cout << "signal received after " << issued << "/" << requests
              << " requests: draining scheduler...\n";
  scheduler.drain();
  const double wall_s = wall.seconds();

  const serve::ServeStats stats = scheduler.stats();
  serve::print_stats(std::cout, stats);

  std::vector<double> lat;
  std::size_t admitted = 0, resolved = 0, shed = 0, expired = 0,
              cancelled = 0, failed = 0;
  std::string first_error;
  for (const ClientLog& log : logs) {
    lat.insert(lat.end(), log.latency_us.begin(), log.latency_us.end());
    admitted += log.admitted;
    resolved += log.resolved;
    shed += log.shed;
    expired += log.expired;
    cancelled += log.cancelled;
    failed += log.failed;
    if (first_error.empty()) first_error = log.first_error;
  }
  if (failed != 0)
    std::cout << "requests failed: " << failed << " (first: " << first_error
              << ")\n";
  std::sort(lat.begin(), lat.end());
  std::cout << "client side: " << lat.size() << " answered, " << shed
            << " shed, " << expired << " expired, " << cancelled
            << " cancelled, wall " << wall_s << " s, throughput "
            << (wall_s > 0 ? static_cast<double>(lat.size()) / wall_s : 0)
            << " req/s\n"
            << "latency p50 "
            << (lat.empty() ? 0.0 : util::percentile(lat, 50))
            << " us, p99 "
            << (lat.empty() ? 0.0 : util::percentile(lat, 99))
            << " us, max " << (lat.empty() ? 0.0 : lat.back()) << " us\n";

  if (verify) {
    // Requests draw (model, sample) with replacement, so memoize the
    // direct predictions: O(unique pairs) forwards, not O(requests).
    std::map<std::pair<std::size_t, std::size_t>, std::vector<double>>
        reference;
    std::size_t mismatches = 0;
    for (const ClientLog& log : logs)
      for (std::size_t i = 0; i < log.answered.size(); ++i) {
        const RequestPlan& r = plan[log.answered[i]];
        auto [it, fresh] = reference.try_emplace({r.model, r.sample});
        if (fresh)
          it->second = registry.at(names[r.model]).predict(ds[r.sample]);
        if (log.responses[i] != it->second) ++mismatches;
      }
    std::cout << "verify: " << mismatches
              << " mismatches vs direct predict()\n";
    if (mismatches != 0) return 1;
  }

  // Conservation self-checks (DESIGN.md §R): every submission is
  // accounted for, and every admitted future resolved — a violation
  // means the scheduler lost a request, which no exit path may mask.
  bool conserved = true;
  if (stats.submitted != stats.admitted + stats.shed) {
    std::cerr << "CONSERVATION VIOLATION: submitted " << stats.submitted
              << " != admitted " << stats.admitted << " + shed "
              << stats.shed << "\n";
    conserved = false;
  }
  if (stats.admitted != admitted) {
    std::cerr << "CONSERVATION VIOLATION: scheduler admitted "
              << stats.admitted << " != client-side admitted " << admitted
              << "\n";
    conserved = false;
  }
  if (resolved != admitted) {
    std::cerr << "CONSERVATION VIOLATION: " << (admitted - resolved)
              << " admitted future(s) never resolved (admitted " << admitted
              << ", resolved " << resolved << ")\n";
    conserved = false;
  }
  if (!conserved) return 1;
  std::cout << "conservation: ok (submitted == admitted + shed; "
               "all futures resolved)\n";
  if (interrupted) {
    std::cout << "drained after signal; exiting "
              << util::interrupt_exit_code() << "\n";
    return util::interrupt_exit_code();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// perfbench — one run of the repository benchmark.
//
//   perfbench --workload <serve_geant2|train_geant2|datagen_mix>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             --open-loop-rps <r>
//
// perfbench/run.py builds this binary, passes the open-loop rate from
// perfbench/workloads.json, and turns the JSON document printed on the
// last line of standard output into the benchmark's result.  With
// --trace 0 the named workload runs untraced and reports the end-to-end
// metrics; with --trace 1 the traced sections of all three workloads run
// (a third of --seconds each) and report the per-layer metrics, and the
// spans are written to <out-dir>/spans-<workload>-<seed>.json.  Exits 0
// when every output is correct, 1 when one is not, and 2 without a
// result when nothing could be measured (bad arguments, a non-Release
// build, a run too short for its tail percentile).
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::RunArgs;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --out-dir <dir> --open-loop-rps <r>\n";
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        seen_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else if (flag == "--open-loop-rps") {
        a.open_loop_rps = std::stod(v);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload != "serve_geant2" && a.workload != "train_geant2" &&
      a.workload != "datagen_mix")
    usage("unknown workload '" + a.workload + "'");
  if (!seen_seed) usage("--seed is required");
  if (!(a.seconds > 0)) usage("--seconds must be > 0");
  if (a.out_dir.empty()) usage("--out-dir is required");
  if (!(a.open_loop_rps > 0)) usage("--open-loop-rps must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const RunArgs args = parse(argc, argv);
  std::filesystem::create_directories(args.out_dir);

  RunResult out;
  fingerprint(out.report, "start");
  try {
    if (!args.trace) {
      if (args.workload == "serve_geant2") run_serve(args, out);
      if (args.workload == "train_geant2") run_train(args, out);
      if (args.workload == "datagen_mix") run_datagen(args, out);
    } else {
      const double third = args.seconds / 3.0;
      trace_serve(args, third, out);
      trace_train(args, third, out);
      trace_datagen(args, third, out);
      const std::string spans = args.out_dir + "/spans-" + args.workload +
                                "-" + std::to_string(args.seed) + ".json";
      if (!out.tracer.write_json(spans)) out.error("cannot write " + spans);
      out.report.note("spans_file", spans);
      out.report.note("spans", static_cast<double>(out.tracer.spans().size()));
    }
  } catch (const TooShort& e) {
    std::cerr << "perfbench: --seconds " << args.seconds
              << " is too short: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    out.error(std::string("exception: ") + e.what());
  }
  out.report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  fingerprint(out.report, "end");
  out.report.note("workload", args.workload);
  out.report.note("seed", static_cast<double>(args.seed));
  out.report.note("trace", args.trace ? 1.0 : 0.0);
  out.report.note("threads_peak", static_cast<double>(out.threads_peak));

  for (const std::string& e : out.errors) std::cerr << "perfbench: " << e << "\n";
  const bool correct = out.errors.empty() && out.ops.failed() == 0;
  std::cout << out.report.to_json(correct, out.ops) << std::endl;
  return correct ? 0 : 1;
}

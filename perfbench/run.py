#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>
    python3 perfbench/run.py --self-test

Builds the perfbench binary from source into .bench_build/ (CMake,
Release), runs it with the open-loop rate of perfbench/workloads.json,
prints the host fingerprint, every metric with its unit and the full
report, and as the last line the result object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  Exits 1 when the run's outputs are not correct and 2 when
nothing could be measured (no result line is printed then), for instance
when --seconds is too short for a workload's tail percentile.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY_TIMEOUT_S = 170

# The workload-specific names of the generic end-to-end metrics, printed
# in the summary.
SUMMARY_NAMES = {
    "serve_geant2": ["serve_p50_ms", "serve_p95_ms", "serve_capacity_rps"],
    "train_geant2": ["train_samples_per_s", "train_val_loss"],
    "datagen_mix": ["datagen_samples_per_s"],
}


class BenchError(Exception):
    """Nothing could be measured: no result line is printed."""


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build(targets):
    """Configure once, then build `targets`; compiler output goes to stderr."""
    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))

    if not (BUILD / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", str(BUILD), "--target", *targets, "-j", jobs])


def run_binary(config, workload, seed, seconds, trace):
    """Run one measurement; returns the binary's report document."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", str(OUT),
           "--open-loop-rps", str(config["serve_geant2"]["open_loop_rps"])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: perfbench exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: unreadable report line")


def result_line(report, bench, trace):
    """The contract's result object, plus any problems with the metrics."""
    specs = bench["per_layer" if trace else "end_to_end"]
    metrics, problems = {}, []
    for spec in specs:
        m = report["metrics"].get(spec["name"])
        if m is None or not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {spec['name']} missing or not a number")
        elif m["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} in {m['unit']}, "
                            f"BENCHMARK.json says {spec['unit']}")
        else:
            metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return ({"correct": bool(report["correct"]) and not problems,
             "attempted": int(report["attempted"]),
             "failed": int(report["failed"]),
             "metrics": metrics}, problems)


def print_summary(workload, report, line):
    notes = report["notes"]
    print(f"== {workload} seed={notes.get('seed')} trace={notes.get('trace')}")
    print("host: nproc={} cpu={} isa={} ({}) build={} load1m={}->{} "
          "threads_peak={}".format(
              notes.get("nproc"), notes.get("cpu_model"),
              notes.get("kernel_isa"), notes.get("kernel_dispatch_reason"),
              notes.get("build_type"), notes.get("loadavg_1m_start"),
              notes.get("loadavg_1m_end"), notes.get("threads_peak")))
    for name, m in sorted(line["metrics"].items()):
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':34s} {report['ops_failed_frac']:>16.6g} "
          f"ratio ({report['failed']} of {report['attempted']})")
    for name in SUMMARY_NAMES[workload]:
        if name in notes:
            print(f"  {name:34s} {notes[name]:>16.6g}")
    if "latency_highest_supported_q" in notes:
        print(f"  latency samples {notes['latency_samples']:.0f}, tail at "
              f"p{notes['latency_tail_q']:g} (highest supported "
              f"p{notes['latency_highest_supported_q']:g})")
    print("report: " + json.dumps(report, sort_keys=True))


def measure(bench, config, workload, seed, seconds, trace):
    report = run_binary(config, workload, seed, seconds, trace)
    line, problems = result_line(report, bench, trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print_summary(workload, report, line)
    return line


def self_test():
    build(["perfbench_tests"])
    rc = subprocess.run([str(BUILD / "perfbench_tests")]).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          str(HERE / "tests"), "-p", "test_*.py"]).returncode
    return 1 if rc else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args(argv)
    if a.self_test:
        return self_test()

    bench = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "workloads.json")
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names + ["all"]:
        raise BenchError(f"unknown workload {a.workload!r}; one of {names} or all")
    seconds = a.seconds if a.seconds else bench["run_seconds"]
    build(["perfbench"])

    if a.workload != "all":
        line = measure(bench, config, a.workload, a.seed, seconds, a.trace)
    else:
        lines = {w: measure(bench, config, w, a.seed, seconds, a.trace)
                 for w in names}
        line = {"correct": all(x["correct"] for x in lines.values()),
                "attempted": sum(x["attempted"] for x in lines.values()),
                "failed": sum(x["failed"] for x in lines.values()),
                "metrics": {f"{w}/{k}": v for w, x in lines.items()
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)

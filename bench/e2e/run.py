#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload oltp_inline --seed 1 --seconds 10 --trace 0

runs one process and passes its output through; the last line is the JSON
result. `--trace 1` makes it a traced run: per-layer metrics, with the spans
written to .bench_build/bench_e2e/out/<workload>-seed<n>.spans.tsv.

All workloads:

    python3 bench/e2e/run.py [--seed n] [--seconds s] [--trace 0|1] [--out results.json]

runs the six workloads one process each, prints every metric by name with
its unit, writes one results JSON and exits non-zero on any correctness
failure.

Run from the repository root. The build is a Release build of the
bench/e2e package in .bench_build/bench_e2e; it is redone incrementally
before every run, so a first run also compiles the libraries.
"""

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "bench_e2e")
# Each process measures for --seconds; set-up, the reference prefix and the
# capture round trip come on top. A process still running after this is
# stopped and counted as failed.
PROCESS_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>


def load_benchmark():
    """BENCHMARK.json, after checking layers.json maps every per-layer metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    workloads = {w["name"] for w in benchmark["workloads"]}
    targets = {m["name"] for m in benchmark["end_to_end"]} | {"failed"}
    declared = {m["name"] for m in benchmark["per_layer"]}
    problems = ["%s: in BENCHMARK.json, not in layers.json" % name
                for name in sorted(declared - set(layers))]
    problems += ["%s: in layers.json, not in BENCHMARK.json" % name
                 for name in sorted(set(layers) - declared)]
    for name, layer in sorted(layers.items()):
        problems += ["%s: moves unknown metric %s" % (name, m)
                     for m in layer["moves"] if m not in targets]
        problems += ["%s: unknown workload %s" % (name, w)
                     for w in layer["workloads"] if w not in workloads]
        if not layer["workloads"]:
            problems.append("%s: no workload" % name)
    if problems:
        sys.exit("run.py: layers.json and BENCHMARK.json disagree:\n  " + "\n  ".join(problems))
    return benchmark


def build():
    """Configures (once) and builds bench_e2e; build output goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def fixed_layout():
    """Turns off address-space randomisation for the process about to exec.

    With it on, each run draws a new placement of the rings, pools and
    stacks, and on oltp_shm 4 of 10 draws made slowdown_x 8-15% higher for
    the whole run (bench/e2e/README.md). If the call is refused, the run
    goes ahead with randomisation on.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_workload(workload, seed, seconds, trace):
    """Runs one bench_e2e process; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        command += ["--trace", os.path.join(OUT, "%s-seed%d.spans.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, PROCESS_TIMEOUT_S), file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def run_all(benchmark, seed, seconds, trace, out_path):
    results = {}
    ok = True
    for workload in [w["name"] for w in benchmark["workloads"]]:
        started = time.monotonic()
        code, lines = run_workload(workload, seed, seconds, trace)
        result = parse_result(lines)
        elapsed = time.monotonic() - started
        if code != 0 or result is None or not result["correct"]:
            ok = False
        print("== %s (seed %d, %.1f s, exit %d)" % (workload, seed, elapsed, code))
        if result is None:
            print("   no result")
            continue
        print("   correct %s, attempted %d, failed %d" %
              (result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("   %-46s %18.6f %s" % (name, metric["value"], metric["unit"]))
        results[workload] = result
    report = {
        "bench": "e2e",
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workloads": results,
    }
    if out_path:
        with open(out_path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote " + out_path)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="all workloads: write the results JSON here")
    args = parser.parse_args()

    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %r; one of %s" % (args.workload, ", ".join(names)))
    if not build():
        return 1
    if args.workload is None:
        return 0 if run_all(benchmark, args.seed, seconds, args.trace, args.out) else 1
    code, lines = run_workload(args.workload, args.seed, seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

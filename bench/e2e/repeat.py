#!/usr/bin/env python3
"""Run the end-to-end benchmark N times and report its run-to-run spread.

    python3 bench/e2e/repeat.py --runs 10 [--workload w ...] [--seconds s]
                                [--trace 0|1] [--first-seed n]
                                [--out set.json] [--compare earlier-set.json]

--out writes the summary under "end_to_end" (untraced) or "per_layer"
(--trace 1), keeping the other section if the file exists, so one file can
hold both; bench/e2e/BENCH_e2e.json is such a file.

Each run of each workload uses its own seed (first-seed, first-seed + 1, ...);
the workloads are interleaved so a slow spell of the host spreads over all of
them. For every metric x workload the table gives the median, the quartiles
(statistics.quantiles(values, n=4)), the interquartile range and the max-min
range as shares of the median, and the metric's bound from BENCHMARK.json.

Flags, for every metric that has a bound, setup_s included:
  SPREAD  the max-min range share exceeds the bound: runs of the same code
          differ by more than the regression gate allows;
  WIDE    the interquartile share exceeds a third of the bound (the
          steadiness target; informational);
  MOVED   with --compare: the median differs from the earlier set's median
          by more than the bound, in either direction.
The pairs flagged SPREAD or MOVED are listed again at the end, and the exit
code is non-zero if there are any, or any incorrect run.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (bench/e2e/run.py: build and process handling)


def summarise(values):
    """Median, quartiles and spreads; a spread over a zero median is None."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    share = (lambda width: width / abs(median)) if median != 0 else (lambda width: None)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": share(q3 - q1),
        "range_share": share(max(values) - min(values)),
        "values": values,
    }


def percent(share):
    return "-" if share is None else "%.2f" % (100 * share)


def change_share(median, reference):
    """How far `median` is from `reference`, as a signed share of it."""
    return 0.0 if reference == 0 else (median - reference) / abs(reference)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's metrics and the summary here")
    parser.add_argument("--compare", help="an earlier --out file to check medians against")
    args = parser.parse_args()

    benchmark = run.load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or names
    for workload in workloads:
        if workload not in names:
            parser.error("unknown workload %r" % workload)
    section = "per_layer" if args.trace else "end_to_end"
    declared = benchmark[section]
    metrics = {m["name"]: m for m in declared}
    if not run.build():
        return 1

    samples = {w: {} for w in workloads}
    incorrect = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            code, lines = run.run_workload(workload, seed, seconds, args.trace)
            result = run.parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                incorrect += 1
                print("run %d %s: exit %d, incorrect or no result" % (i + 1, workload, code))
                continue
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
            print("run %d/%d %s seed %d done" % (i + 1, args.runs, workload, seed), flush=True)

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f).get(section, {}).get("summary", {})

    summary = {}
    flagged = []
    print()
    print("%-44s %-16s %14s %14s %14s %8s %8s %8s %6s  %s" %
          ("metric", "workload", "median", "q1", "q3", "iqr%", "range%", "moved%", "bound",
           "flags"))
    for name, declared_metric in metrics.items():
        for workload in workloads:
            values = samples[workload].get(name)
            if not values:
                continue
            stats = summarise(values)
            summary.setdefault(workload, {})[name] = stats
            bound = declared_metric.get("bound")
            reference = earlier.get(workload, {}).get(name)
            moved = None if reference is None else change_share(stats["median"],
                                                                reference["median"])
            flags = []
            if bound is not None:
                if stats["range_share"] is not None and stats["range_share"] > bound:
                    flags.append("SPREAD")
                if moved is not None and abs(moved) > bound:
                    flags.append("MOVED")
                if flags:
                    flagged.append("%s %s: range %s%%, moved %s%%, bound %.0f%%" %
                                   (name, workload, percent(stats["range_share"]),
                                    percent(moved), 100 * bound))
                if stats["iqr_share"] is not None and stats["iqr_share"] > bound / 3:
                    flags.append("WIDE")
            print("%-44s %-16s %14.6g %14.6g %14.6g %8s %8s %8s %6s  %s" %
                  (name, workload, stats["median"], stats["q1"], stats["q3"],
                   percent(stats["iqr_share"]), percent(stats["range_share"]), percent(moved),
                   "" if bound is None else "%.0f%%" % (100 * bound), " ".join(flags)))

    if args.out:
        report = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                report = json.load(f)
        report["git_sha"] = run.git_sha()
        report[section] = {"runs": args.runs, "seconds": seconds, "first_seed": args.first_seed,
                           "summary": summary}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote " + args.out)
    for line in flagged:
        print("over bound: " + line)
    print("%d incorrect runs, %d metric x workload pairs over their bound" %
          (incorrect, len(flagged)))
    return 0 if incorrect == 0 and not flagged else 1


if __name__ == "__main__":
    sys.exit(main())

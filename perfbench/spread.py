#!/usr/bin/env python3
"""Measure how steady the benchmark is across seeds.

    python3 perfbench/spread.py [--workloads fuzz,batch-cold,serve-hot]
        [--seeds 1-10] [--seconds 10] [--trace 0] [--save FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

Runs perfbench/run.py once per seed and workload, one after another,
and prints, for every metric, the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
Exact metrics must not vary between runs of one seed; across seeds they
may.  --compare reads two saved sets of the same seeds and reports how
much worse each metric's median got from the first set to the second,
against the same bound.  Exits 1 when a bound is exceeded or a run
fails its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads, seeds, seconds, trace):
    """Per-workload metric values of every run, and the failed runs."""
    results, failed = {}, []
    for w in workloads:
        for s in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(s), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                sys.stderr.write(proc.stderr)
                print("%s seed %d: run failed (exit %d)" % (w, s, proc.returncode))
                failed.append((w, s))
            if not result:
                continue
            results.setdefault(w, []).append(
                {n: m["value"] for n, m in result["metrics"].items()})
            print("%-10s seed %3d  %s" % (w, s, "  ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)
    return results, failed


def spreads(results, metrics):
    bad = False
    for w, runs in results.items():
        print("\n%s (%d runs)" % (w, len(runs)))
        for m in metrics:
            values = [r[m["name"]] for r in runs if m["name"] in r]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, bad = "EXCEEDS BOUND", True
                elif spread > bound / 3:
                    flag = "above a third of the bound"
            print("  %-28s median %12.6g  iqr/median %6.3f  bound %-5s %s"
                  % (m["name"], med, spread, bound, flag))
    return bad


def compare(first, second, metrics):
    bad = False
    for w in first:
        print("\n%s" % w)
        for m in metrics:
            a = [r[m["name"]] for r in first[w]]
            b = [r[m["name"]] for r in second.get(w, [])]
            if not a or not b or "bound" not in m:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "EXCEEDS BOUND" if worse > m["bound"] else ""
            bad = bad or bool(flag)
            print("  %-28s first %12.6g  second %12.6g  worse by %6.3f  "
                  "bound %s %s" % (m["name"], ma, mb, worse, m["bound"], flag))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="fuzz,batch-cold,serve-hot")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    args = ap.parse_args()

    b = bench()
    metrics = b["per_layer"] if args.trace else b["end_to_end"]
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(1 if compare(sets[0], sets[1], metrics) else 0)
    seconds = args.seconds or b["run_seconds"]
    results, failed = run_set(args.workloads.split(","),
                              parse_seeds(args.seeds), seconds, args.trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    bad = spreads(results, metrics)
    if failed:
        print("\nfailed runs: " + ", ".join("%s seed %d" % f for f in failed))
    sys.exit(1 if bad or failed else 0)


if __name__ == "__main__":
    main()

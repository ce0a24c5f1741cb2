#!/usr/bin/env python3
"""Run one BVF benchmark workload and print its result.

Usage, from the root of a BVF checkout:

    python3 perfbench/run.py --workload fuzz|batch-cold|serve-hot \
        --seed N --seconds S --trace 0|1

The script builds perfbench/bench.exe with dune, records the host
(processor count, a one-versus-two-domain spin calibration, OCaml
version, commit and source digest), writes the workload's inputs from
the seed, measures the workload in a fresh process and checks the result against BENCHMARK.json.  The last line
of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The full record (work counts,
output checks, host) is written to perfbench/out/ and summarised on
standard error.  The exit code is 0 only when every output check
passed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("fuzz", "batch-cold", "serve-hot")
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not (
        os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("not a BVF checkout: dune-project and lib/ are missing")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_exe(args):
    proc = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                          text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("bench.exe %s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def host_record():
    calib = run_exe(["calibrate"])
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "calibration": calib,
        "commit": commit(),
        "source_digest": source_digest(),
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def summarise(record):
    err = sys.stderr
    print("perfbench %s seed %d trace %d: correct=%s attempted=%d failed=%d"
          % (record["workload"], record["seed"], record["trace"],
             record["correct"], record["attempted"], record["failed"]),
          file=err)
    raw = record["raw_metrics"]
    for name, m in record["metrics"].items():
        print("  %-28s %14.6g %-6s (raw %.6g)"
              % (name, m["value"], m["unit"], raw[name]["value"]), file=err)
    print("  work: " + json.dumps(record["work"]), file=err)
    for c in record["checks"]:
        if not c["ok"]:
            print("  CHECK FAILED %s: %s" % (c["name"], c["detail"]), file=err)
    host = record["host"]
    print("  host: nproc %s, effective parallelism %.2f, OCaml %s, reference "
          "%.3f ms (nominal %.3f), commit %s"
          % (host["nproc"],
             host["calibration"]["effective_parallelism"], host["ocaml"],
             host["reference_ms_median"], host["reference_nominal_ms"],
             host["commit"] or "none"),
          file=err)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    host = host_record()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", OUT]
    subprocess.run([EXE, "prepare"] + common, cwd=ROOT, check=True)
    record = run_exe(["run", "--seconds", str(args.seconds),
                      "--trace", str(args.trace)] + common)
    record["host"].update(host)
    record["seconds"] = args.seconds

    declared = declared_metrics(args.trace)
    printed = {n: m["unit"] for n, m in record["metrics"].items()}
    if printed != declared:
        record["checks"].append({
            "name": "metrics.match_benchmark_json", "ok": False,
            "detail": "printed %s, declared %s" % (sorted(printed),
                                                   sorted(declared)),
        })
        record["correct"] = False

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    summarise(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Appends one row to BENCH_certbench.json: repeated certbench runs of
every workload, summarized as median and interquartile range.

    python3 tools/bench_trajectory.py --label "my change" \
        [--runs 5] [--checkout DIR]

Every run is one `python3 certbench/run.py --workload W --seed 42
--seconds 20 --trace 0 --threads 3` inside the git checkout (default:
this repository; another clone measures another commit), so the numbers
are certbench's own and certbench builds them from that checkout's
sources; this script only repeats, summarizes and records them in this
repository's BENCH_certbench.json. The runs go round-robin over the
workloads, so slow drift of the machine's load spreads over all of
them. certbench warms up inside each run before it times anything.
The seed, run length and thread count are fixed so that every row of the
trajectory measures the same protocol and rows stay comparable.

For every workload the row records the median, the quartiles and the
per-run values of probes_per_s, setup_s and peak_rss_mb, and for epochs
also resume_s and store_mb. It also records the commit, the compiler
certbench reports and nproc. A run that is not "correct" (a failed self
check or digest) stops the script before anything is written.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("census_sweep", "corpus", "epochs")
E2E = ("probes_per_s", "setup_s", "peak_rss_mb")
EPOCH_INFO = ("resume_s", "store_mb")
SEED = 42
SECONDS = 20
THREADS = 3


def fail(message):
    print(f"bench_trajectory: {message}", file=sys.stderr)
    sys.exit(2)


def run_once(checkout, workload):
    """One certbench run; returns (metrics, compiler)."""
    cmd = [sys.executable, "certbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", "0", "--threads", str(THREADS)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} run exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} run was not correct: {lines[-1]}")
    metrics = {name: result["metrics"][name]["value"] for name in E2E}
    compiler = "unknown"
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "info" and \
                fields[1] in EPOCH_INFO:
            metrics[fields[1]] = float(fields[2])
        found = re.search(r"compiler=(.*) build=", line)
        if found:
            compiler = found.group(1)
    return metrics, compiler


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def commit_of(checkout):
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="what this row measures, e.g. the change")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--checkout", default=ROOT,
                        help="git checkout whose certbench/run.py is measured")
    args = parser.parse_args()

    if args.runs < 2:
        fail("--runs must be at least 2 for quartiles")
    checkout = os.path.abspath(args.checkout)
    commit = commit_of(checkout)
    if commit is None:
        fail(f"{checkout} is not a git checkout")

    samples = {w: {} for w in WORKLOADS}
    compiler = "unknown"
    for i in range(args.runs):
        for workload in WORKLOADS:
            metrics, compiler = run_once(checkout, workload)
            for name, value in metrics.items():
                samples[workload].setdefault(name, []).append(value)
            print(f"run {i + 1}/{args.runs} {workload}: "
                  f"{metrics['probes_per_s']:.0f} probes/s",
                  file=sys.stderr)

    row = {
        "label": args.label,
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "compiler": compiler,
        "nproc": os.cpu_count(),
        "seed": SEED,
        "runs": args.runs,
        "seconds": SECONDS,
        "threads": THREADS,
        "workloads": {
            w: {name: summarize(values)
                for name, values in samples[w].items()}
            for w in WORKLOADS
        },
    }
    out = os.path.join(ROOT, "BENCH_certbench.json")
    trajectory = {"rows": []}
    if os.path.exists(out):
        with open(out) as f:
            trajectory = json.load(f)
    trajectory["rows"].append(row)
    with open(out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(json.dumps(row["workloads"], indent=1))


if __name__ == "__main__":
    main()

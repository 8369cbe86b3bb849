#!/usr/bin/env python3
"""Appends two rows to BENCH_certbench.json, a parent row and a change
row: repeated certbench runs of every workload on two checkouts,
alternated run by run, each summarized as median and interquartile
range.

    python3 tools/bench_trajectory.py --label "my change" \
        --parent DIR [--checkout DIR] [--runs 5]

Every run is one `python3 certbench/run.py --workload W --seed 42
--seconds 20 --trace 0 --threads 3` inside a git checkout: --parent is
the commit the change is measured against, --checkout the change
(default: this repository). certbench builds each from its own
checkout's sources; this script only repeats, summarizes and records
the numbers in this repository's BENCH_certbench.json. For each run
index the script goes over the workloads and runs each on both
checkouts back to back, parent first on even indices and change first
on odd ones, so the two rows share the machine's load minute by minute
instead of being measured minutes apart. certbench warms up inside
each run before it times anything. The seed, run length and thread
count are fixed so that every row of the trajectory measures the same
protocol and rows stay comparable.

For every workload a row records the median, the quartiles and the
per-run values of probes_per_s, setup_s and peak_rss_mb, and for epochs
also resume_s and store_mb. It also records the commit, the compiler
certbench reports and nproc. The change row adds, per workload and
metric, in how many of the run pairs the change was better. A run that
is not "correct" (a failed self check or digest) stops the script
before anything is written.
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
HIGHER_IS_BETTER = ("probes_per_s",)
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


def wins(change, parent):
    """Per workload and metric: pairs in which the change was better."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for name in E2E:
            pairs = zip(change[workload][name], parent[workload][name])
            if name in HIGHER_IS_BETTER:
                better = sum(c > p for c, p in pairs)
            else:
                better = sum(c < p for c, p in pairs)
            out[workload][name] = better
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="what the change row measures")
    parser.add_argument("--parent", required=True,
                        help="git checkout of the commit the change is "
                             "measured against")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--checkout", default=ROOT,
                        help="git checkout of the change")
    args = parser.parse_args()

    if args.runs < 2:
        fail("--runs must be at least 2 for quartiles")
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.checkout)}
    commits = {}
    for side, checkout in checkouts.items():
        commits[side] = commit_of(checkout)
        if commits[side] is None:
            fail(f"{checkout} is not a git checkout")

    samples = {side: {w: {} for w in WORKLOADS} for side in checkouts}
    compiler = "unknown"
    for i in range(args.runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                metrics, compiler = run_once(checkouts[side], workload)
                for name, value in metrics.items():
                    samples[side][workload].setdefault(name, []).append(value)
                print(f"run {i + 1}/{args.runs} {side} {workload}: "
                      f"{metrics['probes_per_s']:.0f} probes/s",
                      file=sys.stderr)

    labels = {"parent": f"parent of {args.label} ({commits['parent'][:7]})",
              "change": args.label}
    rows = {}
    for side in ("parent", "change"):
        rows[side] = {
            "label": labels[side],
            "commit": commits[side],
            "date": datetime.date.today().isoformat(),
            "compiler": compiler,
            "nproc": os.cpu_count(),
            "seed": SEED,
            "runs": args.runs,
            "seconds": SECONDS,
            "threads": THREADS,
            "workloads": {
                w: {name: summarize(values)
                    for name, values in samples[side][w].items()}
                for w in WORKLOADS
            },
        }
    rows["change"]["pairs_change_better"] = wins(samples["change"],
                                                 samples["parent"])
    out = os.path.join(ROOT, "BENCH_certbench.json")
    trajectory = {"rows": []}
    if os.path.exists(out):
        with open(out) as f:
            trajectory = json.load(f)
    trajectory["rows"] += [rows["parent"], rows["change"]]
    with open(out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(json.dumps({side: row["workloads"] for side, row in rows.items()},
                     indent=1))
    print(json.dumps(rows["change"]["pairs_change_better"], indent=1))


if __name__ == "__main__":
    main()

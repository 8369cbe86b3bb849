#!/usr/bin/env python3
"""The certquic benchmark: builds certbench from source, runs one workload
and prints the result as one JSON object on the last line of stdout.

    python3 certbench/run.py --workload census_sweep --seed 42 \
        --seconds 20 --trace 0 [--threads 3]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) below the current directory, and so does every
file a run writes; nothing outside the checkout is touched.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. A run is correct when every self-check of the
binary passed and, for a seed pinned in certbench/reference.json, the
output digest matches the pinned one.

    python3 certbench/run.py --pin 0-31

recomputes the pinned digests (one short untraced run per workload and
seed) and rewrites reference.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census_sweep", "corpus", "epochs")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"certbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds certbench; returns (binary, target dir)."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "certbench")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "certbench"), os.path.join(root, target)


def run_binary(binary, scratch, workload, seed, seconds, trace, threads):
    """Runs one workload; returns (stdout lines, parsed result)."""
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads), "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def pin(binary, target, seeds, threads):
    reference = load_reference()
    for workload in WORKLOADS:
        pinned = reference.setdefault(workload, {})
        for seed in seeds:
            _, result = run_binary(binary, os.path.join(target, "runs"),
                                   workload, seed, 0, 0, threads)
            if result["failed"] or not all(c["ok"] for c in result["checks"]):
                fail(f"{workload} seed {seed} failed its self-checks")
            pinned[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}",
                  file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=3,
                        help="engine threads, capped at nproc - 1")
    parser.add_argument("--pin", metavar="SEEDS",
                        help="recompute reference digests, e.g. 0-31")
    args = parser.parse_args()

    root = os.getcwd()
    nproc = os.cpu_count() or 1
    # The plan-order sequencer runs on the calling thread beside the
    # engine's workers; leaving it a core of its own keeps pass times
    # steady (see NOTES.md).
    threads = max(1, min(args.threads, nproc - 1))
    binary, target = build(root)
    if args.pin:
        pin(binary, target, seeds_of(args.pin), threads)
        return
    if args.workload is None:
        fail("--workload is required")
    names = declared_metrics(root, args.trace)

    scratch = os.path.join(target, "runs", str(os.getpid()))
    lines, result = run_binary(binary, scratch, args.workload, args.seed,
                               args.seconds, args.trace, threads)
    for line in lines:
        print(line)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    checks_ok = all(c["ok"] for c in result["checks"])
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    if expected is None:
        print(f"reference: seed {args.seed} not pinned; self-checks only")
        reference_ok = True
    else:
        reference_ok = expected == result["digest"]
        print(f"reference: digest {result['digest']} "
              f"{'matches' if reference_ok else 'differs from'} {expected}")
    if not reference_ok or not checks_ok:
        failed = attempted
    print(f"failed_share {failed / max(1, attempted):.6f} ratio "
          f"(nproc={nproc} threads={threads} "
          f"compiler={result['compiler']} build={result['build_type']})")

    source = result["layer" if args.trace else "e2e"]
    missing = [n for n in names if n not in source]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": reference_ok and checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: source[n] for n in names},
    }))


if __name__ == "__main__":
    main()

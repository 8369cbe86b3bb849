#!/bin/sh
# Verification gate. Exits nonzero on any configure, build, test or
# check failure.
#
# Usage: tools/verify.sh [--threads N] [--sanitize] [--bench] [--tidy]
#                        [extra ctest args...]
#
# The default gate configures and builds build/ (-DCERTQUIC_WERROR=ON:
# the tree is warning-clean and stays that way), runs ctest (tier-1 and
# tier-2, or whatever the extra ctest args select, e.g. -L tier1), the
# out-of-core smoke, the epochs kill-resume smoke, the architecture
# analyzer and the docs check. Each flag adds stages to that gate:
#   --threads N   engine determinism: tier-1 under CERTQUIC_THREADS=1
#                 and =N (every figure and EnginePins study pins both
#                 1 and 8 threads in tier-1 already)
#   --sanitize    tier-1 under ASan+UBSan (build-asan/), then the
#                 threaded suites under TSan (build-tsan/); both with
#                 CERTQUIC_ASSERT on and no suppression files
#   --bench       a Release -DCERTQUIC_WERROR=ON build of build-release/
#                 (the optimizer's warnings differ from the default
#                 build type's), then 2 s traced certbench census_sweep,
#                 corpus and epochs runs that must each report
#                 "correct": true
#   --tidy        clang-tidy (the checked-in .clang-tidy) over src/;
#                 skipped with a notice when run-clang-tidy is missing
# Flags combine in any order and none drops another's stages.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"
scan=build/tools/certquic_scan

# Static documentation check (golden_test itself enforces that the
# goldens and the figure registry match):
#  * every golden tests/golden/<id>.txt must be named in a
#    docs/SCENARIOS.md row together with its driver, certquic_scan fig <id>;
#  * every relative markdown link in README.md and docs/ must resolve.
docs_check() {
  docs_status=0
  for golden in tests/golden/*.txt; do
    id=$(basename "$golden" .txt)
    if ! grep "certquic_scan fig $id\b" docs/SCENARIOS.md |
         grep -q "$golden"; then
      echo "FAIL docs: no docs/SCENARIOS.md row names certquic_scan fig $id and $golden"
      docs_status=1
    fi
  done
  for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    doc_dir=$(dirname "$doc")
    # Markdown targets of the form ](path) — URLs and pure anchors skip.
    for link in $(grep -o '](\([^)]*\))' "$doc" 2>/dev/null \
                    | sed 's/^](//; s/)$//'); do
      case $link in
        http://*|https://*|mailto:*|'#'*) continue ;;
      esac
      target=${link%%#*}
      [ -n "$target" ] || continue
      if [ ! -e "$doc_dir/$target" ]; then
        echo "FAIL docs: $doc links to missing file: $link"
        docs_status=1
      fi
    done
  done
  if [ "$docs_status" -eq 0 ]; then
    echo "OK   docs: every golden has a SCENARIOS row; markdown links"
  fi
  return "$docs_status"
}

# Out-of-core smoke: the sharded spill → merge pipeline (epoch 0 of the
# epoch service) must print the byte-identical census table that the
# in-memory aggregator prints on the same population.
outofcore_check() {
  ooc_dir=$(mktemp -d)
  ooc_status=0
  "$scan" census --domains 2000 --sample 300 \
    > "$ooc_dir/census.txt" || ooc_status=1
  "$scan" outofcore --domains 2000 --sample 300 --shards 3 \
    --store "$ooc_dir/store" > "$ooc_dir/outofcore.txt" \
    2> "$ooc_dir/outofcore.log" || ooc_status=1
  if [ "$ooc_status" -eq 0 ] &&
     cmp -s "$ooc_dir/census.txt" "$ooc_dir/outofcore.txt"; then
    echo "OK   outofcore: spill-merge census == in-memory census"
  else
    echo "FAIL outofcore: spill-merge output differs from in-memory census"
    diff -u "$ooc_dir/census.txt" "$ooc_dir/outofcore.txt" || true
    cat "$ooc_dir/outofcore.log" || true
    ooc_status=1
  fi
  rm -rf "$ooc_dir"
  return "$ooc_status"
}

# Longitudinal-service smoke: a 3-epoch run killed after 4 shard slices
# (with the last written shard additionally cut mid-record, as a crash
# mid-write would leave it) and then resumed, and the one-epoch-per-pass
# `serve` loop, must both print the byte-identical epoch tables of an
# uninterrupted run.
epochs_check() {
  ep_dir=$(mktemp -d)
  ep_status=0
  ep_flags="--domains 2000 --sample 150 --shards 3 --epochs 3"
  "$scan" epochs $ep_flags --store "$ep_dir/full" \
    > "$ep_dir/full.txt" 2> /dev/null || ep_status=1
  # The aborted run must itself exit nonzero (incomplete, resumable).
  if "$scan" epochs $ep_flags --store "$ep_dir/resume" \
       --abort-after-shards 4 > /dev/null 2>&1; then
    echo "FAIL epochs: crash-injected run exited zero"
    ep_status=1
  fi
  last_shard=$(find "$ep_dir/resume" -name 'shard_*.spill' | sort | tail -1)
  if [ -n "$last_shard" ]; then
    # 64 bytes keep the 10-byte spill header and the first record
    # (about 44 bytes) and cut the second record in its body.
    head -c 64 "$last_shard" > "$last_shard.cut"
    mv "$last_shard.cut" "$last_shard"
  else
    echo "FAIL epochs: crash-injected run left no shard files"
    ep_status=1
  fi
  "$scan" epochs $ep_flags --store "$ep_dir/resume" \
    > "$ep_dir/resumed.txt" 2> /dev/null || ep_status=1
  if [ "$ep_status" -eq 0 ] &&
     cmp -s "$ep_dir/full.txt" "$ep_dir/resumed.txt"; then
    echo "OK   epochs: killed-and-resumed run == uninterrupted run"
  else
    echo "FAIL epochs: resumed output differs from uninterrupted run"
    diff -u "$ep_dir/full.txt" "$ep_dir/resumed.txt" || true
    ep_status=1
  fi
  # `serve` seals one epoch per pass and must end on the same tables.
  if "$scan" serve $ep_flags --store "$ep_dir/serve" \
       > "$ep_dir/serve.txt" 2> /dev/null &&
     cmp -s "$ep_dir/full.txt" "$ep_dir/serve.txt"; then
    echo "OK   epochs: serve loop == uninterrupted epochs run"
  else
    echo "FAIL epochs: serve output differs from uninterrupted epochs run"
    diff -u "$ep_dir/full.txt" "$ep_dir/serve.txt" || true
    ep_status=1
  fi
  rm -rf "$ep_dir"
  return "$ep_status"
}

# Engine-determinism gate: tier-1 must pass with the serial engine and
# with N worker threads. Every figure and every EnginePins study already
# pins its output at 1 and 8 threads inside tier-1 (golden_test and
# bench.<id> set CERTQUIC_THREADS themselves; EnginePins passes the
# count); this stage reruns the other suites, whose studies take the
# engine's default thread count, under both.
threads_check() {
  th_status=0
  for t in 1 "$engine_threads"; do
    echo "== tier-1 with CERTQUIC_THREADS=$t =="
    (cd build && CERTQUIC_THREADS=$t \
       ctest --output-on-failure -j "$jobs" -L tier1 "$@") || th_status=1
  done
  return "$th_status"
}

# Sanitizer gate. Two builds (the ASan and TSan runtimes cannot link
# together): tier-1 under ASan+UBSan, then the suites that spin up
# worker threads under TSan. CERTQUIC_ASSERT is on in both
# (CERTQUIC_SANITIZE implies it), UBSan findings are hard failures
# (-fno-sanitize-recover), and there are no suppression files — the
# only sanctioned waiver mechanism in this repo is
# tools/lint_waivers.txt, which governs the lint, not the sanitizers.
sanitize_check() {
  echo "== ASan+UBSan: tier-1 =="
  cmake -B build-asan -S . -DCERTQUIC_WERROR=ON \
        -DCERTQUIC_SANITIZE="address;undefined" &&
    cmake --build build-asan -j "$jobs" &&
    (cd build-asan && ctest --output-on-failure -j "$jobs" -L tier1 "$@") &&
  echo "== TSan: threaded suites ==" &&
    cmake -B build-tsan -S . -DCERTQUIC_WERROR=ON \
          -DCERTQUIC_SANITIZE=thread &&
    cmake --build build-tsan -j "$jobs" &&
    (cd build-tsan && ctest --output-on-failure -j "$jobs" "$@" -R \
      '^(core_test|engine_test|executor_test|outofcore_test|service_test|ttfb_test|pqc_test|net_test)$') &&
  echo "OK   sanitize: ASan+UBSan tier-1 and TSan threaded suites clean"
}

# Benchmark self-check smoke. First the whole tree must build
# warning-clean as Release (build-release/), the build type certbench
# measures. Then a 2-second traced run of the certbench harness on each
# workload: census_sweep (the handshake path), corpus (chain
# materialization and the corpus fold) and epochs (every handshake
# through the codec again, then the spill writes, merge and resume).
# Each final JSON line carries "correct": true only when every
# self-check passed and the seed-42 digest matches
# certbench/reference.json. certbench builds into .bench_build/ like any
# certbench run.
certbench_check() {
  cb_out=$(mktemp)
  cb_status=0
  if cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
       -DCERTQUIC_WERROR=ON &&
     cmake --build build-release -j "$jobs"; then
    echo "OK   bench: Release -DCERTQUIC_WERROR=ON build-release/ builds"
  else
    echo "FAIL bench: Release -DCERTQUIC_WERROR=ON build-release/ failed"
    cb_status=1
  fi
  for cb_workload in census_sweep corpus epochs; do
    if ! python3 certbench/run.py --workload "$cb_workload" --seed 42 \
         --seconds 2 --trace 1 > "$cb_out"; then
      echo "FAIL bench: certbench $cb_workload exited nonzero"
      cb_status=1
    elif tail -n 1 "$cb_out" | python3 -c \
         'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
    then
      echo "OK   bench: certbench $cb_workload self-checks and digest correct"
    else
      echo "FAIL bench: certbench $cb_workload reported \"correct\": false"
      grep '^check\|^reference' "$cb_out" || true
      cb_status=1
    fi
  done
  rm -f "$cb_out"
  return "$cb_status"
}

# Architecture analyzer over the module-registered sources: layering
# against tools/layers.txt, IWYU-lite header hygiene, unused exports,
# the token-level lint rules and the tools/ nondet-source self-scan,
# with depgraph.{json,dot} written into build/.
analyze_check() {
  if cmake --build build --target analyze; then
    echo "OK   analyze: layering + hygiene clean; build/depgraph.json written"
  else
    echo "FAIL analyze: architecture analyzer found unwaived findings"
    return 1
  fi
}

# clang-tidy over src/, driven by build/compile_commands.json (exported
# unconditionally by the root CMakeLists).
tidy_check() {
  tidy_runner=$(command -v run-clang-tidy || command -v run-clang-tidy-18 ||
                true)
  if [ -z "$tidy_runner" ]; then
    echo "SKIP tidy: run-clang-tidy not found on PATH"
    return 0
  fi
  if "$tidy_runner" -p build -quiet "$repo_root/src/.*" \
       > build/tidy.log 2>&1; then
    echo "OK   tidy: clang-tidy clean over src/"
  else
    echo "FAIL tidy: clang-tidy reported findings (build/tidy.log)"
    tail -40 build/tidy.log
    return 1
  fi
}

# Flags may appear in any order; everything unrecognized is passed on
# to ctest.
sanitize=0
bench=0
tidy=0
engine_threads=""
while [ $# -gt 0 ]; do
  case $1 in
    --sanitize) sanitize=1; shift ;;
    --bench) bench=1; shift ;;
    --tidy) tidy=1; shift ;;
    --threads) engine_threads=${2:?--threads needs a value}; shift 2 ;;
    *) break ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 4)
cmake -B build -S . -DCERTQUIC_WERROR=ON
cmake --build build -j "$jobs"

# Every stage runs and records its verdict; the exit status is the
# conjunction. A bare ctest `-j` greedily eats the next argument, so
# the job count is always explicit.
status=0
(cd build && ctest --output-on-failure -j "$jobs" "$@") || status=1
if [ -n "$engine_threads" ]; then
  threads_check "$@" || status=1
fi
outofcore_check || status=1
epochs_check || status=1
if [ "$sanitize" -eq 1 ]; then
  sanitize_check "$@" || status=1
fi
if [ "$bench" -eq 1 ]; then
  certbench_check || status=1
fi
analyze_check || status=1
if [ "$tidy" -eq 1 ]; then
  tidy_check || status=1
fi
docs_check || status=1
exit "$status"

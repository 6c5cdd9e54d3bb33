#!/bin/bash
# Pre-PR gate: run every analysis configuration this repo supports.
#
#   1. plain build + full ctest
#   2. address,undefined-sanitized build + full ctest
#   3. clang-tidy build (skipped with a notice if clang-tidy is not on PATH)
#   4. race-detector clean pass over the whole bench suite (RACE_DETECT=1)
#   5. no-fault bench stdout must be byte-identical to the committed golden
#      (bench/golden/run_benches.stdout) — the faultlab zero-cost contract.
#      Runs with JSON_OUT_DIR set, so it also proves the structured export
#      leaves stdout untouched, and with JOBS-way cell parallelism, so it
#      also proves the parallel harness preserves the golden bytes.
#      Benches with self-checks (bench_placement's dominance gate,
#      bench_storage's checksum and recovery gates) exit 1 and fail it.
#   6. fault-injection pass: the whole bench suite plus the faultlab grid
#      under the canned memory-pressure plan (FAULTLAB=1) must exit 0
#   7. structured-export gate: schema-validate the per-bench JSON and the
#      merged BENCH_results.json from stage 5, then re-run the suite once
#      and assert the two same-seed merged documents are byte-identical
#   8. lock-contract gate: when clang++ is on PATH,
#      src/sanity/thread_safety_check.cc must compile under -Wthread-safety
#      -Werror=thread-safety, machine-checking the VirtualLock capability
#      annotations. It is the one static check ctest cannot run (the build
#      uses GCC). The static determinism gate, detlint, is ctest: the
#      detlint_tree scan and one detlint_rejects_* test per bad fixture
#      run in stages 1 and 2 with the rest of the suite.
#
# Stages 1, 2 and 3 build with -DNUMALAB_WERROR=ON: compiler warnings are
# errors in the gate (but not in a developer's plain ./build).
#
# Exits non-zero on the first failing stage. Build trees are kept under
# build-check-* so they never collide with a developer's ./build.
#
# Knobs:
#   JOBS=N   bench-cell parallelism for every suite run (stages 4-7);
#            defaults to the host's core count. Output bytes are identical
#            at any N (stage 5's golden cmp enforces it for the real
#            benches; the parallel_parity ctest checks the harness's merge
#            order on fake ones), so this is purely a wall-clock knob.
set -u
cd "$(dirname "$0")/.." || exit 1

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 1)}
export JOBS

run() {
  echo "check.sh: $*"
  "$@"
  local rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "check.sh: FAIL (exit $rc): $*" >&2
    exit "$rc"
  fi
}

echo "==== stage 1/8: plain build + ctest ===="
run cmake -B build-check -S . -G Ninja -DNUMALAB_WERROR=ON
run cmake --build build-check
run ctest --test-dir build-check --output-on-failure

echo "==== stage 2/8: address,undefined sanitizers + ctest ===="
run cmake -B build-check-asan -S . -G Ninja \
    -DNUMALAB_SANITIZE=address,undefined -DNUMALAB_WERROR=ON
run cmake --build build-check-asan
run ctest --test-dir build-check-asan --output-on-failure

echo "==== stage 3/8: clang-tidy build ===="
if command -v clang-tidy >/dev/null 2>&1; then
  run cmake -B build-check-tidy -S . -G Ninja -DNUMALAB_CLANG_TIDY=ON \
      -DNUMALAB_WERROR=ON
  run cmake --build build-check-tidy
else
  echo "check.sh: NOTICE: clang-tidy not found on PATH; skipping stage 3." \
       "Install clang-tidy (or run in the analysis container) for the" \
       "full gate."
fi

echo "==== stage 4/8: race-detector clean bench run ===="
# Reuses the plain stage-1 build; every bench runs with --race-detect=1 and
# any report makes the binary (and therefore run_benches.sh) exit non-zero.
run env BUILD_DIR=build-check RACE_DETECT=1 ./run_benches.sh

echo "==== stage 5/8: no-fault bench stdout vs committed golden ===="
# The faultlab zero-cost contract: with no fault plan installed, the whole
# bench suite must produce byte-identical stdout to the committed golden.
# Any drift means the no-fault path changed behaviour. Runs at JOBS-way
# cell parallelism, so the cmp below also pins the parallel-merge bytes.
# The export (json-a) is reused by stage 7; timing lands in
# build-check/timing-a.json.
echo "check.sh: env BUILD_DIR=build-check JSON_OUT_DIR=build-check/json-a JOBS=$JOBS ./run_benches.sh > build-check/run_benches.stdout"
env BUILD_DIR=build-check JSON_OUT_DIR=build-check/json-a \
    BENCH_TIMING_OUT=build-check/timing-a.json \
    ./run_benches.sh > build-check/run_benches.stdout
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "check.sh: FAIL (exit $rc): no-fault bench run" >&2
  exit "$rc"
fi
run cmp bench/golden/run_benches.stdout build-check/run_benches.stdout

echo "==== stage 6/8: fault-injection bench run (FAULTLAB=1) ===="
# Every bench plus the faultlab pressure grid runs under the canned
# per-node memory-pressure plan; every cell must degrade gracefully
# (spill, not crash) and the suite must exit 0.
run env BUILD_DIR=build-check FAULTLAB=1 ./run_benches.sh

echo "==== stage 7/8: structured-export schema + determinism ===="
# Schema-validate everything stage 5 exported, then run the suite a second
# (and final) time: same seeds, so the merged JSON must be byte-identical —
# the export determinism contract (no wall time, no pointers, no hash
# order). The merged document is the per-bench documents concatenated, so
# this one cmp covers every bench, serving and storage sections included.
# No later stage re-runs the suite or any bench binary.
if command -v python3 >/dev/null 2>&1; then
  run python3 scripts/validate_bench_json.py \
      build-check/json-a/BENCH_results.json build-check/json-a/bench_*.json
else
  echo "check.sh: NOTICE: python3 not found on PATH; skipping JSON schema" \
       "validation (determinism diff still runs)."
fi
run env BUILD_DIR=build-check JSON_OUT_DIR=build-check/json-b \
    ./run_benches.sh > /dev/null
run cmp build-check/json-a/BENCH_results.json \
    build-check/json-b/BENCH_results.json

echo "==== stage 8/8: thread-safety analysis ===="
# Clang thread-safety analysis over the annotated lock surface (VirtualLock
# through Env::Lock/LockReleased). GCC compiles the same macros as no-ops,
# so this is the only place the annotations are actually checked.
if command -v clang++ >/dev/null 2>&1; then
  run clang++ -std=c++20 -fsyntax-only -I. \
      -Wthread-safety -Werror=thread-safety \
      src/sanity/thread_safety_check.cc
else
  echo "check.sh: NOTICE: clang++ not found on PATH; skipping the" \
       "thread-safety analysis pass (the annotations still compiled as" \
       "no-op macros in stages 1-2). Install clang (or run in the" \
       "analysis container) for the full gate."
fi

echo "check.sh: all stages passed"

#!/bin/bash
# Harness-level contract tests for run_benches.sh parallel mode, on a tree
# of fake benches (shell scripts), so it needs no build:
#
#   1. Parity: a 3-bench roster run serially (JOBS=1) and with --jobs=4
#      must produce byte-identical stdout AND a byte-identical merged
#      BENCH_results.json. The first bench sleeps longest, so at --jobs=4
#      the cells complete out of roster order and the merge must put them
#      back. (Parity of the real benches' bytes is check.sh stage 5: a
#      JOBS-way suite run cmp'd against the serial golden.)
#   2. Failure propagation: an injected bench failure (exit 7) must reach
#      run_benches.sh's own exit status through the parallel path, with
#      the roster's other cells still emitted.
#   3. Exit-code 124 disambiguation: a bench that *itself* exits 124 while
#      the watchdog is armed is a plain failure ("exited with status 124"),
#      not a timeout — the old harness misclassified this.
#   4. Real watchdog timeout: a hung bench is killed and reported as
#      "timed out", with exit status 124.
#   5. Partial-merge rejection: a failed cell is recorded in the merged
#      JSON's "failures" and scripts/validate_bench_json.py refuses the
#      document (no schema-valid partial merges).
#   6. Duplicate roster: a roster that names a bench twice is refused with
#      exit 2 before any cell runs. Every cell writes
#      $spool_dir/<bench>.{stdout,stderr,status} (and, with JSON_OUT_DIR,
#      <dir>/<bench>.json), so two cells of one bench would share those
#      files and race.
#
# Usage: parallel_parity_test.sh
# Registered as the `parallel_parity` ctest.
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root" || exit 1

tmp=$(mktemp -d "${TMPDIR:-/tmp}/parallel_parity.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT

fails=0
fail() {
  echo "parallel_parity_test: FAIL: $*" >&2
  fails=$((fails + 1))
}
pass() {
  echo "parallel_parity_test: ok: $*"
}

# --- fake-bench tree ----------------------------------------------------
fake=$tmp/faketree
mkdir -p "$fake/bench"
cat > "$fake/bench/bench_ok" <<'EOF'
#!/bin/sh
echo "fake ok bench"
exit 0
EOF
cp "$fake/bench/bench_ok" "$fake/bench/bench_ok2"
cat > "$fake/bench/bench_fail7" <<'EOF'
#!/bin/sh
echo "fake failing bench"
exit 7
EOF
cat > "$fake/bench/bench_exit124" <<'EOF'
#!/bin/sh
echo "fake bench that exits 124 on its own"
exit 124
EOF
cat > "$fake/bench/bench_hang" <<'EOF'
#!/bin/sh
echo "fake hanging bench"
sleep 600
EOF
# Parity benches: two stdout lines plus a per-bench export, after a delay.
for spec in bench_slow:0.4 bench_fast:0 bench_mid:0.2; do
  name=${spec%%:*}
  cat > "$fake/bench/$name" <<EOF
#!/bin/sh
sleep ${spec#*:}
echo "fake parity bench $name"
echo "second line of $name"
for arg in "\$@"; do
  case \$arg in
    --json-out=*) printf '{"bench":"%s"}' $name > "\${arg#--json-out=}" ;;
  esac
done
EOF
done
chmod +x "$fake"/bench/*

# --- 1. serial vs --jobs=4 byte parity (stdout and merged JSON) ----------
parity="bench_slow bench_fast bench_mid"
env BUILD_DIR="$fake" BENCHES="$parity" JOBS=1 \
    JSON_OUT_DIR="$tmp/serial" \
    ./run_benches.sh > "$tmp/serial.stdout" 2> "$tmp/serial.stderr"
rc_serial=$?
env BUILD_DIR="$fake" BENCHES="$parity" \
    JSON_OUT_DIR="$tmp/parallel" \
    ./run_benches.sh --jobs=4 > "$tmp/parallel.stdout" 2> "$tmp/parallel.stderr"
rc_parallel=$?
if [[ $rc_serial -ne 0 ]]; then
  fail "serial run exited $rc_serial (stderr: $(cat "$tmp/serial.stderr"))"
fi
if [[ $rc_parallel -ne 0 ]]; then
  fail "--jobs=4 run exited $rc_parallel (stderr: $(cat "$tmp/parallel.stderr"))"
fi
if cmp -s "$tmp/serial.stdout" "$tmp/parallel.stdout"; then
  pass "stdout byte-identical between JOBS=1 and --jobs=4"
else
  fail "stdout differs between JOBS=1 and --jobs=4"
  diff "$tmp/serial.stdout" "$tmp/parallel.stdout" | head -20 >&2
fi
if cmp -s "$tmp/serial/BENCH_results.json" "$tmp/parallel/BENCH_results.json"; then
  pass "merged BENCH_results.json byte-identical between JOBS=1 and --jobs=4"
else
  fail "merged BENCH_results.json differs between JOBS=1 and --jobs=4"
fi

# --- 2. failure propagation through the parallel path --------------------
env BUILD_DIR="$fake" BENCHES="bench_ok bench_fail7 bench_ok2" JOBS=4 \
    ./run_benches.sh > "$tmp/fail.stdout" 2> "$tmp/fail.stderr"
rc=$?
if [[ $rc -eq 7 ]]; then
  pass "injected exit-7 failure propagates through --jobs (exit $rc)"
else
  fail "expected exit 7 from parallel run with failing bench, got $rc"
fi
if grep -q "bench_fail7 exited with status 7" "$tmp/fail.stderr"; then
  pass "failure reported per-cell on stderr"
else
  fail "missing per-cell failure report (stderr: $(cat "$tmp/fail.stderr"))"
fi
if [[ $(grep -c "^== " "$tmp/fail.stdout") -eq 3 ]]; then
  pass "all roster cells emitted despite the failure"
else
  fail "expected 3 emitted cells, got $(grep -c "^== " "$tmp/fail.stdout")"
fi

# --- 3. a bench's own exit 124 is NOT a timeout --------------------------
env BUILD_DIR="$fake" BENCHES="bench_exit124" JOBS=1 BENCH_TIMEOUT_SECS=600 \
    ./run_benches.sh > /dev/null 2> "$tmp/exit124.stderr"
rc=$?
if [[ $rc -eq 124 ]] && grep -q "bench_exit124 exited with status 124" \
    "$tmp/exit124.stderr" && ! grep -q "timed out" "$tmp/exit124.stderr"; then
  pass "bench exiting 124 reported as plain failure, not timeout"
else
  fail "exit-124 misclassified (rc=$rc, stderr: $(cat "$tmp/exit124.stderr"))"
fi

# --- 4. a real watchdog kill IS a timeout --------------------------------
if command -v timeout >/dev/null 2>&1; then
  env BUILD_DIR="$fake" BENCHES="bench_hang" JOBS=1 BENCH_TIMEOUT_SECS=1 \
      ./run_benches.sh > /dev/null 2> "$tmp/hang.stderr"
  rc=$?
  if [[ $rc -eq 124 ]] && grep -q "bench_hang timed out after 1s" \
      "$tmp/hang.stderr"; then
    pass "watchdog kill reported as timeout"
  else
    fail "watchdog timeout misreported (rc=$rc, stderr: $(cat "$tmp/hang.stderr"))"
  fi
else
  echo "parallel_parity_test: NOTICE: timeout(1) missing; skipping watchdog case"
fi

# --- 5. partial merges are recorded and rejected -------------------------
env BUILD_DIR="$fake" BENCHES="bench_ok bench_fail7" JOBS=2 \
    JSON_OUT_DIR="$tmp/partial" \
    ./run_benches.sh > /dev/null 2> "$tmp/partial.stderr"
merged=$tmp/partial/BENCH_results.json
if grep -q '"bench":"bench_fail7","kind":"exit","status":7' "$merged"; then
  pass "failed cell recorded in merged document"
else
  fail "merged document does not record the failed cell: $(cat "$merged")"
fi
# bench_ok exits 0 but (being a fake) never writes its per-bench JSON: the
# harness must flag that as a failure too, not silently merge around it.
if grep -q '"bench":"bench_ok","kind":"no-export"' "$merged"; then
  pass "missing per-bench export recorded as no-export failure"
else
  fail "missing per-bench export not recorded: $(cat "$merged")"
fi
if command -v python3 >/dev/null 2>&1; then
  if python3 scripts/validate_bench_json.py "$merged" > /dev/null 2>&1; then
    fail "validate_bench_json.py accepted a partial merge"
  else
    pass "validate_bench_json.py rejects the partial merge"
  fi
else
  echo "parallel_parity_test: NOTICE: python3 missing; skipping validator case"
fi

# --- 6. a roster that names a bench twice is refused ---------------------
env BUILD_DIR="$fake" BENCHES="bench_ok bench_ok" JOBS=4 \
    ./run_benches.sh > "$tmp/dup.stdout" 2> "$tmp/dup.stderr"
rc=$?
if [[ $rc -eq 2 ]]; then
  pass "duplicate roster refused with exit 2"
else
  fail "expected exit 2 from a duplicate roster, got $rc"
fi
if grep -q "roster names 'bench_ok' twice" "$tmp/dup.stderr"; then
  pass "duplicate roster rejection names the bench"
else
  fail "no duplicate-roster rejection message (stderr: $(cat "$tmp/dup.stderr"))"
fi
if [[ -s $tmp/dup.stdout ]]; then
  fail "a cell of the duplicate roster ran: $(cat "$tmp/dup.stdout")"
else
  pass "no cell of the duplicate roster ran"
fi

if [[ $fails -gt 0 ]]; then
  echo "parallel_parity_test: $fails check(s) failed" >&2
  exit 1
fi
echo "parallel_parity_test: all checks passed"

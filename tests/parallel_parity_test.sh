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
#      not a timeout. The harness learns of a timeout from the watchdog
#      firing, never from an exit code.
#   4. Real watchdog timeout: a hung bench is killed and reported as
#      "timed out", with exit status 124.
#   5. Partial-merge rejection: a failed cell is recorded in the merged
#      JSON's "failures" and scripts/validate_bench_json.py refuses the
#      document (no schema-valid partial merges).
#   6. Duplicate roster: a roster that names a bench twice is refused with
#      exit 2 before any cell runs. With JSON_OUT_DIR every cell writes
#      <dir>/<bench>.json, so two cells of one bench would share that file
#      and race.
#   7. Signal death: a bench killed by SIGSEGV reports "exited with status
#      139" (128+N, as a shell reports it), the harness exits 139 and the
#      merged document records "status":139.
#   8. Interrupt: SIGTERM sent to a JSON_OUT_DIR run mid-cell makes the
#      harness exit 143, leaves no <bench>.json or BENCH_results.json
#      behind, and leaves neither the bench nor its child running. (SIGINT
#      would not do: a background job of a non-interactive shell starts
#      with SIGINT ignored.)
#   9. A malformed BENCH_TIMEOUT_SECS (abc, -5) is refused with exit 2
#      before any cell runs, not reported as a timeout of every bench.
#  10. Stale export: in a reused JSON_OUT_DIR, a bench that exits 0 and
#      writes nothing is a no-export failure (nonzero exit), even though
#      the previous run's <bench>.json is still there when it starts.
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
cat > "$fake/bench/bench_segv" <<'EOF'
#!/bin/sh
echo "fake bench that dies of SIGSEGV"
kill -SEGV $$
EOF
# Writes its export, records its own pid and its sleep child's, then waits:
# a mid-cell kill must remove the export and leave neither process behind.
cat > "$fake/bench/bench_wait" <<EOF
#!/bin/sh
for arg in "\$@"; do
  case \$arg in
    --json-out=*) printf '{"bench":"bench_wait"}' > "\${arg#--json-out=}" ;;
  esac
done
sleep 30 &
echo "\$\$ \$!" > "$tmp/wait.pids"
wait
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
env BUILD_DIR="$fake" BENCHES="bench_hang" JOBS=1 BENCH_TIMEOUT_SECS=1 \
    ./run_benches.sh > /dev/null 2> "$tmp/hang.stderr"
rc=$?
if [[ $rc -eq 124 ]] && grep -q "bench_hang timed out after 1s" \
    "$tmp/hang.stderr"; then
  pass "watchdog kill reported as timeout"
else
  fail "watchdog timeout misreported (rc=$rc, stderr: $(cat "$tmp/hang.stderr"))"
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
if python3 scripts/validate_bench_json.py "$merged" > /dev/null 2>&1; then
  fail "validate_bench_json.py accepted a partial merge"
else
  pass "validate_bench_json.py rejects the partial merge"
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

# --- 7. a bench killed by a signal reports 128+N -------------------------
env BUILD_DIR="$fake" BENCHES="bench_ok bench_segv" JOBS=2 \
    JSON_OUT_DIR="$tmp/segv" \
    ./run_benches.sh > /dev/null 2> "$tmp/segv.stderr"
rc=$?
if [[ $rc -eq 139 ]] && grep -q "bench_segv exited with status 139" \
    "$tmp/segv.stderr"; then
  pass "SIGSEGV death reported as exit status 139"
else
  fail "SIGSEGV death misreported (rc=$rc, stderr: $(cat "$tmp/segv.stderr"))"
fi
if grep -q '"bench":"bench_segv","kind":"exit","status":139' \
    "$tmp/segv/BENCH_results.json"; then
  pass "merged document records status 139"
else
  fail "merged document lacks status 139: $(cat "$tmp/segv/BENCH_results.json")"
fi

# --- 8. SIGTERM mid-cell kills the cell and removes every export ---------
env BUILD_DIR="$fake" BENCHES="bench_ok bench_wait" JOBS=2 \
    JSON_OUT_DIR="$tmp/term" \
    ./run_benches.sh > /dev/null 2> "$tmp/term.stderr" &
harness=$!
for _ in $(seq 100); do
  [[ -s $tmp/wait.pids ]] && break
  sleep 0.1
done
[[ -s $tmp/wait.pids ]] || fail "bench_wait never started"
kill -TERM "$harness"
wait "$harness"
rc=$?
if [[ $rc -eq 143 ]]; then
  pass "SIGTERM mid-cell exits 143"
else
  fail "expected exit 143 after SIGTERM, got $rc (stderr: $(cat "$tmp/term.stderr"))"
fi
leftover=$(cd "$tmp/term" && ls -- *.json 2>/dev/null)
if [[ -z $leftover ]]; then
  pass "no per-bench or merged export left after SIGTERM"
else
  fail "exports left after SIGTERM: $leftover"
fi
read -r -a wait_pids < "$tmp/wait.pids"
for _ in $(seq 50); do
  alive=()
  for p in "${wait_pids[@]}"; do
    kill -0 "$p" 2>/dev/null && alive+=("$p")
  done
  [[ ${#alive[@]} -eq 0 ]] && break
  sleep 0.1
done
if [[ ${#alive[@]} -eq 0 ]]; then
  pass "no fake-bench process left running after SIGTERM"
else
  fail "fake-bench process(es) still running after SIGTERM: ${alive[*]}"
  kill -KILL "${alive[@]}" 2>/dev/null
fi

# --- 9. a malformed BENCH_TIMEOUT_SECS is refused before any cell runs ---
for bad in abc -5; do
  env BUILD_DIR="$fake" BENCHES="bench_ok" BENCH_TIMEOUT_SECS="$bad" \
      ./run_benches.sh > "$tmp/badtimeout.stdout" 2> "$tmp/badtimeout.stderr"
  rc=$?
  if [[ $rc -eq 2 && ! -s $tmp/badtimeout.stdout ]] && grep -qF \
      "BENCH_TIMEOUT_SECS must be a non-negative integer, got '$bad'" \
      "$tmp/badtimeout.stderr"; then
    pass "BENCH_TIMEOUT_SECS=$bad refused with exit 2 before any cell"
  else
    fail "BENCH_TIMEOUT_SECS=$bad not refused (rc=$rc, stderr: $(cat "$tmp/badtimeout.stderr"))"
  fi
done

# --- 10. a reused JSON_OUT_DIR does not merge a previous run's export ------
mkdir -p "$tmp/stale"
printf '{"stale":"previous run"}' > "$tmp/stale/bench_a.json"
cp "$fake/bench/bench_ok" "$fake/bench/bench_a"
env BUILD_DIR="$fake" BENCHES="bench_a" JOBS=1 JSON_OUT_DIR="$tmp/stale" \
    ./run_benches.sh > /dev/null 2> "$tmp/stale.stderr"
rc=$?
if [[ $rc -ne 0 ]] && grep -q '"bench":"bench_a","kind":"no-export"' \
    "$tmp/stale/BENCH_results.json"; then
  pass "stale export in a reused JSON_OUT_DIR is a no-export failure"
else
  fail "stale export merged (rc=$rc, merged: $(cat "$tmp/stale/BENCH_results.json"))"
fi
if grep -q '"stale"' "$tmp/stale/BENCH_results.json"; then
  fail "merged document holds the previous run's export"
fi

if [[ $fails -gt 0 ]]; then
  echo "parallel_parity_test: $fails check(s) failed" >&2
  exit 1
fi
echo "parallel_parity_test: all checks passed"

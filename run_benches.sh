#!/bin/bash
# Runs every bench binary in a fixed roster order, echoing a header per
# binary. Cells can run as concurrent host processes (JOBS/--jobs); the
# emitted stream is always merged back in roster order, so the bytes on
# stdout are identical at every job count — `JOBS=8 ./run_benches.sh` must
# (and does) byte-match the committed serial golden.
#
# Exit status: 0 only if every binary exits 0. A missing, failing, or
# timed-out binary is reported immediately after its cell is emitted and
# again in a summary line, and the script exits with the (first, in roster
# order) failing binary's status so CI cannot mask bench failures.
#
# Environment knobs:
#   BUILD_DIR=<dir>        bench binaries are taken from <dir>/bench
#                          (default: build)
#   JOBS=N | --jobs=N      run up to N bench cells concurrently (default 1).
#                          Each cell spools stdout/stderr to per-bench files;
#                          cells are emitted strictly in roster order as they
#                          complete, so output bytes never depend on N.
#   BENCHES="a b ..."      override the roster (for harness tests and quick
#                          subset runs). Order is preserved; a roster that
#                          names a bench twice is rejected (exit 2).
#   RACE_DETECT=1          pass --race-detect=1 to every bench: the
#                          simulated-thread race detector runs and any
#                          report makes that bench exit 1. Detection costs
#                          about 5x host time, so the heaviest benches
#                          (fig5, fig6, fig7) also get reduced input sizes
#                          (race_size_args below) to stay inside the
#                          watchdog; every grid cell and phase still runs
#   FAULTLAB=1             pass --faultlab=1 to every bench (canned per-node
#                          memory-pressure plan; see src/faultlab) and also
#                          run the bench_faultlab_grid robustness sweep
#   BENCH_TIMEOUT_SECS=N   per-bench watchdog via timeout(1); a bench that
#                          exceeds it is killed and reported as timed out
#                          (default: 600, 0 disables). The watchdog wraps the
#                          cell runner (scripts/parallel_run.sh), whose
#                          status file doubles as the sentinel: a bench that
#                          *itself* exits 124 is a plain failure, only a real
#                          watchdog kill is a timeout.
#   JSON_OUT_DIR=<dir>     pass --json-out=<dir>/<bench>.json to every bench,
#                          keep the per-bench stdout spools as <dir>/<bench>.stdout,
#                          and merge the per-bench documents into
#                          <dir>/BENCH_results.json after the run. The merged
#                          document records the expected roster and every
#                          failed cell, so a crashed bench can never yield a
#                          schema-valid "complete" merge
#                          (scripts/validate_bench_json.py rejects it).
#                          Export is pure bookkeeping: stdout stays
#                          byte-identical to a run without it (notices go to
#                          stderr).
#   BENCH_TIMING_OUT=<file> write host-side wall-clock timings (per bench and
#                          total, plus the job count) as JSON. Host timing is
#                          inherently nondeterministic, so it lives only in
#                          this file — never in stdout or the bench JSON.
set -u
build_dir=${BUILD_DIR:-build}
timeout_secs=${BENCH_TIMEOUT_SECS:-600}
json_dir=${JSON_OUT_DIR:-}
timing_out=${BENCH_TIMING_OUT:-}
jobs=${JOBS:-1}
for arg in "$@"; do
  case $arg in
    --jobs=*) jobs=${arg#--jobs=} ;;
    *)
      echo "run_benches.sh: unknown argument '$arg' (only --jobs=N)" >&2
      exit 2
      ;;
  esac
done
if ! [[ $jobs =~ ^[1-9][0-9]*$ ]]; then
  echo "run_benches.sh: JOBS/--jobs must be a positive integer, got '$jobs'" >&2
  exit 2
fi
extra_args=()
declare -A race_size_args=()
if [[ ${RACE_DETECT:-0} != 0 ]]; then
  extra_args+=(--race-detect=1)
  # Reduced input sizes for the benches whose race-detected run would
  # overrun the default watchdog on a 4-core host. Only the sizes shrink:
  # every cell, phase and code path of the full run still executes.
  race_size_args=(
    [bench_fig5_os_config]="--records=500000 --card=50000"
    [bench_fig6_allocators]="--records=250000 --card=25000 --build=18750 --probe=300000"
    [bench_fig7_indexes]="--build=25000 --probe=400000"
  )
  echo "run_benches.sh: race detection enabled (--race-detect=1)"
fi
benches=(bench_machines bench_fig2_alloc_micro bench_fig3_affinity_variance
         bench_fig4_sparse_dense bench_table3_profile bench_fig5_os_config
         bench_fig6_allocators bench_fig7_indexes bench_fig8_tpch
         bench_fig9_tpch_alloc bench_fig10_advisor bench_ablations
         bench_ext_onchip_numa bench_serving bench_placement bench_storage)
if [[ ${FAULTLAB:-0} != 0 ]]; then
  extra_args+=(--faultlab=1)
  benches+=(bench_faultlab_grid)
  echo "run_benches.sh: fault injection enabled (--faultlab=1)"
fi
if [[ -n ${BENCHES:-} ]]; then
  read -r -a benches <<< "$BENCHES"
fi
n=${#benches[@]}
# Each cell owns $spool_dir/<bench>.* and <json_dir>/<bench>.json, so a
# bench named twice would have two cells writing the same files.
declare -A in_roster=()
for b in "${benches[@]}"; do
  if [[ -n ${in_roster[$b]:-} ]]; then
    echo "run_benches.sh: roster names '$b' twice; each bench may run" \
         "once per invocation" >&2
    exit 2
  fi
  in_roster[$b]=1
done
if [[ -n $json_dir ]]; then
  mkdir -p "$json_dir" || exit 1
  echo "run_benches.sh: structured export enabled; merged document:" \
       "$json_dir/BENCH_results.json" >&2
fi

script_dir=$(cd "$(dirname "$0")" && pwd)
cell_runner=$script_dir/scripts/parallel_run.sh

# Bench binaries live under $build_dir/bench; accept absolute or
# CWD-relative BUILD_DIR.
case $build_dir in
  /*) bench_root=$build_dir/bench ;;
  *) bench_root=./$build_dir/bench ;;
esac

# Spool directory: per-bench stdout/stderr/status files. Kept (next to the
# JSON exports) when JSON_OUT_DIR is set so CI can reuse the per-bench
# stdout without re-running; otherwise a temp dir removed at exit.
if [[ -n $json_dir ]]; then
  spool_dir=$json_dir
else
  spool_dir=$(mktemp -d "${TMPDIR:-/tmp}/run_benches.XXXXXX") || exit 1
  trap 'rm -rf "$spool_dir"' EXIT
fi

# Interrupting a --jobs=N run mid-flight must not leave half-written
# per-cell spools behind: in JSON_OUT_DIR mode the spools live in the
# export directory itself, and a later merge (or a CI retry reusing the
# directory) would happily pick up the stale .stdout/.json files as if
# that cell had completed. On SIGINT/SIGTERM, kill the in-flight cells,
# then remove every per-bench spool/export file this run could have
# produced (plus any partial merged document) before exiting with the
# conventional 128+signal status.
cleanup_interrupt() {
  local sig=$1 code=$2
  trap - INT TERM
  local p
  for p in ${pid[@]+"${pid[@]}"}; do
    [[ -n $p ]] && kill "$p" 2>/dev/null
  done
  wait 2>/dev/null
  local b
  for b in "${benches[@]}"; do
    rm -f "$spool_dir/$b.stdout" "$spool_dir/$b.stderr" "$spool_dir/$b.status"
    [[ -n $json_dir ]] && rm -f "$json_dir/$b.json"
  done
  [[ -n $json_dir ]] && rm -f "$json_dir/BENCH_results.json"
  echo "run_benches.sh: interrupted (SIG$sig); removed per-cell spools" >&2
  exit "$code"
}
trap 'cleanup_interrupt INT 130' INT
trap 'cleanup_interrupt TERM 143' TERM

# timeout(1) wrapper; falls back to no watchdog if coreutils timeout is
# missing or the watchdog is disabled. The fallback is loud: silently
# dropping the watchdog makes a hung bench in a minimal container look
# like a hung script.
wrapper=()
if [[ $timeout_secs != 0 ]]; then
  if command -v timeout >/dev/null 2>&1; then
    wrapper=(timeout -k 10 "$timeout_secs")
  else
    echo "run_benches.sh: NOTICE: coreutils timeout(1) not found on PATH;" \
         "running WITHOUT the ${timeout_secs}s per-bench watchdog —" \
         "a hung bench will hang this script" >&2
  fi
fi

run_start=$EPOCHREALTIME
failed=()
timed_out=()
status=0
declare -a pid           # wrapper pid per roster index ("" = no process)
declare -a wrapper_rc    # wrapper exit status per roster index
declare -a cell_kind     # ok | exit | timeout | missing | no-status
declare -a cell_status   # bench (or wrapper) exit status per roster index
declare -a cell_secs     # host seconds per roster index ("" if unknown)
inflight=0
reap_ptr=0   # lowest roster index whose cell has not been reaped yet
emit_ptr=0   # lowest roster index not yet emitted

# Emits one completed cell in roster order: header + spooled stdout on
# stdout, spooled bench stderr + harness FAIL lines on stderr. Classifies
# the result from the status-file sentinel (see scripts/parallel_run.sh).
emit_cell() {
  local i=$1 b=${benches[$1]}
  echo "===================================================================="
  echo "== $b"
  echo "===================================================================="
  if [[ ${cell_kind[i]} == missing ]]; then
    echo "run_benches.sh: FAIL: $bench_root/$b not found or not executable" >&2
    failed+=("$b")
    [[ $status -eq 0 ]] && status=127
    echo
    return
  fi
  cat "$spool_dir/$b.stdout"
  cat "$spool_dir/$b.stderr" >&2
  local rc=${wrapper_rc[i]} bench_rc="" secs=""
  if [[ -s $spool_dir/$b.status ]]; then
    read -r bench_rc secs < "$spool_dir/$b.status"
  fi
  cell_secs[i]=$secs
  if [[ -z $bench_rc ]]; then
    # No status file: the cell runner died before recording the bench's own
    # exit — only the watchdog (or an outside kill) does that.
    if [[ ${#wrapper[@]} -gt 0 ]]; then
      echo "run_benches.sh: FAIL: $b timed out after ${timeout_secs}s" >&2
      timed_out+=("$b")
      cell_kind[i]=timeout
      cell_status[i]=124
    else
      echo "run_benches.sh: FAIL: $b died without reporting a status (exit $rc)" >&2
      cell_kind[i]=no-status
      cell_status[i]=$rc
    fi
    failed+=("$b")
    [[ $status -eq 0 ]] && status=${cell_status[i]}
  elif [[ $bench_rc -ne 0 ]]; then
    # The bench exited by itself with a nonzero status — including 124,
    # which the old harness misclassified as a watchdog timeout.
    echo "run_benches.sh: FAIL: $b exited with status $bench_rc" >&2
    cell_kind[i]=exit
    cell_status[i]=$bench_rc
    failed+=("$b")
    [[ $status -eq 0 ]] && status=$bench_rc
  else
    cell_kind[i]=ok
    cell_status[i]=0
  fi
  echo
}

# Waits for the oldest in-flight cell (FIFO window: cells launch in roster
# order, so the oldest is also the next to emit), then emits every cell
# that is now complete.
reap_one() {
  while [[ -z ${pid[reap_ptr]:-} ]]; do (( ++reap_ptr )); done
  wait "${pid[reap_ptr]}"
  wrapper_rc[reap_ptr]=$?
  pid[reap_ptr]=""
  (( ++reap_ptr ))
  (( --inflight )) || true
  while (( emit_ptr < reap_ptr )); do
    emit_cell "$emit_ptr"
    (( ++emit_ptr ))
  done
}

for ((i = 0; i < n; ++i)); do
  b=${benches[i]}
  if [[ ! -x $bench_root/$b ]]; then
    cell_kind[i]=missing
    cell_status[i]=127
    pid[i]=""
    continue
  fi
  cell_kind[i]=pending
  bench_args=(${extra_args[@]+"${extra_args[@]}"})
  read -r -a size_args <<< "${race_size_args[$b]:-}"
  bench_args+=(${size_args[@]+"${size_args[@]}"})
  if [[ -n $json_dir ]]; then
    bench_args+=("--json-out=$json_dir/$b.json")
  fi
  while (( inflight >= jobs )); do reap_one; done
  rm -f "$spool_dir/$b.status"
  ${wrapper[@]+"${wrapper[@]}"} "$cell_runner" \
      "$spool_dir/$b.status" "$spool_dir/$b.stdout" "$spool_dir/$b.stderr" \
      "$bench_root/$b" \
      ${bench_args[@]+"${bench_args[@]}"} &
  pid[i]=$!
  (( ++inflight ))
done
while (( inflight > 0 )); do reap_one; done
while (( emit_ptr < n )); do
  emit_cell "$emit_ptr"
  (( ++emit_ptr ))
done

if [[ -n $json_dir ]]; then
  # Merge the per-bench documents into one BENCH_results.json. Pure shell
  # (no python dependency here); iteration order is the fixed roster, so
  # two same-seed runs — at any job count — produce byte-identical merged
  # documents. The document carries the expected roster and every failure,
  # so a partial merge is self-describing and the validator rejects it.
  {
    printf '{"schema_version":4,\n"roster":['
    sep=""
    for b in "${benches[@]}"; do
      printf '%s"%s"' "$sep" "$b"
      sep=","
    done
    printf '],\n"failures":['
    sep=""
    for ((i = 0; i < n; ++i)); do
      b=${benches[i]}
      kind=${cell_kind[i]}
      if [[ $kind == ok && ! -f $json_dir/$b.json ]]; then
        kind=no-export
        echo "run_benches.sh: FAIL: $b exited 0 but wrote no $json_dir/$b.json" >&2
        failed+=("$b")
        [[ $status -eq 0 ]] && status=1
      fi
      [[ $kind == ok ]] && continue
      printf '%s\n{"bench":"%s","kind":"%s","status":%s}' \
             "$sep" "$b" "$kind" "${cell_status[i]}"
      sep=","
    done
    printf '],\n"benches":[\n'
    sep=""
    for ((i = 0; i < n; ++i)); do
      b=${benches[i]}
      [[ ${cell_kind[i]} == ok && -f $json_dir/$b.json ]] || continue
      if [[ -n $sep ]]; then printf ',\n'; fi
      sep=","
      cat "$json_dir/$b.json"
    done
    printf ']}\n'
  } > "$json_dir/BENCH_results.json"
fi

if [[ -n $timing_out ]]; then
  run_end=$EPOCHREALTIME
  total=$(awk -v a="$run_start" -v b="$run_end" 'BEGIN { printf "%.3f", b - a }')
  {
    printf '{"jobs":%s,"wall_seconds":%s,"benches":[' "$jobs" "$total"
    sep=""
    for ((i = 0; i < n; ++i)); do
      printf '%s\n{"bench":"%s","kind":"%s","seconds":%s}' \
             "$sep" "${benches[i]}" "${cell_kind[i]}" "${cell_secs[i]:-null}"
      sep=","
    done
    printf ']}\n'
  } > "$timing_out"
  echo "run_benches.sh: wall-clock ${total}s at jobs=$jobs (timing: $timing_out)" >&2
fi

if [[ ${#timed_out[@]} -gt 0 ]]; then
  echo "run_benches.sh: ${#timed_out[@]} bench(es) timed out (>${timeout_secs}s): ${timed_out[*]}" >&2
fi
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "run_benches.sh: ${#failed[@]} bench(es) failed: ${failed[*]}" >&2
  exit "$status"
fi
exit 0

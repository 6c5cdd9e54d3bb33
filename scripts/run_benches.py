#!/usr/bin/env python3
"""Runs every bench binary in a fixed roster order, echoing a header per
binary. Invoked through ./run_benches.sh, the suite's one entry point.

Cells run as concurrent host processes on a pool of JOBS threads fed in
roster order, and each cell is emitted in roster order as soon as it and
every cell before it have finished, so the bytes on stdout are identical at
every job count: `JOBS=8 ./run_benches.sh` must (and does) byte-match the
committed serial golden.

Exit status: 0 only if every binary exits 0. A missing, failing, or
timed-out binary is reported immediately after its cell is emitted and
again in a summary line, and the script exits with the (first, in roster
order) failing binary's status so CI cannot mask bench failures. A bench
killed by signal N reports status 128+N.

Environment knobs:
  BUILD_DIR=<dir>        bench binaries are taken from <dir>/bench
                         (default: build)
  JOBS=N | --jobs=N      run up to N bench cells concurrently (default 1).
                         Cells are emitted strictly in roster order, so
                         output bytes never depend on N.
  BENCHES="a b ..."      override the roster (for harness tests and quick
                         subset runs). Order is preserved; a roster that
                         names a bench twice is rejected (exit 2).
  RACE_DETECT=1          pass --race-detect=1 to every bench: the
                         simulated-thread race detector runs and any
                         report makes that bench exit 1. Detection costs
                         about 5x host time, so the heaviest benches
                         (fig5, fig6, fig7) also get reduced input sizes
                         (RACE_SIZE_ARGS below) to stay inside the
                         watchdog; every grid cell and phase still runs
  FAULTLAB=1             pass --faultlab=1 to every bench (canned per-node
                         memory-pressure plan; see src/faultlab) and also
                         run the bench_faultlab_grid robustness sweep
  BENCH_TIMEOUT_SECS=N   per-bench watchdog (default: 600, 0 disables; any
                         other non-integer value is rejected with exit 2).
                         A bench that exceeds it is killed together with
                         its process group and reported as timed out
                         (status 124); a bench that itself exits 124 is a
                         plain failure.
  JSON_OUT_DIR=<dir>     pass --json-out=<dir>/<bench>.json to every bench
                         and merge the per-bench documents into
                         <dir>/BENCH_results.json after the run. The merged
                         document records the expected roster and every
                         failed cell, so a crashed bench can never yield a
                         schema-valid "complete" merge
                         (scripts/validate_bench_json.py rejects it).
                         Exports a previous run left in <dir> are removed
                         before any cell starts.
                         Export is pure bookkeeping: stdout stays
                         byte-identical to a run without it (notices go to
                         stderr).
  BENCH_TIMING_OUT=<file> write host-side wall-clock timings (per bench and
                         total, plus the job count) as JSON. Host timing is
                         inherently nondeterministic, so it lives only in
                         this file, never in stdout or the bench JSON.

On SIGINT/SIGTERM the in-flight cells are killed, every <bench>.json and
BENCH_results.json this run could write is removed, and the script exits
130/143.
"""
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from typing import NamedTuple, Optional

ROSTER = [
    "bench_machines", "bench_fig2_alloc_micro", "bench_fig3_affinity_variance",
    "bench_fig4_sparse_dense", "bench_table3_profile", "bench_fig5_os_config",
    "bench_fig6_allocators", "bench_fig7_indexes", "bench_fig8_tpch",
    "bench_fig9_tpch_alloc", "bench_fig10_advisor", "bench_ablations",
    "bench_ext_onchip_numa", "bench_serving", "bench_placement", "bench_storage",
]
# Reduced input sizes for the benches whose race-detected run would overrun
# the default watchdog on a 4-core host. Only the sizes shrink: every cell,
# phase and code path of the full run still executes.
RACE_SIZE_ARGS = {
    "bench_fig5_os_config": ["--records=500000", "--card=50000"],
    "bench_fig6_allocators": ["--records=250000", "--card=25000",
                              "--build=18750", "--probe=300000"],
    "bench_fig7_indexes": ["--build=25000", "--probe=400000"],
}
RULE = b"=" * 68 + b"\n"


class Result(NamedTuple):
    kind: str  # ok | exit | timeout | missing
    status: int
    out: bytes = b""
    err: bytes = b""
    seconds: Optional[float] = None


def emit(stream, data):
    stream.buffer.write(data)
    stream.buffer.flush()


def note(msg):
    emit(sys.stderr, f"run_benches.sh: {msg}\n".encode())


def refuse(msg):
    note(msg)
    sys.exit(2)


def kill_group(proc):
    with suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


class Runner:
    """Runs each bench in its own process group, so that the watchdog and an
    interrupt kill the bench together with every process it started (a child
    left alive would hold the output pipe open)."""

    def __init__(self, timeout):
        self.timeout = timeout or None
        self.lock = threading.Lock()
        self.live = set()
        self.stopped = False

    def run(self, argv):
        with self.lock:
            if self.stopped:
                return None
            start = time.monotonic()
            try:
                proc = subprocess.Popen(
                    argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, start_new_session=True)
            except OSError as e:  # a shell reports exec failures as 126
                return Result("exit", 126, err=f"{argv[0]}: {e.strerror}\n".encode())
            self.live.add(proc)
        try:
            out, err = proc.communicate(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            kill_group(proc)
            out, err = proc.communicate()
            return Result("timeout", 124, out, err)
        finally:
            with self.lock:
                self.live.discard(proc)
        rc = proc.returncode if proc.returncode >= 0 else 128 - proc.returncode
        return Result("exit" if rc else "ok", rc, out, err, time.monotonic() - start)

    def stop(self):
        with self.lock:
            self.stopped = True
            for proc in self.live:
                kill_group(proc)
            for proc in self.live:
                proc.wait()


def main(argv):
    env = os.environ.get
    jobs = env("JOBS") or "1"
    for arg in argv:
        if not arg.startswith("--jobs="):
            refuse(f"unknown argument '{arg}' (only --jobs=N)")
        jobs = arg[len("--jobs="):]
    if not re.fullmatch("[1-9][0-9]*", jobs):
        refuse(f"JOBS/--jobs must be a positive integer, got '{jobs}'")
    timeout = env("BENCH_TIMEOUT_SECS") or "600"
    if not re.fullmatch("[0-9]+", timeout):
        refuse(f"BENCH_TIMEOUT_SECS must be a non-negative integer, got '{timeout}'")

    extra_args, size_args, roster = [], {}, list(ROSTER)
    if env("RACE_DETECT", "") not in ("", "0"):
        extra_args.append("--race-detect=1")
        size_args = RACE_SIZE_ARGS
        emit(sys.stdout, b"run_benches.sh: race detection enabled (--race-detect=1)\n")
    if env("FAULTLAB", "") not in ("", "0"):
        extra_args.append("--faultlab=1")
        roster.append("bench_faultlab_grid")
        emit(sys.stdout, b"run_benches.sh: fault injection enabled (--faultlab=1)\n")
    if env("BENCHES"):
        roster = env("BENCHES").split()
    # Each cell writes <json_dir>/<bench>.json, so two cells of one bench
    # would race on that file.
    dups = [bench for i, bench in enumerate(roster) if bench in roster[:i]]
    if dups:
        refuse(f"roster names '{dups[0]}' twice; each bench may run once per invocation")
    json_dir = env("JSON_OUT_DIR")
    if json_dir:
        try:
            os.makedirs(json_dir, exist_ok=True)
        except OSError as e:
            note(f"cannot create {json_dir}: {e.strerror}")
            sys.exit(1)
        note(f"structured export enabled; merged document: {json_dir}/BENCH_results.json")
        # A reused directory holds the previous run's exports; a bench that
        # exits 0 without writing must read as no-export, not merge those.
        remove_exports(json_dir, roster)
    build_dir = env("BUILD_DIR") or "build"
    bench_root = f"{build_dir}/bench" if build_dir.startswith("/") else f"./{build_dir}/bench"

    runner = Runner(int(timeout))

    def interrupt(signum, _frame):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        runner.stop()
        if json_dir:
            remove_exports(json_dir, roster)
        # os.write: the main thread may be inside a buffered stderr write.
        os.write(2, f"run_benches.sh: interrupted ({signal.Signals(signum).name});"
                    " killed in-flight cells\n".encode())
        os._exit(128 + signum)

    signal.signal(signal.SIGINT, interrupt)
    signal.signal(signal.SIGTERM, interrupt)
    run_start = time.monotonic()
    pool = ThreadPoolExecutor(max_workers=int(jobs))
    futures = []
    for bench in roster:
        path = f"{bench_root}/{bench}"
        bench_args = extra_args + size_args.get(bench, [])
        if json_dir:
            bench_args.append(f"--json-out={json_dir}/{bench}.json")
        futures.append(pool.submit(runner.run, [path] + bench_args)
                       if os.access(path, os.X_OK) else None)
    results, failed, timed_out, status = [], [], [], 0
    for bench, future in zip(roster, futures):
        cell = future.result() if future else Result("missing", 127)
        results.append(cell)
        emit(sys.stdout, RULE + f"== {bench}\n".encode() + RULE + cell.out)
        emit(sys.stderr, cell.err)
        if cell.kind == "missing":
            note(f"FAIL: {bench_root}/{bench} not found or not executable")
        elif cell.kind == "timeout":
            note(f"FAIL: {bench} timed out after {timeout}s")
            timed_out.append(bench)
        elif cell.kind == "exit":
            note(f"FAIL: {bench} exited with status {cell.status}")
        if cell.kind != "ok":
            failed.append(bench)
            status = status or cell.status
        emit(sys.stdout, b"\n")
    pool.shutdown()

    if json_dir:
        for bench in merge_exports(json_dir, roster, results):
            failed.append(bench)
            status = status or 1
    timing_out = env("BENCH_TIMING_OUT")
    if timing_out:
        total = f"{time.monotonic() - run_start:.3f}"
        cells = ",".join(
            f'\n{{"bench":"{bench}","kind":"{cell.kind}","seconds":'
            + ("null" if cell.seconds is None else f"{cell.seconds:.3f}") + "}"
            for bench, cell in zip(roster, results))
        with open(timing_out, "w") as f:
            f.write(f'{{"jobs":{jobs},"wall_seconds":{total},"benches":[{cells}]}}\n')
        note(f"wall-clock {total}s at jobs={jobs} (timing: {timing_out})")
    if timed_out:
        note(f"{len(timed_out)} bench(es) timed out (>{timeout}s): {' '.join(timed_out)}")
    if failed:
        note(f"{len(failed)} bench(es) failed: {' '.join(failed)}")
    return status


def remove_exports(json_dir, roster):
    """Removes every <bench>.json and BENCH_results.json a run over `roster`
    could write into json_dir."""
    for name in roster + ["BENCH_results"]:
        with suppress(FileNotFoundError):
            os.remove(f"{json_dir}/{name}.json")


def merge_exports(json_dir, roster, results):
    """Merges the per-bench documents into <json_dir>/BENCH_results.json and
    returns the benches that exited 0 without writing theirs. Iteration
    order is the fixed roster, so two same-seed runs, at any job count,
    produce byte-identical merged documents. The document carries the
    expected roster and every failure, so a partial merge is
    self-describing and the validator rejects it."""
    failures, docs, unexported = [], [], []
    for bench, cell in zip(roster, results):
        export = f"{json_dir}/{bench}.json"
        kind = cell.kind
        if kind == "ok" and not os.path.isfile(export):
            kind = "no-export"
            note(f"FAIL: {bench} exited 0 but wrote no {export}")
            unexported.append(bench)
        if kind == "ok":
            with open(export, "rb") as f:
                docs.append(f.read())
        else:
            failures.append(f'\n{{"bench":"{bench}","kind":"{kind}","status":{cell.status}}}')
    roster_json = ",".join(f'"{bench}"' for bench in roster)
    head = (f'{{"schema_version":4,\n"roster":[{roster_json}],\n'
            f'"failures":[{",".join(failures)}],\n"benches":[\n')
    with open(f"{json_dir}/BENCH_results.json", "wb") as f:
        f.write(head.encode() + b",\n".join(docs) + b"]}\n")
    return unexported


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

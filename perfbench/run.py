#!/usr/bin/env python3
"""numalab's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload w1_agg_outofbox --seed 1 \
        --seconds 15 --trace 0

Run from the root of a numalab source tree. The first call configures and
builds the perfbench binary (perfbench.cc, linked against libnumalab) under
.bench_build/; later calls rebuild only what changed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; set-up time is
the median over SETUP_SAMPLES fresh processes, each from the start of
set-up through one untimed warm-up run. --trace 1 prints the per-layer metrics of
the traced runs and of the layer microbenchmarks, and writes their
host-time spans to .bench_build/perfbench-trace-<workload>-<seed>.json.

Human-readable metric lines go first; the last line of stdout is the JSON
result. The exit code is 0 whenever a result was printed, even an incorrect
one; it is nonzero when the benchmark could not run at all.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_perfbench(args):
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"perfbench {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()

    base = [f"--workload={args.workload}", f"--seed={args.seed}"]
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(run_perfbench(base + ["--mode=setup", "--seconds=0",
                                              "--trace=0"]))
    trace_out = (ROOT / ".bench_build" /
                 f"perfbench-trace-{args.workload}-{args.seed}.json")
    main_run = run_perfbench(base + [f"--seconds={args.seconds}",
                                  f"--trace={args.trace}",
                                  f"--trace-out={trace_out}"])
    samples.append(main_run)

    errors = [e for s in samples for e in s["errors"]]
    if len({s["fingerprint"] for s in samples}) != 1:
        errors.append("simulated results differ between processes")
    measured = dict(main_run["metrics"])
    measured["setup_s"] = {
        "value": statistics.median(s["metrics"]["setup_s"]["value"]
                                   for s in samples),
        "unit": "s"}

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            die(f"perfbench gave no usable {m['name']} ({got})")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"{m['name']:34s} {got['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"oracle: {e}")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(f"runs {main_run['runs']} timed, {attempted} operations, "
          f"{failed} failed")
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

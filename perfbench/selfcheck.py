#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload at reduced size.

    python3 perfbench/selfcheck.py

Builds perfbench as run.py does, then runs each workload at --size=small
three times: seed 1 with tracing off, seed 1 with tracing on, and seed 2.
It passes when every oracle holds and no operation failed, when each run
prints every metric BENCHMARK.json names for its mode, when the two seed-1
processes agree bit for bit on the simulated results (within a process the
perfbench already compares every repeated draw), and when seed 2 gives
different ones. It touches neither the repository's CMake build nor its
ctest suite, and takes about a minute.
"""

import json
import sys

import run


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.build()
    problems = []
    trace_out = run.ROOT / ".bench_build" / "selfcheck-trace.json"
    for workload in [w["name"] for w in spec["workloads"]]:
        def call(seed, trace):
            return run.run_perfbench([
                f"--workload={workload}", f"--seed={seed}", "--size=small",
                "--seconds=0", f"--trace={trace}", f"--trace-out={trace_out}"])
        plain, traced, other = call(1, 0), call(1, 1), call(2, 0)
        found = []
        for label, r, mode in (("seed 1", plain, "end_to_end"),
                               ("seed 1 traced", traced, "per_layer"),
                               ("seed 2", other, "end_to_end")):
            found += [f"{label}: {e}" for e in r["errors"]]
            if r["failed"] != 0 or r["attempted"] < 1:
                found.append(f"{label}: {r['failed']} of {r['attempted']} "
                             "operations failed")
            missing = [m["name"] for m in spec[mode]
                       if m["name"] not in r["metrics"]]
            if missing:
                found.append(f"{label}: no {', '.join(missing)}")
        if plain["fingerprint"] != traced["fingerprint"]:
            found.append("seed 1 gave different simulated results in two "
                         "processes")
        if plain["fingerprint"] == other["fingerprint"]:
            found.append("seeds 1 and 2 gave identical simulated results")
        print(f"{workload}: {'FAIL' if found else 'ok'}")
        for f in found:
            print(f"  {f}")
        problems += found
    print("selfcheck:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

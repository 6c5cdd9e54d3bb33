#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload w1_agg_outofbox --seeds 1-5
    python3 perfbench/spread.py --workload all --held-out
    python3 perfbench/spread.py --workload all --seeds 1-10 \
        --record perfbench/BASELINE.json
    python3 perfbench/spread.py --workload all --held-out \
        --against perfbench/BASELINE.json

Each seed is one call of run.py, exactly as a benchmark harness makes it.
For every metric the table gives the median over seeds, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. End-to-end metrics are
marked against their bound in BENCHMARK.json: "ok" below a third of it,
"wide" below it, "OVER" above it. Every call measures for BENCHMARK.json's
run_seconds, so records made at different times stay comparable.

Development seeds are the ones passed with --seeds (default 1-10).
--held-out uses seeds 9001-9010 instead, which no tuning of the benchmark
or of the program has looked at: a claim made on the development seeds
should also hold there, every oracle must pass, and the spreads should be
similar. --record writes the medians, quartiles and raw values to a JSON
file (merged per workload and mode); --against compares this run's medians
with such a file and marks every end-to-end metric that got worse by more
than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HELD_OUT = range(9001, 9011)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"spread.py: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    seeds = HELD_OUT if args.held_out else parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("spread.py: quartiles need at least two seeds")
    seconds = spec["run_seconds"]
    mode = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    recorded = (json.loads(args.record.read_text())
                if args.record and args.record.exists() else {})
    against = json.loads(args.against.read_text()) if args.against else {}
    status = 0

    for workload in workloads:
        results = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, args.trace)
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"{workload}: an oracle FAILED")
            status = 1
        table = {}
        print(f"\n{workload} ({mode}, seeds {seeds.start}-{seeds.stop - 1}, "
              f"{seconds:g} s per run)")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s}  mark")
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = unit
            table[name] = s
            mark = ""
            b = bounds.get(name)
            if b:
                mark = ("ok" if s["spread"] < b["bound"] / 3 else
                        "wide" if s["spread"] <= b["bound"] else "OVER")
            old = (against.get(workload, {}).get(mode, {})
                   .get("metrics", {}).get(name))
            if b and old:
                worse = s["median"] / old["median"] - 1
                if b["better"] == "higher":
                    worse = -worse
                mark += f" vs base {worse:+.3f}"
                if worse > b["bound"]:
                    mark += " REGRESSED"
                    status = 1
            print(f"{name:34s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.4f}  {mark}")
        recorded.setdefault(workload, {})[mode] = {
            "seeds": [seeds.start, seeds.stop - 1], "seconds": seconds,
            "metrics": table}
    if args.record:
        args.record.write_text(json.dumps(recorded, indent=1) + "\n")
    sys.exit(status)


if __name__ == "__main__":
    main()

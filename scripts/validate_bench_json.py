#!/usr/bin/env python3
"""Schema validator for numalab structured bench exports.

Validates either a per-bench document (``--json-out`` output) or the merged
``BENCH_results.json`` produced by ``JSON_OUT_DIR=<dir> ./run_benches.sh``.
Schema version 4 — keep in lockstep with src/trace/export.{h,cc}.
v2 adds an optional per-run "serving" section (numalab::serve SLO metrics).
v3 adds the adaptive-placement counters to "system", "all_offline_binds"
to "degradation" and the "placement" flag to "config".
v4 adds the "storage" flag to "config" and a per-run "storage" section
(numalab::storage buffer-pool / WAL / recovery counters) that must be
present exactly when the flag is true.

Usage: validate_bench_json.py FILE [FILE ...]
Exits non-zero with a path-qualified message on the first violation.
"""

import json
import sys

SCHEMA_VERSION = 4

COUNTER_KEYS = {
    "cycles", "thread_migrations", "mem_accesses", "private_hits",
    "llc_hits", "llc_misses", "local_dram", "remote_dram", "tlb_hits",
    "tlb_misses", "hinting_faults", "alloc_calls", "free_calls",
    "alloc_cycles", "lock_wait_cycles", "queue_delay_cycles",
}
CONFIG_KEYS = {
    "machine", "threads", "affinity", "policy", "preferred_node",
    "allocator", "autonuma", "thp", "dataset", "num_records", "cardinality",
    "build_rows", "probe_rows", "seed", "run_index", "quantum",
    "scalar_mem_path", "deadline_cycles", "placement", "storage",
}
SYSTEM_KEYS = {
    "page_migrations", "thp_collapses", "thp_splits", "pages_mapped",
    "bytes_mapped", "bytes_mapped_peak", "balancer_migrations",
    "pages_replicated", "replica_reads", "replica_writes",
    "replica_invalidations", "replica_drops", "replica_bytes_peak",
    "migrations_vetoed", "capacity_bytes_total",
}
DEGRADATION_KEYS = {
    "pages_spilled", "oom_last_resort_pages", "offline_redirects",
    "all_offline_binds", "alloc_failures_injected",
    "migration_failures_injected",
}
RUN_KEYS = {
    "id", "workload", "config", "status", "cycles", "aux_cycles",
    "checksum", "lar", "requested_peak", "resident_peak", "races",
    "counters", "system", "degradation", "threads", "nodes", "spans",
}
SPAN_KEYS = {"name", "thread", "node", "depth", "parent", "start", "end",
             "counters"}
SERVING_KEYS = {
    "arrival", "requests", "offered", "admitted", "completed", "rejected",
    "retries", "dropped", "batches", "batched_requests", "max_batch",
    "max_queue_depth", "makespan_cycles", "cycles_per_query", "latency",
    "types", "nodes", "hist",
}
SERVING_LATENCY_KEYS = {"p50", "p95", "p99", "max"}
SERVING_TYPE_KEYS = {"type", "completed", "p50", "p95", "p99"}
SERVING_NODE_KEYS = {"node", "enqueued", "rejected", "redirected_offline",
                     "max_depth"}
STORAGE_KEYS = {
    "enabled", "rows", "page_bytes", "frames_per_shard", "placement",
    "checkpoint_interval", "lookups", "hits", "misses", "hit_rate",
    "evictions", "writebacks", "upserts", "gets", "scan_rows", "shards",
    "wal", "io", "crashes", "table_checksum",
}
STORAGE_SHARD_KEYS = {"node", "lookups", "hits", "misses", "hit_rate",
                      "evictions", "writebacks", "frames", "alloc_fallbacks"}
STORAGE_WAL_KEYS = {"records", "bytes", "flushes", "checkpoints",
                    "checkpoint_pages", "truncated_records"}
STORAGE_IO_KEYS = {"reads", "writes"}
STORAGE_RECOVERY_KEYS = {"cycles", "records_scanned", "records_replayed",
                         "pages_redone", "dirty_frames_lost", "checksum"}


class Invalid(Exception):
    pass


def require(cond, where, msg):
    if not cond:
        raise Invalid(f"{where}: {msg}")


def check_keys(obj, keys, where):
    require(isinstance(obj, dict), where, "expected an object")
    missing = keys - obj.keys()
    require(not missing, where, f"missing keys: {sorted(missing)}")
    extra = obj.keys() - keys
    require(not extra, where, f"unknown keys: {sorted(extra)}")


def check_counters(obj, where):
    check_keys(obj, COUNTER_KEYS, where)
    for k, v in obj.items():
        require(isinstance(v, int) and v >= 0, f"{where}.{k}",
                "expected a non-negative integer")


def check_serving(s, where):
    check_keys(s, SERVING_KEYS, where)
    check_keys(s["latency"], SERVING_LATENCY_KEYS, f"{where}.latency")
    for k in ("offered", "admitted", "completed", "rejected", "retries",
              "dropped", "batches", "batched_requests", "max_batch",
              "max_queue_depth", "makespan_cycles", "requests"):
        require(isinstance(s[k], int) and s[k] >= 0, f"{where}.{k}",
                "expected a non-negative integer")
    # Accounting invariants of the admission controller: every offered
    # request is either eventually admitted or dropped after its retry
    # budget; every admitted request completes (runs drain their queues);
    # every refused enqueue attempt either scheduled a retry or dropped.
    require(s["admitted"] + s["dropped"] == s["offered"], where,
            "admitted + dropped != offered")
    require(s["completed"] == s["admitted"], where,
            "completed != admitted (queue not drained)")
    require(s["rejected"] == s["retries"] + s["dropped"], where,
            "rejected != retries + dropped")
    lat = s["latency"]
    require(lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"], where,
            "latency percentiles not monotone")
    for i, t in enumerate(s["types"]):
        tw = f"{where}.types[{i}]"
        check_keys(t, SERVING_TYPE_KEYS, tw)
        require(t["p50"] <= t["p95"] <= t["p99"], tw,
                "per-type percentiles not monotone")
    for i, n in enumerate(s["nodes"]):
        check_keys(n, SERVING_NODE_KEYS, f"{where}.nodes[{i}]")
    hist_total = 0
    for i, pair in enumerate(s["hist"]):
        hw = f"{where}.hist[{i}]"
        require(isinstance(pair, list) and len(pair) == 2, hw,
                "expected a [bucket, count] pair")
        require(pair[1] > 0, hw, "empty bucket exported")
        hist_total += pair[1]
    require(hist_total == s["completed"], f"{where}.hist",
            f"histogram holds {hist_total} samples, "
            f"completed is {s['completed']}")


def check_storage(s, where):
    keys = STORAGE_KEYS | {"recovery"} if "recovery" in s else STORAGE_KEYS
    check_keys(s, keys, where)
    check_keys(s["wal"], STORAGE_WAL_KEYS, f"{where}.wal")
    check_keys(s["io"], STORAGE_IO_KEYS, f"{where}.io")
    for k in ("rows", "page_bytes", "frames_per_shard", "lookups", "hits",
              "misses", "evictions", "writebacks", "upserts", "gets",
              "scan_rows", "crashes", "table_checksum"):
        require(isinstance(s[k], int) and s[k] >= 0, f"{where}.{k}",
                "expected a non-negative integer")
    # Buffer-pool accounting: every lookup is exactly one hit or miss, and
    # the pool totals are the sums of the per-shard counters.
    require(s["hits"] + s["misses"] == s["lookups"], where,
            "hits + misses != lookups")
    sums = {k: 0 for k in ("lookups", "hits", "misses", "evictions",
                           "writebacks")}
    for i, sh in enumerate(s["shards"]):
        shw = f"{where}.shards[{i}]"
        check_keys(sh, STORAGE_SHARD_KEYS, shw)
        require(sh["hits"] + sh["misses"] == sh["lookups"], shw,
                "hits + misses != lookups")
        for k in sums:
            sums[k] += sh[k]
    for k, total in sums.items():
        require(total == s[k], where,
                f"per-shard {k} sums to {total}, pool total is {s[k]}")
    # ARIES-lite accounting: recovery details are present exactly when a
    # fault killed a shard, and redo never replays more than it scanned.
    require(("recovery" in s) == (s["crashes"] > 0), where,
            "recovery section present iff crashes > 0")
    if "recovery" in s:
        rec = s["recovery"]
        check_keys(rec, STORAGE_RECOVERY_KEYS, f"{where}.recovery")
        require(rec["records_replayed"] <= rec["records_scanned"],
                f"{where}.recovery", "replayed more records than scanned")


# Optional per-run sections (trace::Section), by key. A run may carry any
# subset of these after its fixed RUN_KEYS; any other key is rejected.
SECTIONS = {"serving": check_serving, "storage": check_storage}


def check_run(run, where):
    sections = [k for k in run if k in SECTIONS]
    check_keys(run, RUN_KEYS | set(sections), where)
    for key in sections:
        SECTIONS[key](run[key], f"{where}.{key}")
    # v4: the per-run storage section is present exactly when the config
    # records storage (config.storage), so a v4 doc can never silently
    # drop it.
    require(("storage" in run) == (run["config"].get("storage") is True),
            where, "storage section present iff config.storage is true")
    check_keys(run["config"], CONFIG_KEYS, f"{where}.config")
    check_counters(run["counters"], f"{where}.counters")
    check_keys(run["system"], SYSTEM_KEYS, f"{where}.system")
    check_keys(run["degradation"], DEGRADATION_KEYS, f"{where}.degradation")
    require(isinstance(run["status"], str) and run["status"],
            f"{where}.status", "expected a non-empty string")
    require(0.0 <= run["lar"] <= 1.0, f"{where}.lar", "LAR out of [0, 1]")

    # Replication accounting invariants (src/mem placement subsystem).
    sysc = run["system"]
    sw_ = f"{where}.system"
    require(sysc["replica_invalidations"] <= sysc["replica_writes"], sw_,
            "replica_invalidations > replica_writes")
    require(sysc["replica_invalidations"] <= sysc["replica_drops"], sw_,
            "invalidations drop at least one copy each, but "
            "replica_drops < replica_invalidations")
    require(sysc["replica_drops"] <= sysc["pages_replicated"], sw_,
            "replica_drops > pages_replicated (dropped more than created)")
    require(sysc["replica_reads"] <= run["counters"]["local_dram"], sw_,
            "replica_reads > local_dram (replica hits are local by def)")
    if sysc["capacity_bytes_total"] > 0:
        require(sysc["replica_bytes_peak"] <= sysc["capacity_bytes_total"],
                sw_, "replica_bytes_peak exceeds machine capacity")
    if run["config"]["placement"] is False:
        require(sysc["pages_replicated"] == 0 and
                sysc["migrations_vetoed"] == 0, sw_,
                "placement counters nonzero with placement disabled")

    for i, t in enumerate(run["threads"]):
        tw = f"{where}.threads[{i}]"
        check_keys(t, {"id", "name", "node", "counters"}, tw)
        check_counters(t["counters"], f"{tw}.counters")
    for i, n in enumerate(run["nodes"]):
        nw = f"{where}.nodes[{i}]"
        check_keys(n, {"node", "counters"}, nw)
        check_counters(n["counters"], f"{nw}.counters")

    spans = run["spans"]
    for i, s in enumerate(spans):
        sw = f"{where}.spans[{i}]"
        check_keys(s, SPAN_KEYS, sw)
        check_counters(s["counters"], f"{sw}.counters")
        require(s["end"] >= s["start"], sw, "span ends before it starts")
        require(-1 <= s["parent"] < i, sw,
                "parent must precede the span (or be -1)")
        if s["parent"] == -1:
            require(s["depth"] == 0, sw, "top-level span with depth != 0")
        else:
            p = spans[s["parent"]]
            require(s["depth"] == p["depth"] + 1, sw,
                    "depth != parent depth + 1")
            require(p["thread"] == s["thread"], sw,
                    "parent span on a different thread")
            require(p["start"] <= s["start"] and s["end"] <= p["end"], sw,
                    "span not nested inside its parent")

    # Per-node rollup must sum to the run-total counters when the run
    # recorded spans (top-level spans cover entire worker bodies).
    if any(s["parent"] == -1 for s in spans):
        for key in COUNTER_KEYS:
            total = sum(n["counters"][key] for n in run["nodes"])
            require(total == run["counters"][key], f"{where}.nodes",
                    f"per-node {key} sums to {total}, "
                    f"run total is {run['counters'][key]}")


def check_bench(doc, where):
    check_keys(doc, {"schema_version", "bench", "runs"}, where)
    require(doc["schema_version"] == SCHEMA_VERSION, where,
            f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}")
    require(isinstance(doc["bench"], str) and doc["bench"], where,
            "bench: expected a non-empty string")
    for i, run in enumerate(doc["runs"]):
        check_run(run, f"{where}.runs[{i}]")


FAILURE_KEYS = {"bench", "kind", "status"}
FAILURE_KINDS = {"exit", "timeout", "missing", "no-export", "no-status"}


def check_merged(doc, path):
    """A merged document must be *complete*: its bench list must match the
    roster run_benches.sh intended to run, exactly and in order, and no cell
    may have failed. A crashed bench therefore can never hide behind a
    schema-valid partial merge — the harness records the failure and this
    check rejects the document."""
    check_keys(doc, {"schema_version", "roster", "failures", "benches"}, path)
    require(doc["schema_version"] == SCHEMA_VERSION, path,
            f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}")
    roster = doc["roster"]
    require(isinstance(roster, list) and roster and
            all(isinstance(b, str) and b for b in roster),
            f"{path}.roster", "expected a non-empty list of bench names")
    require(len(set(roster)) == len(roster), f"{path}.roster",
            "duplicate bench in roster")
    for i, fail in enumerate(doc["failures"]):
        fw = f"{path}.failures[{i}]"
        check_keys(fail, FAILURE_KEYS, fw)
        require(fail["bench"] in roster, fw,
                f"failed bench {fail['bench']!r} not in roster")
        require(fail["kind"] in FAILURE_KINDS, fw,
                f"unknown failure kind {fail['kind']!r}")
        require(isinstance(fail["status"], int), fw,
                "status: expected an integer")
    names = []
    for i, bench in enumerate(doc["benches"]):
        check_bench(bench, f"{path}.benches[{i}]")
        require(bench["bench"] not in names, f"{path}.benches[{i}]",
                f"duplicate bench {bench['bench']!r}")
        names.append(bench["bench"])
    require(names == [b for b in roster
                      if b not in {f["bench"] for f in doc["failures"]}],
            path, "bench list does not match the roster "
            f"(roster {roster}, merged {names})")
    if doc["failures"]:
        failed = ", ".join(f"{f['bench']} ({f['kind']}, status {f['status']})"
                           for f in doc["failures"])
        raise Invalid(f"{path}: merge is partial — "
                      f"{len(doc['failures'])} failed cell(s): {failed}")
    return sum(len(b["runs"]) for b in doc["benches"])


def check_file(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "benches" in doc:  # merged document
        return check_merged(doc, path)
    check_bench(doc, path)
    return len(doc["runs"])


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            runs = check_file(path)
        except (Invalid, json.JSONDecodeError, OSError, KeyError,
                TypeError) as e:
            print(f"validate_bench_json: FAIL: {path}: {e}", file=sys.stderr)
            return 1
        print(f"validate_bench_json: OK: {path} ({runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

// Storage-engine bench (DESIGN.md section 15): the NUMA-sharded buffer
// pool + WAL under the serving layer, plus two self-checking recovery
// demos.
//
// Three sections:
//   1. read/write mixes x buffer-pool shard placement x MemPolicy x
//      allocator — every cell serves the same seeded request stream through
//      the WAL-backed paged tables and prints throughput, pool hit rate and
//      WAL volume. FAILS (exit 1) unless all cells of one mix agree on the
//      final table checksum (placement/policy/allocator may move cycles,
//      never data).
//   2. recovery time vs checkpoint interval — the same write-heavy stream
//      with faultlab killing node 1 mid-run, swept over checkpoint
//      intervals. Tighter checkpoints must shrink the redo tail: FAILS
//      unless every recovery reproduces the no-fault checksum and the
//      smallest interval replays fewer records than the largest.
//   3. crash-recovery gate — one no-fault run fixes the expected table
//      checksum, then faultlab kills node 1 mid-run: the dead shard's
//      frames (dirty pages included) are discarded and ARIES-lite redo must
//      replay the WAL to a checksum-identical table, with zero dropped
//      requests. Any mismatch FAILS the bench.
//
// Like every bench: deterministic stdout (golden-diffed by check.sh), and
// --json-out attaches the per-run "storage" sections via numalab::trace.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/serve.h"

namespace {

using numalab::serve::Arrival;
using numalab::serve::RunServing;
using numalab::serve::ServeConfig;
using numalab::serve::ServeResult;
using numalab::storage::ShardPlacement;
using numalab::storage::ShardPlacementName;
using numalab::workloads::RunConfig;

struct Mix {
  const char* name;
  double point, range, upsert;
};

}  // namespace

int main(int argc, char** argv) {
  constexpr uint64_t kRequests = 600;
  // Service-bound: storage requests cost tens of kcycles (I/O model), so a
  // tight offered gap keeps every worker busy and lets the
  // placement/policy/allocator axes show up in throughput.
  constexpr uint64_t kGap = 2'000;
  numalab::bench::BenchMain(argc, argv);

  // Small enough to keep the bench fast, big enough that the table (~130
  // pages) is ~2.7x the 48-frame pool — eviction and writeback stay hot.
  ServeConfig base;
  base.arrival = Arrival::kPoisson;
  base.requests = kRequests;
  base.mean_gap_cycles = kGap;
  base.kv_keys = 1 << 15;
  base.probe_build_rows = 1024;
  base.mix_probe = 0;
  base.mix_tpch = 0;
  // No shedding anywhere in this bench: the checksum gates need every
  // upsert applied, so drops must be impossible even under faultlab's
  // halved effective cap.
  base.queue_cap = 1 << 16;
  base.max_retries = 50;
  base.storage.enabled = true;
  base.storage.frames_per_shard = 6;

  const std::vector<Mix> mixes = {
      {"read", 0.85, 0.10, 0.05},
      {"balanced", 0.45, 0.10, 0.45},
      {"write", 0.15, 0.05, 0.80},
  };
  auto with_mix = [&](const Mix& m) {
    ServeConfig sc = base;
    sc.mix_point = m.point;
    sc.mix_range = m.range;
    sc.mix_upsert = m.upsert;
    return sc;
  };

  RunConfig rc = numalab::bench::TunedBase("A", 8);
  int failures = 0;

  // --- Section 1: mixes x shard placement x MemPolicy x allocator. ---
  std::printf(
      "storage: mixes x shard placement x policy x allocator "
      "(%llu requests)\n",
      static_cast<unsigned long long>(kRequests));
  std::printf("%-9s %-11s %-11s %-10s %9s %6s %7s %7s %8s %5s\n", "mix",
              "placement", "policy", "alloc", "q/Mcycle", "hit%", "evict",
              "wback", "wal_rec", "ok");
  for (const Mix& m : mixes) {
    uint64_t mix_checksum = 0;
    bool have_checksum = false;
    for (ShardPlacement placement :
         {ShardPlacement::kLocal, ShardPlacement::kNode0}) {
      for (numalab::mem::MemPolicy policy :
           {numalab::mem::MemPolicy::kFirstTouch,
            numalab::mem::MemPolicy::kInterleave}) {
        for (const char* alloc : {"ptmalloc", "tbbmalloc"}) {
          RunConfig cfg = rc;
          cfg.policy = policy;
          cfg.allocator = alloc;
          ServeConfig sc = with_mix(m);
          sc.storage.placement = placement;
          ServeResult r = RunServing(cfg, sc);
          const numalab::storage::StorageStats& st = r.storage;
          if (!have_checksum) {
            mix_checksum = st.table_checksum;
            have_checksum = true;
          }
          bool ok = r.run.status.ok() && r.stats.dropped == 0 &&
                    st.crashes == 0 && st.table_checksum == mix_checksum;
          std::printf(
              "%-9s %-11s %-11s %-10s %9.2f %6.1f %7llu %7llu %8llu %5s\n",
              m.name, ShardPlacementName(placement),
              numalab::mem::MemPolicyName(policy), alloc, r.stats.PerMcycle(),
              100.0 * st.HitRate(),
              static_cast<unsigned long long>(st.evictions),
              static_cast<unsigned long long>(st.writebacks),
              static_cast<unsigned long long>(st.wal_records),
              ok ? "OK" : "FAIL");
          if (!ok) ++failures;
        }
      }
    }
  }

  // --- Section 2: recovery time vs checkpoint interval. ---
  std::printf("\nstorage: recovery vs checkpoint interval (write mix, "
              "node 1 killed mid-run)\n");
  {
    ServeConfig sc_w = with_mix(mixes[2]);
    ServeResult baseline = RunServing(rc, sc_w);
    bool base_ok = baseline.run.status.ok() &&
                   baseline.stats.dropped == 0 &&
                   baseline.storage.crashes == 0;
    if (!base_ok) ++failures;
    uint64_t expect = baseline.storage.table_checksum;
    uint64_t kill_cycle = baseline.stats.first_arrival_cycle +
                          baseline.stats.makespan_cycles / 2;
    std::printf("no-fault checksum %llu, kill at cycle %llu (%s)\n",
                static_cast<unsigned long long>(expect),
                static_cast<unsigned long long>(kill_cycle),
                base_ok ? "OK" : "FAIL");
    std::printf("%-9s %6s %9s %9s %8s %10s %5s\n", "interval", "ckpt",
                "wal_trunc", "replayed", "redone", "rec_cycles", "ok");
    std::vector<uint64_t> replayed;
    for (uint64_t interval : {64ULL, 128ULL, 256ULL, 1024ULL}) {
      ServeConfig sc = sc_w;
      sc.storage.checkpoint_interval_records = interval;
      RunConfig cfg = rc;
      cfg.faults.offline.push_back({1, kill_cycle});
      ServeResult r = RunServing(cfg, sc);
      const numalab::storage::StorageStats& st = r.storage;
      // recovered_checksum is the crash-time table state (the stream keeps
      // mutating after redo); the end-to-end invariant is the *final*
      // checksum matching the no-fault run.
      bool ok = r.run.status.ok() && r.stats.dropped == 0 &&
                st.crashes == 1 && st.table_checksum == expect;
      replayed.push_back(st.recovery_records_replayed);
      std::printf("%-9llu %6llu %9llu %9llu %8llu %10llu %5s\n",
                  static_cast<unsigned long long>(interval),
                  static_cast<unsigned long long>(st.checkpoints),
                  static_cast<unsigned long long>(st.wal_truncated_records),
                  static_cast<unsigned long long>(
                      st.recovery_records_replayed),
                  static_cast<unsigned long long>(st.recovery_pages_redone),
                  static_cast<unsigned long long>(st.recovery_cycles),
                  ok ? "OK" : "FAIL");
      if (!ok) ++failures;
    }
    bool curve_ok =
        !replayed.empty() && replayed.front() < replayed.back();
    std::printf("checkpointing shrinks redo tail: %llu -> %llu records "
                "(%s)\n",
                static_cast<unsigned long long>(replayed.back()),
                static_cast<unsigned long long>(replayed.front()),
                curve_ok ? "OK" : "FAIL");
    if (!curve_ok) ++failures;
  }

  // --- Section 3: crash-recovery gate. ---
  std::printf("\nstorage: crash-recovery gate (balanced mix)\n");
  {
    ServeConfig sc = with_mix(mixes[1]);
    sc.storage.checkpoint_interval_records = 2048;  // no ckpt before kill
    ServeResult a = RunServing(rc, sc);
    bool a_ok = a.run.status.ok() && a.stats.dropped == 0 &&
                a.storage.crashes == 0;
    uint64_t kill_cycle =
        a.stats.first_arrival_cycle + a.stats.makespan_cycles / 2;
    RunConfig cfg = rc;
    cfg.faults.offline.push_back({1, kill_cycle});
    ServeResult b = RunServing(cfg, sc);
    const numalab::storage::StorageStats& st = b.storage;
    bool b_ok = b.run.status.ok() && b.stats.dropped == 0 &&
                st.crashes == 1 && st.recovery_records_replayed > 0 &&
                st.recovery_dirty_frames_lost > 0;
    bool match = st.table_checksum == a.storage.table_checksum;
    std::printf("no-fault run:  checksum %llu, wal %llu records (%s)\n",
                static_cast<unsigned long long>(a.storage.table_checksum),
                static_cast<unsigned long long>(a.storage.wal_records),
                a_ok ? "OK" : "FAIL");
    std::printf(
        "crashed run:   kill@%llu, dirty frames lost %llu, replayed %llu "
        "of %llu scanned, redo %llu pages in %llu cycles (%s)\n",
        static_cast<unsigned long long>(kill_cycle),
        static_cast<unsigned long long>(st.recovery_dirty_frames_lost),
        static_cast<unsigned long long>(st.recovery_records_replayed),
        static_cast<unsigned long long>(st.recovery_records_scanned),
        static_cast<unsigned long long>(st.recovery_pages_redone),
        static_cast<unsigned long long>(st.recovery_cycles),
        b_ok ? "OK" : "FAIL");
    std::printf("recovered checksum %llu vs no-fault %llu (%s)\n",
                static_cast<unsigned long long>(st.table_checksum),
                static_cast<unsigned long long>(a.storage.table_checksum),
                match ? "OK" : "FAIL");
    if (!a_ok || !b_ok || !match) ++failures;
  }

  std::printf("\nbench_storage: %s\n", failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}

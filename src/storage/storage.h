// numalab::storage — a deterministic paged table store with a NUMA-sharded
// buffer pool, a write-ahead log and ARIES-lite crash recovery
// (DESIGN.md section 15).
//
// minidb is compute-only; this subsystem adds the missing storage half of a
// query-serving system, following the MiniRDB exemplar: fixed-size slotted
// pages persisted on a *simulated* I/O device (host-side byte images whose
// reads/writes charge seeded virtual-cycle latencies), cached
// by one buffer-pool shard per NUMA node. Page ids are routed to their
// owning shard; each shard's frames live in simulated memory — allocated
// through the fallible allocation chain, so faultlab capacity pressure and
// allocation-failure injection apply — and are evicted with a deterministic
// clock (second-chance) sweep with dirty-page writeback. A frame is used
// only inside one shard-lock critical section, so the sweep never meets a
// frame in use and nothing needs pinning.
//
// Durability follows ARIES discipline, scaled to the simulator:
//  * every slot update appends an LSN-stamped record to the WAL *before*
//    touching the page (write-ahead rule), with group commit: records
//    buffer until the group fills or a virtual-cycle window elapses, and
//    one flush charge covers the whole group;
//  * a dirty page may be written back only after the WAL is flushed through
//    its page LSN;
//  * sharp checkpoints flush the WAL, write back every dirty frame, and
//    truncate the log — bounding recovery work by the checkpoint interval;
//  * when faultlab takes a node offline mid-run, the engine treats it as a
//    crash of that shard: the shard's frames (including un-written-back
//    dirty pages) are discarded, the surviving WAL is force-flushed, and an
//    analysis+redo pass replays post-checkpoint records onto the stale disk
//    images (idempotent via the per-page LSN), after which the dead shard's
//    pages are re-routed to the next online shard. Because every applied
//    update was logged first, recovery reproduces a table checksum
//    identical to a no-fault run — the self-checking gate bench_storage
//    enforces.
//
// Determinism: no wall clock, no host RNG (the I/O jitter comes from a
// seeded Rng), no unordered containers; all shared frame/WAL state is
// mutated under per-shard and WAL VirtualLocks whose critical sections are
// delimited by Env::Lock/LockReleased, so race-detected runs are clean and
// two same-seed runs are bit-identical.

#ifndef NUMALAB_STORAGE_STORAGE_H_
#define NUMALAB_STORAGE_STORAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/faultlab/faultlab.h"
#include "src/sim/sync.h"
#include "src/workloads/env.h"

namespace numalab {
namespace storage {

/// \brief Where a shard's frame memory is first-touched. The buffer pool's
/// own placement axis, orthogonal to MemPolicy: kLocal puts each shard's
/// frames on the node whose pages it caches (the NUMA-aware design), kNode0
/// reproduces the classic single-producer pathology.
enum class ShardPlacement {
  kLocal,
  kNode0,
};

const char* ShardPlacementName(ShardPlacement p);

/// \brief Parameters of the paged store, buffer pool and WAL. The page
/// format, the simulated I/O device and the WAL costs are constants of
/// storage.cc. Defaults give a working set a few times larger than the
/// pool, so eviction and writeback are exercised.
struct StorageConfig {
  /// Master switch for the serving integration: RunServing routes the
  /// upsert/point/range stream through the WAL-backed table iff true.
  /// False is guaranteed zero-cost (byte-identical serving results).
  bool enabled = false;

  /// Table rows; keys are [0, rows), direct-mapped to (page, slot).
  uint64_t rows = 1 << 16;
  /// Buffer-pool frames per NUMA-node shard.
  uint64_t frames_per_shard = 24;
  ShardPlacement placement = ShardPlacement::kLocal;

  /// Sharp checkpoint every N WAL records (0 disables checkpoints): flush
  /// the WAL, write back every dirty frame, truncate the log. Smaller
  /// intervals bound recovery work at the price of extra writeback — the
  /// recovery-time curve bench_storage sweeps.
  uint64_t checkpoint_interval_records = 4096;
};

/// \brief Per-shard buffer-pool counters. Invariant (validator-checked):
/// hits + misses == lookups.
struct ShardStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t frames = 0;          ///< frames currently allocated
  uint64_t alloc_fallbacks = 0; ///< frame allocs refused -> evicted instead
};

/// \brief Everything the storage engine measured in one run.
struct StorageStats {
  std::vector<ShardStats> shards;  ///< indexed by NUMA node

  // Pool totals (sums of the per-shard counters; validator cross-checks).
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;

  // Operation counts.
  uint64_t upserts = 0;
  uint64_t gets = 0;
  uint64_t scan_rows = 0;

  // WAL + checkpoint accounting.
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_flushes = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_pages = 0;
  uint64_t wal_truncated_records = 0;

  // Simulated device accounting.
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;

  // Crash recovery (all zero unless a shard crashed; the "recovery" JSON
  // object is emitted iff crashes > 0).
  uint64_t crashes = 0;
  uint64_t recovery_cycles = 0;
  uint64_t recovery_records_scanned = 0;
  uint64_t recovery_records_replayed = 0;
  uint64_t recovery_pages_redone = 0;
  uint64_t recovery_dirty_frames_lost = 0;
  uint64_t recovered_checksum = 0;  ///< table checksum right after redo

  /// Final order-independent table digest (filled by StorageEngine::stats).
  uint64_t table_checksum = 0;

  double HitRate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// The deterministic preload value of a row: the table starts fully
/// populated with (key, PreloadValue(key)), written straight to the disk
/// images host-side (no WAL, no charges — it models a pre-existing table).
/// Upserts should write values *different* from this so lost updates are
/// detectable (see bench_storage's recovery gate).
inline uint64_t PreloadValue(uint64_t key) {
  return SplitMix64(key * 0x9e3779b97f4a7c15ULL + 1).Next();
}

class StorageEngine {
 public:
  /// `nodes` is the machine's NUMA-node count (one shard each); `seed`
  /// feeds the I/O jitter Rng; `faults` may be null (no crash injection).
  StorageEngine(const StorageConfig& cfg, int nodes, uint64_t seed,
                faultlab::FaultLab* faults);

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Writes `value` for `key` through the WAL-backed table: WAL append
  /// (group commit), then the in-frame slot update, marking the frame
  /// dirty. Returns false when the key's frame could not be materialized
  /// (allocation chain exhausted with an empty shard). key must be < rows.
  bool Upsert(workloads::Env& env, uint64_t key, uint64_t value);

  /// Point read through the buffer pool. Returns false for an absent row
  /// (never happens after the full preload) — *value is 0 then.
  bool Get(workloads::Env& env, uint64_t key, uint64_t* value);

  /// Sums the values of rows [key, min(key+rows, config.rows)) through the
  /// pool, page by page. Returns the sum (wrapping uint64 arithmetic).
  uint64_t ScanSum(workloads::Env& env, uint64_t key, uint64_t rows);

  /// Flushes the WAL and writes back every dirty frame on the online
  /// shards; returns how many frames it wrote back. No truncation — use for
  /// a clean shutdown in tests; checkpoints (which call it) do truncate.
  uint64_t FlushAll(workloads::Env& env);

  /// Crash one shard and run ARIES-lite recovery: force-flush the WAL
  /// (the log device survives a node loss), discard the shard's frames —
  /// dirty pages lose their only up-to-date copy — then analysis+redo of
  /// every post-checkpoint WAL record onto the current page versions
  /// (idempotent: records at or below the page LSN are skipped). The dead
  /// shard's pages re-route to the next online shard. Called automatically
  /// when faultlab reports the node offline; public so tests can exercise
  /// replay without a fault plan.
  void RecoverAfterCrash(workloads::Env& env, int node);

  /// Order-independent digest over every live row (cached frames take
  /// precedence over disk images). Host-side bookkeeping: charges nothing
  /// and perturbs no pool state, so benches can compare fault vs no-fault
  /// runs on it.
  uint64_t Checksum() const;

  /// True iff `page` currently has a frame (host-side; tests).
  bool Cached(uint64_t page) const;

  const StorageConfig& config() const { return cfg_; }
  uint64_t pages() const { return npages_; }
  uint64_t rows_per_page() const;
  int shard_of(uint64_t page) const;
  /// WAL records currently live (flushed, post-checkpoint) — shrinks when
  /// a checkpoint truncates (tests).
  uint64_t wal_live_records() const { return wal_.size(); }
  uint64_t wal_buffered_records() const { return wal_buf_.size(); }

  /// Copies the counters, filling in the pool totals and the final
  /// table_checksum.
  StorageStats stats() const;

 private:
  /// One buffer-pool frame. `data` is one page of simulated memory;
  /// accesses to it are charged through the caller's Env.
  struct Frame {
    uint64_t page = ~0ULL;
    uint64_t page_lsn = 0;  ///< host mirror of the image's header LSN
    bool dirty = false;
    bool ref = false;  ///< clock second-chance bit
    uint8_t* data = nullptr;
  };

  struct WalRecord {
    uint64_t lsn = 0;
    uint64_t page = 0;
    uint32_t slot = 0;
    uint64_t key = 0;
    uint64_t value = 0;
  };

  struct Shard {
    std::vector<Frame> frames;
    uint64_t hand = 0;  ///< clock sweep position
    sim::VirtualLock lock;
    ShardStats st;
  };

  uint8_t* DiskImage(uint64_t page);
  const uint8_t* DiskImage(uint64_t page) const;
  /// What WithPage got to: no online shard for the page (Unavailable
  /// reported), no frame for it (failure reported), or the body ran.
  enum class PageOutcome { kNoShard, kNoFrame, kDone };

  uint64_t ChargeIo(workloads::Env& env, uint64_t base);
  void MaybeCrash(workloads::Env& env);
  /// Owning shard of `page`, or -1 after reporting Unavailable when every
  /// shard is offline.
  int RouteOrFail(workloads::Env& env, uint64_t page);
  /// The one-page critical section of Upsert/Get/ScanSum: route `page` to
  /// its shard, take the shard lock, fetch the frame, run body(frame),
  /// release. The body runs only when a frame was obtained.
  template <typename F>
  PageOutcome WithPage(workloads::Env& env, uint64_t page, F&& body);
  /// Group-commit flush; the caller holds wal_lock_.
  void FlushWal(workloads::Env& env);
  /// FlushWal under its own wal_lock_ section.
  void SyncWal(workloads::Env& env);
  void WalAppend(workloads::Env& env, uint64_t page, uint32_t slot,
                 uint64_t key, uint64_t value, uint64_t* lsn_out);
  void MaybeCheckpoint(workloads::Env& env);
  /// Writes the victim frame's image back to disk (WAL-first rule:
  /// flushes the log through the frame's LSN beforehand).
  void WriteBack(workloads::Env& env, Shard& sh, Frame& f);
  /// Shard-lock-held page fetch; returns null when the shard has no frame
  /// and cannot allocate one.
  Frame* FetchLocked(workloads::Env& env, int shard_idx, uint64_t page);
  void ApplySlot(uint8_t* img, uint64_t lsn, uint32_t slot, uint64_t key,
                 uint64_t value) const;

  StorageConfig cfg_;
  int nodes_ = 1;
  faultlab::FaultLab* faults_ = nullptr;  // not owned; may be null

  uint64_t npages_ = 0;

  std::vector<uint8_t> disk_;          // host-side durable page images
  std::vector<Shard> shards_;          // one per node
  std::vector<int32_t> frame_of_page_; // index into owning shard's frames
  std::vector<bool> shard_dead_;       // crashed shards (re-routed)

  // WAL (host-side log device; survives node crashes).
  std::vector<WalRecord> wal_;      // flushed, post-checkpoint
  std::vector<WalRecord> wal_buf_;  // group-commit buffer
  uint64_t next_lsn_ = 1;
  uint64_t flushed_lsn_ = 0;
  uint64_t buf_open_cycle_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  sim::VirtualLock wal_lock_;

  Rng io_rng_;  // seeded device-latency jitter
  StorageStats st_;
};

/// The "storage" JSON object for trace export (schema v4). Deterministic:
/// integers and %.6g doubles only, fixed key order; the "recovery" object
/// is present iff st.crashes > 0.
std::string StorageJson(const StorageConfig& cfg, const StorageStats& st);

}  // namespace storage
}  // namespace numalab

#endif  // NUMALAB_STORAGE_STORAGE_H_

#include "src/storage/storage.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

#include "src/common/logging.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace numalab {
namespace storage {
namespace {

// Lock hold costs (virtual cycles) for the analytical shard/WAL locks;
// queueing waits on top come from VirtualLock::Acquire.
constexpr uint64_t kShardHoldCycles = 160;
constexpr uint64_t kWalHoldCycles = 90;

// Page format: a fixed-size slotted page of an 8-byte page LSN, a presence
// bitmap of one bit per slot, and 16-byte (key, value) slots. 253 is the
// most slots that fit: 8 + 8 * 4 + 16 * 253 = 4088 <= 4096.
constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kSlotsPerPage = 253;
constexpr uint64_t kBitmapWords = (kSlotsPerPage + 63) / 64;
constexpr uint64_t PageFormatBytes(uint64_t slots) {
  return 8 + 8 * ((slots + 63) / 64) + 16 * slots;
}
static_assert(PageFormatBytes(kSlotsPerPage) <= kPageBytes &&
                  PageFormatBytes(kSlotsPerPage + 1) > kPageBytes,
              "kSlotsPerPage must be the most slots a page holds");
// Byte offsets within a page of the bitmap word holding `slot`'s presence
// bit, of `slot`'s (key, value) pair and of its value.
constexpr uint64_t BitmapWordOffset(uint64_t slot) {
  return 8 + 8 * (slot / 64);
}
constexpr uint64_t SlotOffset(uint64_t slot) {
  return 8 + 8 * kBitmapWords + 16 * slot;
}
constexpr uint64_t ValueOffset(uint64_t slot) { return SlotOffset(slot) + 8; }

// Simulated I/O device (virtual cycles), charged to the calling worker.
// Each device op adds a seeded jitter in [0, kIoJitterCycles).
constexpr uint64_t kIoReadCycles = 9'000;
constexpr uint64_t kIoWriteCycles = 13'000;
constexpr uint64_t kIoJitterCycles = 512;

// WAL: per-record append cost (buffered), flush base + per-record cost,
// and group commit: the buffer is flushed once it holds
// kGroupCommitRecords records, or once its oldest record has waited
// kGroupCommitWindowCycles, whichever comes first.
constexpr uint64_t kWalAppendCycles = 60;
constexpr uint64_t kWalFlushBaseCycles = 6'000;
constexpr uint64_t kWalFlushPerRecordCycles = 90;
constexpr uint64_t kGroupCommitRecords = 16;
constexpr uint64_t kGroupCommitWindowCycles = 24'000;

// Logical on-device size of one WAL record: lsn + page + slot + key + value
// (8+8+4+8+8, padded). Only feeds the wal_bytes counter.
constexpr uint64_t kWalRecordBytes = 40;

constexpr uint64_t kNoPage = ~0ULL;

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void WriteU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// The slot codec: the only code that reads or writes a page image's header
// LSN, presence bits and slots (whole-page copies aside).
uint64_t PageLsn(const uint8_t* img) { return ReadU64(img); }

bool SlotPresent(const uint8_t* img, uint64_t slot) {
  return (ReadU64(img + BitmapWordOffset(slot)) >> (slot % 64)) & 1ULL;
}

uint64_t SlotValue(const uint8_t* img, uint64_t slot) {
  return ReadU64(img + ValueOffset(slot));
}

/// Stores (key, value) in `slot`, sets its presence bit and stamps the page
/// with `lsn`. Host-side: callers charge the simulated accesses.
void ApplySlot(uint8_t* img, uint64_t lsn, uint32_t slot, uint64_t key,
               uint64_t value) {
  WriteU64(img, lsn);
  uint64_t word = ReadU64(img + BitmapWordOffset(slot));
  word |= 1ULL << (slot % 64);
  WriteU64(img + BitmapWordOffset(slot), word);
  WriteU64(img + SlotOffset(slot), key);
  WriteU64(img + ValueOffset(slot), value);
}

}  // namespace

const char* ShardPlacementName(ShardPlacement p) {
  switch (p) {
    case ShardPlacement::kLocal: return "local";
    case ShardPlacement::kNode0: return "node0";
  }
  return "unknown";
}

StorageEngine::StorageEngine(const StorageConfig& cfg, uint64_t rows,
                             int nodes, uint64_t seed,
                             faultlab::FaultLab* faults)
    : cfg_(cfg),
      rows_(rows),
      nodes_(nodes),
      faults_(faults),
      io_rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5707a9eULL) {
  NUMALAB_CHECK(nodes_ >= 1);
  NUMALAB_CHECK(rows_ > 0);
  NUMALAB_CHECK(cfg_.frames_per_shard >= 1);
  npages_ = (rows_ + kSlotsPerPage - 1) / kSlotsPerPage;

  disk_.assign(npages_ * kPageBytes, 0);
  frame_of_page_.assign(npages_, -1);
  shard_dead_.assign(nodes_, false);
  shards_.resize(nodes_);
  for (auto& sh : shards_) {
    // A shard never grows past frames_per_shard: one allocation holds it.
    sh.frames.reserve(cfg_.frames_per_shard);
  }
  st_.shards.resize(nodes_);

  // Preload: the table starts fully populated, written straight to the disk
  // images (models a pre-existing on-device table; no WAL, no charges).
  for (uint64_t key = 0; key < rows_; ++key) {
    ApplySlot(DiskImage(key / kSlotsPerPage), /*lsn=*/0,
              static_cast<uint32_t>(key % kSlotsPerPage), key,
              PreloadValue(key));
  }
}

uint64_t StorageEngine::rows_per_page() const { return kSlotsPerPage; }

uint8_t* StorageEngine::DiskImage(uint64_t page) {
  return &disk_[page * kPageBytes];
}
const uint8_t* StorageEngine::DiskImage(uint64_t page) const {
  return &disk_[page * kPageBytes];
}

int StorageEngine::shard_of(uint64_t page) const {
  int start = static_cast<int>(page % static_cast<uint64_t>(nodes_));
  for (int i = 0; i < nodes_; ++i) {
    int cand = (start + i) % nodes_;
    if (!shard_dead_[cand]) return cand;
  }
  return -1;
}

uint64_t StorageEngine::ChargeIo(workloads::Env& env, uint64_t base) {
  uint64_t cycles = base + io_rng_.Uniform(kIoJitterCycles);
  env.Compute(cycles);
  return cycles;
}

void StorageEngine::MaybeCrash(workloads::Env& env) {
  if (faults_ == nullptr) return;
  for (int n = 0; n < nodes_; ++n) {
    if (!shard_dead_[n] && !faults_->NodeOnline(n, env.self->clock)) {
      RecoverAfterCrash(env, n);
    }
  }
}

void StorageEngine::FlushWal(workloads::Env& env) {
  if (wal_buf_.empty()) return;
  env.Compute(kWalFlushBaseCycles + kWalFlushPerRecordCycles * wal_buf_.size());
  ++st_.wal_flushes;
  flushed_lsn_ = wal_buf_.back().lsn;
  wal_.insert(wal_.end(), wal_buf_.begin(), wal_buf_.end());
  wal_buf_.clear();
}

void StorageEngine::SyncWal(workloads::Env& env) {
  env.Lock(&wal_lock_, kWalHoldCycles);
  FlushWal(env);
  env.LockReleased(&wal_lock_);
}

uint64_t StorageEngine::WalAppend(workloads::Env& env, uint64_t page,
                                  uint32_t slot, uint64_t key,
                                  uint64_t value) {
  env.Lock(&wal_lock_, kWalHoldCycles);
  if (wal_buf_.empty()) buf_open_cycle_ = env.self->clock;
  uint64_t lsn = next_lsn_++;
  wal_buf_.push_back({lsn, page, slot, key, value});
  env.Compute(kWalAppendCycles);
  ++st_.wal_records;
  st_.wal_bytes += kWalRecordBytes;
  ++records_since_checkpoint_;
  // Group commit: flush when the group fills or the oldest buffered record
  // has waited out the virtual-cycle window.
  if (wal_buf_.size() >= kGroupCommitRecords ||
      env.self->clock - buf_open_cycle_ >= kGroupCommitWindowCycles) {
    FlushWal(env);
  }
  env.LockReleased(&wal_lock_);
  return lsn;
}

void StorageEngine::WriteBack(workloads::Env& env, Shard& sh, Frame& f) {
  // WAL-before-data: the log must be durable through this page's LSN before
  // its image may overwrite the on-device version.
  if (PageLsn(f.data) > flushed_lsn_) {
    SyncWal(env);
  }
  env.ReadSpan(f.data, kPageBytes);
  std::memcpy(DiskImage(f.page), f.data, kPageBytes);
  ChargeIo(env, kIoWriteCycles);
  ++st_.io_writes;
  ++sh.st.writebacks;
  f.dirty = false;
}

StorageEngine::Frame* StorageEngine::FetchLocked(workloads::Env& env,
                                                 int shard_idx,
                                                 uint64_t page) {
  Shard& sh = shards_[shard_idx];
  ++sh.st.lookups;
  int32_t fi = frame_of_page_[page];
  if (fi >= 0) {
    ++sh.st.hits;
    Frame& f = sh.frames[fi];
    f.ref = true;
    return &f;
  }
  ++sh.st.misses;

  Frame* victim = nullptr;
  if (sh.frames.size() < cfg_.frames_per_shard) {
    // Grow the pool through the fallible chain, so faultlab capacity
    // pressure and injected allocation failures reach the buffer pool.
    // Raw TryAlloc (not Env::TryAlloc): a refusal here is survivable — we
    // fall back to evicting — so it must not poison the run status.
    void* p = env.alloc->TryAlloc(kPageBytes);
    if (p != nullptr) {
      env.NoteAlloc(p, kPageBytes);
      int touch_node = shard_idx;
      if (cfg_.placement == ShardPlacement::kNode0) touch_node = 0;
      // Bind the frame's backing pages to the placement target, the
      // move_pages(2) way: a fresh page first-touches straight onto the
      // target; an allocator-recycled page (already bound wherever its
      // previous owner touched it) is migrated, paying the kernel copy in
      // the contention model. An offline target leaves the page put
      // (counted as an injected migration failure), matching the kernel.
      env.mem->os()->TouchRange(reinterpret_cast<uint64_t>(p), kPageBytes,
                                touch_node, /*migrate=*/true,
                                env.self->clock);
      sh.frames.emplace_back();
      victim = &sh.frames.back();
      victim->data = static_cast<uint8_t*>(p);
      ++sh.st.frames;
    } else {
      ++sh.st.alloc_fallbacks;
    }
  }
  if (victim == nullptr) {
    if (sh.frames.empty()) {
      env.ReportFailure(Status::OutOfMemory(
          "storage: shard has no frames and frame allocation failed"));
      return nullptr;
    }
    // Clock second-chance sweep: advance until an unreferenced frame. The
    // first lap clears every ref bit, so it stops within one lap plus one.
    while (victim == nullptr) {
      Frame& f = sh.frames[sh.hand];
      sh.hand = (sh.hand + 1) % sh.frames.size();
      if (f.ref) {
        f.ref = false;
      } else {
        victim = &f;
      }
    }
  }

  if (victim->page != kNoPage) {
    if (victim->dirty) WriteBack(env, sh, *victim);
    frame_of_page_[victim->page] = -1;
    ++sh.st.evictions;
  }

  // Fault the page in from the simulated device.
  ChargeIo(env, kIoReadCycles);
  ++st_.io_reads;
  std::memcpy(victim->data, DiskImage(page), kPageBytes);
  env.WriteSpan(victim->data, kPageBytes);
  victim->page = page;
  victim->dirty = false;
  victim->ref = true;
  frame_of_page_[page] =
      static_cast<int32_t>(victim - sh.frames.data());
  return victim;
}

template <typename F>
StorageEngine::PageOutcome StorageEngine::WithPage(workloads::Env& env,
                                                   uint64_t page, F&& body) {
  int si = shard_of(page);
  if (si < 0) {
    env.ReportFailure(Status::Unavailable("storage: all shards offline"));
    return PageOutcome::kNoShard;
  }
  Shard& sh = shards_[si];
  env.Lock(&sh.lock, kShardHoldCycles);
  Frame* f = FetchLocked(env, si, page);
  if (f != nullptr) body(*f);
  env.LockReleased(&sh.lock);
  return f != nullptr ? PageOutcome::kDone : PageOutcome::kNoFrame;
}

bool StorageEngine::Upsert(workloads::Env& env, uint64_t key,
                           uint64_t value) {
  NUMALAB_CHECK(key < rows_);
  MaybeCrash(env);
  uint64_t page = key / kSlotsPerPage;
  uint32_t slot = static_cast<uint32_t>(key % kSlotsPerPage);
  // Write-ahead rule: the record is logged (group-commit buffered) before
  // the page is touched.
  uint64_t lsn = WalAppend(env, page, slot, key, value);

  PageOutcome r = WithPage(env, page, [&](Frame& f) {
    ApplySlot(f.data, lsn, slot, key, value);
    // Charge the in-frame writes: header LSN + bitmap word + the slot.
    env.Write(f.data, 8);
    env.Write(f.data + BitmapWordOffset(slot), 8);
    env.Write(f.data + SlotOffset(slot), 16);
    f.dirty = true;
  });
  if (r == PageOutcome::kNoShard) return false;
  if (r == PageOutcome::kDone) ++st_.upserts;
  MaybeCheckpoint(env);
  return r == PageOutcome::kDone;
}

bool StorageEngine::Get(workloads::Env& env, uint64_t key, uint64_t* value) {
  NUMALAB_CHECK(key < rows_);
  MaybeCrash(env);
  *value = 0;
  uint64_t page = key / kSlotsPerPage;
  uint32_t slot = static_cast<uint32_t>(key % kSlotsPerPage);
  bool found = false;
  PageOutcome r = WithPage(env, page, [&](Frame& f) {
    env.Read(f.data + BitmapWordOffset(slot), 8);
    if (SlotPresent(f.data, slot)) {
      env.Read(f.data + SlotOffset(slot), 16);
      *value = SlotValue(f.data, slot);
      found = true;
    }
  });
  if (r == PageOutcome::kNoShard) return false;
  ++st_.gets;
  return found;
}

uint64_t StorageEngine::ScanSum(workloads::Env& env, uint64_t key,
                                uint64_t rows) {
  NUMALAB_CHECK(key < rows_);
  uint64_t end = std::min(key + rows, rows_);
  uint64_t sum = 0;
  uint64_t k = key;
  while (k < end) {
    MaybeCrash(env);
    uint64_t page = k / kSlotsPerPage;
    uint32_t first = static_cast<uint32_t>(k % kSlotsPerPage);
    uint64_t last = std::min(end, (page + 1) * kSlotsPerPage);
    uint32_t count = static_cast<uint32_t>(last - k);
    PageOutcome r = WithPage(env, page, [&](Frame& f) {
      env.ReadSpan(f.data + SlotOffset(first), 16ULL * count, 16);
      for (uint32_t slot = first; slot < first + count; ++slot) {
        if (SlotPresent(f.data, slot)) sum += SlotValue(f.data, slot);
      }
      st_.scan_rows += count;
    });
    if (r != PageOutcome::kDone) break;
    k = last;
  }
  return sum;
}

void StorageEngine::MaybeCheckpoint(workloads::Env& env) {
  if (cfg_.checkpoint_interval_records == 0) return;
  if (records_since_checkpoint_ < cfg_.checkpoint_interval_records) return;
  records_since_checkpoint_ = 0;
  trace::ScopedSpan span(env.self, "storage-checkpoint");
  // Sharp checkpoint: durable log, then every dirty frame written back, then
  // the log is truncated — recovery never needs to look behind it.
  st_.checkpoint_pages += FlushAll(env);
  st_.wal_truncated_records += wal_.size();
  wal_.clear();
  ++st_.checkpoints;
}

uint64_t StorageEngine::FlushAll(workloads::Env& env) {
  SyncWal(env);
  uint64_t written = 0;
  for (int si = 0; si < nodes_; ++si) {
    Shard& sh = shards_[si];
    if (shard_dead_[si] || sh.frames.empty()) continue;
    env.Lock(&sh.lock, kShardHoldCycles);
    for (Frame& f : sh.frames) {
      if (f.page != kNoPage && f.dirty) {
        WriteBack(env, sh, f);
        ++written;
      }
    }
    env.LockReleased(&sh.lock);
  }
  return written;
}

void StorageEngine::RecoverAfterCrash(workloads::Env& env, int node) {
  NUMALAB_CHECK(node >= 0 && node < nodes_);
  NUMALAB_CHECK(!shard_dead_[node]);
  trace::ScopedSpan span(env.self, "storage-recovery");
  uint64_t start = env.self->clock;
  ++st_.crashes;
  shard_dead_[node] = true;

  // The log device survives a node loss (the WAL buffer lives with the log
  // manager, not on the dead node's DRAM): force it durable, so every
  // acknowledged update is replayable.
  SyncWal(env);

  // Crash the shard: every cached frame is gone, including dirty pages
  // whose only up-to-date copy they were.
  Shard& sh = shards_[node];
  for (Frame& f : sh.frames) {
    if (f.page != kNoPage) {
      if (f.dirty) ++st_.recovery_dirty_frames_lost;
      frame_of_page_[f.page] = -1;
    }
    env.Free(f.data);
  }
  sh.frames.clear();
  sh.hand = 0;
  sh.st.frames = 0;

  // Analysis + redo over the post-checkpoint log: a record is current if
  // its page is cached on a surviving shard (the frame is the unique cache
  // copy, so its LSN dominates every logged record) or if the on-device
  // image already carries an LSN at or past it; everything else is replayed
  // onto the device image. Idempotent by the per-page LSN guard.
  std::vector<bool> redone(npages_, false);
  for (const WalRecord& r : wal_) {
    ++st_.recovery_records_scanned;
    if (frame_of_page_[r.page] >= 0) continue;
    uint8_t* img = DiskImage(r.page);
    if (PageLsn(img) >= r.lsn) continue;
    if (!redone[r.page]) {
      redone[r.page] = true;
      ++st_.recovery_pages_redone;
      ChargeIo(env, kIoReadCycles);
      ++st_.io_reads;
      ChargeIo(env, kIoWriteCycles);
      ++st_.io_writes;
    }
    ApplySlot(img, r.lsn, r.slot, r.key, r.value);
    ++st_.recovery_records_replayed;
  }

  st_.recovery_cycles += env.self->clock - start;
  st_.recovered_checksum = Checksum();
}

uint64_t StorageEngine::Checksum() const {
  uint64_t sum = 0;
  for (uint64_t page = 0; page < npages_; ++page) {
    const uint8_t* img = DiskImage(page);
    int32_t fi = frame_of_page_[page];
    if (fi >= 0) {
      int si = shard_of(page);
      NUMALAB_CHECK(si >= 0);
      img = shards_[si].frames[fi].data;
    }
    uint64_t lo = page * kSlotsPerPage;
    uint64_t hi = std::min(rows_, lo + kSlotsPerPage);
    for (uint64_t key = lo; key < hi; ++key) {
      uint64_t slot = key - lo;
      if (SlotPresent(img, slot)) {
        uint64_t value = SlotValue(img, slot);
        sum += SplitMix64(key * 0x9e3779b97f4a7c15ULL ^ value).Next();
      }
    }
  }
  return sum;
}

bool StorageEngine::Cached(uint64_t page) const {
  NUMALAB_CHECK(page < npages_);
  return frame_of_page_[page] >= 0;
}

StorageStats StorageEngine::stats() const {
  StorageStats out = st_;
  out.shards.resize(nodes_);
  for (int i = 0; i < nodes_; ++i) {
    out.shards[i] = shards_[i].st;
    out.lookups += shards_[i].st.lookups;
    out.hits += shards_[i].st.hits;
    out.misses += shards_[i].st.misses;
    out.evictions += shards_[i].st.evictions;
    out.writebacks += shards_[i].st.writebacks;
  }
  out.table_checksum = Checksum();
  return out;
}

using trace::Appendf;

std::string StorageJson(const StorageConfig& cfg, uint64_t rows,
                        const StorageStats& st) {
  std::string out;
  out.reserve(1024);
  Appendf(&out,
          "{\"enabled\":%s,\"rows\":%" PRIu64 ",\"page_bytes\":%" PRIu64
          ",\"frames_per_shard\":%" PRIu64
          ",\"placement\":\"%s\",\"checkpoint_interval\":%" PRIu64,
          cfg.enabled ? "true" : "false", rows, kPageBytes,
          cfg.frames_per_shard, ShardPlacementName(cfg.placement),
          cfg.checkpoint_interval_records);
  Appendf(&out,
          ",\"lookups\":%" PRIu64 ",\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"hit_rate\":%.6g,\"evictions\":%" PRIu64
          ",\"writebacks\":%" PRIu64,
          st.lookups, st.hits, st.misses, st.HitRate(), st.evictions,
          st.writebacks);
  Appendf(&out,
          ",\"upserts\":%" PRIu64 ",\"gets\":%" PRIu64
          ",\"scan_rows\":%" PRIu64,
          st.upserts, st.gets, st.scan_rows);
  out.append(",\"shards\":[");
  for (size_t i = 0; i < st.shards.size(); ++i) {
    const ShardStats& s = st.shards[i];
    Appendf(&out,
            "%s{\"node\":%zu,\"lookups\":%" PRIu64 ",\"hits\":%" PRIu64
            ",\"misses\":%" PRIu64 ",\"hit_rate\":%.6g,\"evictions\":%" PRIu64
            ",\"writebacks\":%" PRIu64 ",\"frames\":%" PRIu64
            ",\"alloc_fallbacks\":%" PRIu64 "}",
            i == 0 ? "" : ",", i, s.lookups, s.hits, s.misses,
            s.lookups == 0 ? 0.0
                           : static_cast<double>(s.hits) /
                                 static_cast<double>(s.lookups),
            s.evictions, s.writebacks, s.frames, s.alloc_fallbacks);
  }
  out.append("]");
  Appendf(&out,
          ",\"wal\":{\"records\":%" PRIu64 ",\"bytes\":%" PRIu64
          ",\"flushes\":%" PRIu64 ",\"checkpoints\":%" PRIu64
          ",\"checkpoint_pages\":%" PRIu64 ",\"truncated_records\":%" PRIu64
          "}",
          st.wal_records, st.wal_bytes, st.wal_flushes, st.checkpoints,
          st.checkpoint_pages, st.wal_truncated_records);
  Appendf(&out, ",\"io\":{\"reads\":%" PRIu64 ",\"writes\":%" PRIu64 "}",
          st.io_reads, st.io_writes);
  Appendf(&out, ",\"crashes\":%" PRIu64, st.crashes);
  if (st.crashes > 0) {
    Appendf(&out,
            ",\"recovery\":{\"cycles\":%" PRIu64
            ",\"records_scanned\":%" PRIu64 ",\"records_replayed\":%" PRIu64
            ",\"pages_redone\":%" PRIu64 ",\"dirty_frames_lost\":%" PRIu64
            ",\"checksum\":%" PRIu64 "}",
            st.recovery_cycles, st.recovery_records_scanned,
            st.recovery_records_replayed, st.recovery_pages_redone,
            st.recovery_dirty_frames_lost, st.recovered_checksum);
  }
  Appendf(&out, ",\"table_checksum\":%" PRIu64 "}", st.table_checksum);
  return out;
}

}  // namespace storage
}  // namespace numalab

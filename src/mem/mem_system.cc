#include "src/mem/mem_system.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "src/sanity/race_detector.h"

namespace numalab {
namespace mem {

namespace {
// Sample every Nth DRAM access as a NUMA-hinting fault while AutoNUMA scans.
constexpr uint32_t kHintingFaultStride = 64;
// Migrate a page once this many sampled faults agree on a remote node.
constexpr int kMigrateThreshold = 4;
// A migrated page is not re-migrated within this window (kernel backoff).
constexpr uint64_t kMigrationCooldownCycles = 600'000;
// Kernel migration rate limit (~256 MB/s): pages per 1M-cycle epoch.
constexpr uint64_t kMigrationsPerEpoch = 96;
constexpr uint64_t kRateEpochCycles = 1'000'000;
// Placement: sampled reads must outnumber sampled writes by this factor
// before a page counts as read-mostly (write-heavy pages never replicate).
constexpr uint32_t kReadWriteRatio = 8;
// Placement: sampled accesses from one node before it may take a replica.
constexpr uint8_t kReplicateThreshold = 3;
// Placement: cycles charged to a writer per invalidated replica (IPI +
// remote TLB flush + freeing the copy).
constexpr uint64_t kReplicaShootdownCycles = 1200;
// Placement: minimum page heat (saturating per-fault accumulator, decayed
// each AutoNUMA scan wave) before a page counts as hot for replication.
constexpr uint16_t kMinHeat = 16;
// Placement: noise margin on the cost-aware migration gate — modeled
// savings must exceed kMigrateHysteresis x the modeled cost before a page
// moves. Uniform hash-spread routing means cold store pages are shared
// about equally by all nodes, so the per-node sample counts random-walk
// and a 1x (break-even) gate lets a transient lead trigger a move whose
// copy stalls readers behind migrating_until; demand a sustained 4x-cost
// imbalance instead.
constexpr int64_t kMigrateHysteresis = 4;

}  // namespace

MemSystem::MemSystem(const topology::Machine* machine, sim::Engine* engine,
                     CostModel costs, perf::SystemCounters* sys)
    : machine_(machine),
      engine_(engine),
      costs_(costs),
      sys_(sys),
      contention_(*machine),
      os_(std::make_unique<SimOS>(machine, engine, &contention_, sys)),
      caches_(*machine) {
  tlbs_.reserve(static_cast<size_t>(machine->num_cores()));
  for (int c = 0; c < machine->num_cores(); ++c) tlbs_.emplace_back(*machine);
  for (int s = 0; s < machine->num_nodes(); ++s) {
    for (int d = 0; d < machine->num_nodes(); ++d) {
      lat_table_[static_cast<size_t>(s)][static_cast<size_t>(d)] =
          static_cast<uint64_t>(
              static_cast<double>(machine->dram_latency_cycles()) *
              machine->LatencyFactor(s, d) / kMlp);
    }
  }
}

void MemSystem::SetRaceDetector(sanity::RaceDetector* rd) {
  static_assert(sanity::kShadowLineBytes == kCacheLineBytes,
                "shadow lines must match the modelled cache line");
  race_ = rd;
  if (rd != nullptr) {
    rd->SetAddrResolver(
        [this](uint64_t sim_addr) { return DescribeSimAddr(sim_addr); });
  }
}

std::string MemSystem::DescribeSimAddr(uint64_t sim_addr) const {
  // Reports can name unmapped or non-slab addresses; resolve by hand
  // instead of SimOS::Lookup, which CHECK-fails on wild addresses.
  uint64_t host = os_->FromSimAddr(sim_addr);
  const auto& regions = os_->regions();
  auto it = regions.upper_bound(host);
  if (it != regions.begin()) --it;
  if (it == regions.end() || host < it->second->base ||
      host >= it->second->end()) {
    return "outside any mapped simulated region";
  }
  const Region* r = it->second;
  size_t idx = r->PageIndex(host);
  const PageRec& p = r->pages[idx];
  size_t eff = p.huge ? r->HugeHead(idx) : idx;
  const PageRec& head = r->pages[eff];
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "node %d, %spage %zu of region sim:0x%" PRIx64 " (+%" PRIu64
                " bytes)%s",
                static_cast<int>(head.node), p.huge ? "huge-" : "", idx,
                os_->ToSimAddr(r->base), r->len,
                head.resident ? "" : ", not yet resident");
  return buf;
}

void MemSystem::OnThreadMigrated(int new_core) {
  // Cold TLB on arrival; the private cache keeps whatever the previous
  // occupant left, which for the migrated thread is equally cold.
  tlbs_[static_cast<size_t>(new_core)].Flush();
  ++trans_gen_;
}

void MemSystem::ShootdownTlb(uint64_t addr) {
  uint64_t rel = os_->ToSimAddr(addr);
  for (auto& tlb : tlbs_) tlb.Invalidate(rel);
  ++trans_gen_;
}

inline void MemSystem::EnsureThreadState(int vthread_id) {
  size_t need = static_cast<size_t>(vthread_id) + 1;
  if (node_traffic_.size() < need) {
    node_traffic_.resize(need, {});
    fault_stride_.resize(need, 0);
  }
}

const std::array<uint64_t, kMaxNumaNodes>& MemSystem::NodeTraffic(
    int vthread_id) {
  EnsureThreadState(vthread_id);
  return node_traffic_[static_cast<size_t>(vthread_id)];
}

void MemSystem::ResetNodeTraffic(int vthread_id) {
  EnsureThreadState(vthread_id);
  node_traffic_[static_cast<size_t>(vthread_id)].fill(0);
}

inline void MemSystem::SampleAutoNuma(sim::VThread* vt, Region* region,
                                      size_t idx, int accessor_node,
                                      int page_node, bool write) {
  size_t tid = static_cast<size_t>(vt->id);
  EnsureThreadState(vt->id);
  node_traffic_[tid][static_cast<size_t>(page_node)]++;
  if (++fault_stride_[tid] < kHintingFaultStride) return;
  fault_stride_[tid] = 0;
  SampleAutoNumaFault(vt, region, idx, accessor_node, page_node, write);
}

// Per-line replica routing. Reads the live replica_mask on every call, so
// the scalar and span paths stay bit-identical without extra memo
// invalidation: a replica created or invalidated mid-span changes routing
// for subsequent lines in both implementations at the same point.
inline int MemSystem::RouteReplica(sim::VThread* vt, Region* region,
                                   size_t idx, int my_node, int page_node,
                                   bool write) {
  PageRec& p = region->pages[idx];
  if (p.replica_mask == 0) return page_node;
  if (!write) {
    if ((p.replica_mask >> my_node) & 1) {
      ++sys_->replica_reads;
      return my_node;  // served by the local copy: local DRAM, local latency
    }
    return page_node;
  }
  // A store hit a replicated page: every copy is stale. Invalidate them
  // all and charge the writer one shootdown round per copy (IPI + remote
  // TLB flush), the classic write-amplification cost of replication.
  ++sys_->replica_writes;
  ++sys_->replica_invalidations;
  // Feed the write into the page's read/write sample directly. Hinting
  // faults only see every 64th line, and a periodic access pattern can
  // alias with that stride so sampled faults never land on a store — the
  // gate would then re-replicate a ping-ponging page forever. An
  // invalidation is an *observed* write, so it always counts.
  if (p.writes < 255) ++p.writes;
  uint64_t copies = static_cast<uint64_t>(__builtin_popcount(p.replica_mask));
  os_->DropPageReplicas(region, idx);
  vt->Charge(kReplicaShootdownCycles * copies);
  return page_node;
}

void MemSystem::SampleAutoNumaFault(sim::VThread* vt, Region* region,
                                    size_t idx, int accessor_node,
                                    int page_node, bool write) {
  (void)page_node;  // consumed by the inline prefix's traffic count
  // NUMA-hinting fault: trap into the kernel and account the access.
  vt->Charge(kHintingFaultCycles);
  ++vt->counters.hinting_faults;

  size_t eff = region->pages[idx].huge ? region->HugeHead(idx) : idx;
  PageRec& head = region->pages[eff];
  auto& v = head.visits[static_cast<size_t>(accessor_node)];
  if (v < 255) ++v;

  if (placement_) {
    // Lazy wave decay: halve heat and the read/write samples once per
    // missed scan wave, so "hot" means a sustained access *rate*, not a
    // lifetime count. Touched pages pay one subtract + shifts; idle pages
    // pay nothing until their next fault.
    uint16_t wave = static_cast<uint16_t>(wave_epoch_);
    if (head.heat_wave != wave) {
      uint16_t age = static_cast<uint16_t>(wave - head.heat_wave);
      if (age >= 8) {
        head.heat = 0;
        head.reads = 0;
        head.writes = 0;
      } else {
        head.heat = static_cast<uint16_t>(head.heat >> age);
        head.reads = static_cast<uint8_t>(head.reads >> age);
        head.writes = static_cast<uint8_t>(head.writes >> age);
      }
      head.heat_wave = wave;
    }
    head.heat = head.heat >= 0xFFFF - 16
                    ? 0xFFFF
                    : static_cast<uint16_t>(head.heat + 16);
    uint8_t& rw = write ? head.writes : head.reads;
    if (rw < 255) ++rw;

    // Hot-page replication: a read-mostly page sampled repeatedly from a
    // remote node gains a local copy there when the modeled remote-access
    // savings over the observed sample window exceed the modeled copy
    // cost. Each visit stands for ~kHintingFaultStride DRAM lines.
    if (!write && !head.huge && accessor_node != head.node && head.node >= 0 &&
        !((head.replica_mask >> accessor_node) & 1) &&
        head.heat >= kMinHeat &&
        v >= kReplicateThreshold &&
        head.reads >= kReadWriteRatio * std::max<uint32_t>(head.writes, 1)) {
      int64_t gain_per_line =
          static_cast<int64_t>(DramLatency(accessor_node, head.node)) -
          static_cast<int64_t>(DramLatency(accessor_node, accessor_node));
      int64_t benefit = static_cast<int64_t>(v) * kHintingFaultStride *
                        gain_per_line;
      uint64_t copy = static_cast<uint64_t>(
          static_cast<double>(kSmallPageBytes) /
          machine_->mem_ctrl_bytes_per_cycle());
      if (benefit > static_cast<int64_t>(kPageMigrationCycles + copy) &&
          os_->AddReplica(region, eff, accessor_node)) {
        // The faulting access waits for its copy, like a migrating page.
        vt->Charge(kPageMigrationCycles + copy);
      }
    }
  }

  // Kernel promotion rule (cost-oblivious, like upstream AutoNUMA): once a
  // remote node has sampled enough accesses and strictly dominates, move
  // the page there — no matter how shared the page is. The kernel does
  // back off per page and rate-limit globally, which keeps the damage to
  // "significantly detrimental" rather than "unbounded". Under placement
  // the move must additionally pay for itself across the whole observed
  // sample window (and replicated pages stay put: their readers are
  // already local).
  uint64_t epoch = vt->clock / kRateEpochCycles;
  if (epoch != migrate_epoch_) {
    migrate_epoch_ = epoch;
    migrations_this_epoch_ = 0;
  }
  if (accessor_node != head.node &&
      head.visits[static_cast<size_t>(accessor_node)] >= kMigrateThreshold &&
      migrations_this_epoch_ < kMigrationsPerEpoch &&
      vt->clock > head.migrating_until + kMigrationCooldownCycles) {
    int best = accessor_node;
    for (int n = 0; n < machine_->num_nodes(); ++n) {
      if (head.visits[static_cast<size_t>(n)] >
          head.visits[static_cast<size_t>(best)]) {
        best = n;
      }
    }
    if (best != head.node) {
      bool do_migrate = true;
      if (placement_) {
        if (head.replica_mask != 0) {
          do_migrate = false;  // replicas already serve the remote readers
        } else {
          // Net savings of homing the page at `best`, summed over every
          // node's observed samples (a node nearer to the current home
          // than to `best` contributes negatively — shared pages veto
          // themselves).
          int64_t savings = 0;
          for (int n = 0; n < machine_->num_nodes(); ++n) {
            int64_t delta =
                static_cast<int64_t>(DramLatency(n, head.node)) -
                static_cast<int64_t>(DramLatency(n, best));
            savings += static_cast<int64_t>(
                           head.visits[static_cast<size_t>(n)]) *
                       kHintingFaultStride * delta;
          }
          uint64_t bytes = head.huge ? kHugePageBytes : kSmallPageBytes;
          uint64_t copy = static_cast<uint64_t>(
              static_cast<double>(bytes) /
              machine_->mem_ctrl_bytes_per_cycle());
          do_migrate =
              savings > kMigrateHysteresis *
                            static_cast<int64_t>(kPageMigrationCycles + copy);
        }
        if (!do_migrate) ++sys_->migrations_vetoed;
      }
      if (do_migrate) {
        uint64_t addr = region->base + eff * kSmallPageBytes;
        os_->MigratePage(region, eff, best, vt->clock);
        ShootdownTlb(addr);
        ++migrations_this_epoch_;
      }
    }
  }
}

// Reference implementation: one full TLB -> cache -> DRAM walk per logical
// access. The span path below must match this bit-for-bit; do not "improve"
// one without the other (tests/span_parity_test.cc holds them together).
void MemSystem::AccessScalar(sim::VThread* vt, const void* addr_p,
                             uint64_t bytes, bool write) {
  // Reads and writes are charged identically (no WB model); `write` only
  // matters to placement (replica routing + read/write sampling).
  uint64_t addr = reinterpret_cast<uint64_t>(addr_p);
  // All hashing below uses slab-relative addresses so runs replay
  // identically regardless of where the host placed the slab.
  uint64_t rel = os_->ToSimAddr(addr);
  int core = machine_->CoreOfHwThread(vt->hw_thread);
  int my_node = machine_->NodeOfHwThread(vt->hw_thread);

  ++vt->counters.mem_accesses;
  vt->Charge(kBaseAccessCycles);

  // TLB: one probe per access (accesses rarely straddle pages; a straddle
  // costs one extra probe below through per-line page resolution).
  Region* region = nullptr;
  size_t page_idx = 0;
  bool have_page = false;
  if (costs_.model_tlb) {
    Tlb& tlb = tlbs_[static_cast<size_t>(core)];
    if (tlb.Lookup(rel)) {
      ++vt->counters.tlb_hits;
    } else {
      ++vt->counters.tlb_misses;
      vt->Charge(kPageWalkCycles);
      auto [r, i] = os_->Lookup(addr);
      region = r;
      page_idx = i;
      have_page = true;
      os_->Touch(region, page_idx, my_node);
      tlb.Insert(rel, region->pages[page_idx].huge);
    }
  }

  uint64_t first_line = rel / kCacheLineBytes;
  uint64_t last_line = (rel + bytes - 1) / kCacheLineBytes;
  for (uint64_t line = first_line; line <= last_line; ++line) {
    if (costs_.model_caches) {
      TagArray& priv = caches_.Private(core);
      if (priv.Probe(line)) {
        ++vt->counters.private_hits;
        vt->Charge(kPrivateHitCycles);
        continue;
      }
      TagArray& llc = caches_.Llc(my_node);
      if (llc.Probe(line)) {
        ++vt->counters.llc_hits;
        vt->Charge(kLlcHitCycles);
        priv.Insert(line);
        continue;
      }
    }

    // DRAM access.
    uint64_t line_host = line * kCacheLineBytes + (addr - rel);
    uint64_t probe_addr = line_host >= addr ? line_host : addr;
    if (!have_page || probe_addr < region->base ||
        probe_addr >= region->end()) {
      auto [r, i] = os_->Lookup(probe_addr);
      region = r;
      page_idx = i;
      have_page = true;
    } else {
      page_idx = region->PageIndex(probe_addr);
    }
    int page_node = os_->Touch(region, page_idx, my_node);
    if (placement_) {
      page_node = RouteReplica(vt, region, page_idx, my_node, page_node,
                               write);
    }

    // Stall behind an in-flight kernel copy (migration / THP collapse).
    size_t eff = region->pages[page_idx].huge ? region->HugeHead(page_idx)
                                              : page_idx;
    uint64_t busy_until = region->pages[eff].migrating_until;
    if (busy_until > vt->clock) {
      vt->Charge(std::min<uint64_t>(busy_until - vt->clock, 20000));
    }

    ++vt->counters.llc_misses;
    if (page_node == my_node) {
      ++vt->counters.local_dram;
    } else {
      ++vt->counters.remote_dram;
    }

    uint64_t lat = DramLatency(my_node, page_node);
    uint64_t delay = 0;
    if (costs_.model_contention) {
      delay = contention_.Charge(*machine_, my_node, page_node, vt->clock,
                                 kCacheLineBytes, kMaxQueueDelayCycles);
      vt->counters.queue_delay_cycles += delay;
    }
    vt->Charge(lat + delay);

    if (autonuma_) {
      SampleAutoNuma(vt, region, page_idx, my_node, page_node, write);
    }

    if (costs_.model_caches) {
      caches_.Llc(my_node).Insert(line);
      caches_.Private(core).Insert(line);
    }
  }
}

// Batched engine behind Access/AccessSpan. Bit-identical to running
// AccessScalar once per stride-sized element over [addr, addr+bytes); every
// shortcut below is justified by an invariant that holds for the whole
// (synchronous, event-free) span:
//  - charges: runs of identical charges collapse to one multiplication
//    (VThread::ChargeRepeated);
//  - TLB: a probed-or-inserted translation cannot be evicted mid-span
//    except by our own walk inserts (which replace the memo) or a shootdown
//    (which bumps trans_gen_), so later elements on the same page are hits;
//  - private cache: the most recently processed line is resident by
//    construction (every path ends with it probed or inserted);
//  - pages: SimOS::Touch is idempotent once a page is resident and bound,
//    and every 4K member of a huge run is resident by construction, so one
//    Touch per memoized page window stands in for one per line;
//  - contention: a ResourceQueue's delay depends only on the previous
//    epoch's bytes, so it is constant for a fixed (src,dst) route within an
//    epoch, and same-epoch bookings commute (ResourceQueue::Book) — they
//    are flushed in one call per run before anything can roll the epoch;
//  - AutoNUMA: sampling can migrate the page under our feet, so when it is
//    enabled every DRAM line books contention for real and the page/TLB
//    memos are dropped whenever a sample bumps a generation counter.
void MemSystem::SpanFast(sim::VThread* vt, uint64_t addr, uint64_t bytes,
                         uint64_t stride, bool write) {
  // Reads and writes are charged identically (no WB model); `write` only
  // matters to placement (replica routing + read/write sampling).
  const uint64_t rel0 = os_->ToSimAddr(addr);
  const uint64_t slab = addr - rel0;
  const int core = machine_->CoreOfHwThread(vt->hw_thread);
  const int my_node = machine_->NodeOfHwThread(vt->hw_thread);
  Tlb& tlb = tlbs_[static_cast<size_t>(core)];

  // Within-span memos (all conservatively droppable; dropping one only
  // falls back to the exact slow operation it elides).
  uint64_t trans_snap = trans_gen_;
  uint64_t os_snap = os_->mutation_generation();
  // Translation known present in this core's TLB for rel in [tlb_lo, tlb_hi).
  bool tlb_valid = false;
  uint64_t tlb_lo = 0, tlb_hi = 0;
  // Line most recently processed — resident in the private cache.
  bool line_valid = false;
  uint64_t memo_line = 0;
  // Resolved page window (host addresses): one 4K page or one 2M huge run.
  bool page_valid = false;
  uint64_t page_lo = 0, page_hi = 0;
  Region* page_region = nullptr;
  int page_node = 0;
  uint64_t page_busy = 0;
  // DRAM charge memo for (dram_node, dram_epoch): queueing delay and the
  // per-line charge, plus deferred same-epoch bookings.
  bool dram_valid = false;
  int dram_node = -1;
  uint64_t dram_epoch = 0;
  uint64_t dram_delay = 0;
  uint64_t line_cycles = 0;
  uint64_t pending_bytes = 0;
  uint64_t pending_now = 0;

  auto flush_pending = [&]() {
    if (pending_bytes != 0) {
      contention_.Book(*machine_, my_node, dram_node, pending_now,
                       pending_bytes);
      pending_bytes = 0;
    }
  };

  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t esz = std::min(stride, bytes - off);
    const uint64_t erel = rel0 + off;
    const uint64_t eaddr = addr + off;

    // Bulk path: whole elements inside the known-resident line, with the
    // translation known present. Each such element costs exactly
    // Charge(base) + tlb hit + Charge(private_hit) on the scalar path.
    if (costs_.model_caches && line_valid && erel / kCacheLineBytes == memo_line &&
        (!costs_.model_tlb ||
         (tlb_valid && erel >= tlb_lo && erel < tlb_hi))) {
      const uint64_t line_end = (memo_line + 1) * kCacheLineBytes;
      if (erel + esz <= line_end) {
        uint64_t n = 1;
        if (esz == stride) {
          uint64_t by_line = (line_end - erel) / stride;
          uint64_t by_span = (bytes - off) / stride;
          n = std::max<uint64_t>(1, std::min(by_line, by_span));
        }
        vt->counters.mem_accesses += n;
        if (costs_.model_tlb) vt->counters.tlb_hits += n;
        vt->counters.private_hits += n;
        vt->ChargeRepeated(kBaseAccessCycles, n);
        vt->ChargeRepeated(kPrivateHitCycles, n);
        off += n * stride;
        continue;
      }
    }

    ++vt->counters.mem_accesses;
    vt->Charge(kBaseAccessCycles);

    if (costs_.model_tlb) {
      if (tlb_valid && erel >= tlb_lo && erel < tlb_hi) {
        ++vt->counters.tlb_hits;  // probe elided: entry provably present
      } else if (tlb.Lookup(erel)) {
        ++vt->counters.tlb_hits;
        // Whatever entry hit covers at least the 4K page around erel.
        tlb_lo = erel & ~(kSmallPageBytes - 1);
        tlb_hi = tlb_lo + kSmallPageBytes;
        tlb_valid = true;
      } else {
        ++vt->counters.tlb_misses;
        vt->Charge(kPageWalkCycles);
        auto [r, pidx] = os_->Lookup(eaddr);
        os_->Touch(r, pidx, my_node);
        tlb.Insert(erel, r->pages[pidx].huge);
        tlb_lo = erel & ~(kSmallPageBytes - 1);
        tlb_hi = tlb_lo + kSmallPageBytes;
        tlb_valid = true;
      }
    }

    const uint64_t first_line = erel / kCacheLineBytes;
    const uint64_t last_line = (erel + esz - 1) / kCacheLineBytes;
    for (uint64_t line = first_line; line <= last_line; ++line) {
      if (costs_.model_caches) {
        if (line_valid && line == memo_line) {
          ++vt->counters.private_hits;
          vt->Charge(kPrivateHitCycles);
          continue;
        }
        TagArray& priv = caches_.Private(core);
        if (priv.Probe(line)) {
          ++vt->counters.private_hits;
          vt->Charge(kPrivateHitCycles);
          line_valid = true;
          memo_line = line;
          continue;
        }
        TagArray& llc = caches_.Llc(my_node);
        if (llc.Probe(line)) {
          ++vt->counters.llc_hits;
          vt->Charge(kLlcHitCycles);
          priv.Insert(line);
          line_valid = true;
          memo_line = line;
          continue;
        }
      }

      // DRAM access.
      uint64_t line_host = line * kCacheLineBytes + slab;
      uint64_t probe_addr = line_host >= eaddr ? line_host : eaddr;
      Region* r;
      size_t pidx = 0;
      int pnode;
      uint64_t busy;
      if (page_valid && probe_addr >= page_lo && probe_addr < page_hi) {
        r = page_region;
        pnode = page_node;
        busy = page_busy;
        if (autonuma_ || placement_) pidx = r->PageIndex(probe_addr);
      } else {
        std::tie(r, pidx) = os_->Lookup(probe_addr);
        pnode = os_->Touch(r, pidx, my_node);
        bool huge = r->pages[pidx].huge;
        size_t eff = huge ? r->HugeHead(pidx) : pidx;
        busy = r->pages[eff].migrating_until;
        page_region = r;
        page_lo = r->base + eff * kSmallPageBytes;
        page_hi = page_lo + (huge ? kHugePageBytes : kSmallPageBytes);
        page_node = pnode;  // memo keeps the home node; routing is per line
        page_busy = busy;
        page_valid = true;
      }
      if (placement_) {
        pnode = RouteReplica(vt, r, pidx, my_node, pnode, write);
      }

      // Stall behind an in-flight kernel copy (migration / THP collapse).
      if (busy > vt->clock) {
        vt->Charge(std::min<uint64_t>(busy - vt->clock, 20000));
      }

      ++vt->counters.llc_misses;
      if (pnode == my_node) {
        ++vt->counters.local_dram;
      } else {
        ++vt->counters.remote_dram;
      }

      const uint64_t now = vt->clock;
      const uint64_t epoch = now / ResourceQueue::kEpochCycles;
      if (!dram_valid || pnode != dram_node || epoch != dram_epoch) {
        flush_pending();  // books at pending_now, still inside its epoch
        uint64_t delay = 0;
        if (costs_.model_contention) {
          delay = contention_.Charge(*machine_, my_node, pnode, now,
                                     kCacheLineBytes, kMaxQueueDelayCycles);
        }
        uint64_t lat = DramLatency(my_node, pnode);
        dram_delay = delay;
        line_cycles = lat + delay;
        dram_node = pnode;
        dram_epoch = epoch;
        dram_valid = true;
      } else if (costs_.model_contention) {
        if (autonuma_ || placement_) {
          // Sampling (and replica shootdown charges) may roll the epoch
          // mid-line, so never defer bookings while either is on.
          contention_.Book(*machine_, my_node, pnode, now, kCacheLineBytes);
        } else {
          pending_bytes += kCacheLineBytes;
          pending_now = now;
        }
      }
      if (costs_.model_contention) {
        vt->counters.queue_delay_cycles += dram_delay;
      }
      vt->Charge(line_cycles);

      if (autonuma_) {
        SampleAutoNuma(vt, r, pidx, my_node, pnode, write);
        if (trans_gen_ != trans_snap ||
            os_->mutation_generation() != os_snap) {
          // The sample migrated a page / shot down TLBs: every cached
          // translation is suspect.
          trans_snap = trans_gen_;
          os_snap = os_->mutation_generation();
          tlb_valid = false;
          page_valid = false;
          dram_valid = false;
        }
      }

      if (costs_.model_caches) {
        caches_.Llc(my_node).Insert(line);
        caches_.Private(core).Insert(line);
        line_valid = true;
        memo_line = line;
      }
    }

    off += stride;
  }
  flush_pending();
}

void MemSystem::AccessSpan(sim::VThread* vt, const void* addr, uint64_t bytes,
                           uint64_t stride, bool write) {
  if (bytes == 0) return;
  if (stride == 0 || stride > bytes) stride = bytes;
  if (race_ != nullptr) {
    // A span's elements tile [addr, addr + bytes) exactly, so one range
    // check covers every element of the batched loop.
    race_->OnAccess(vt->id, os_->ToSimAddr(reinterpret_cast<uint64_t>(addr)),
                    bytes, write, vt->clock);
  }
  // A single access of under three lines (the per-record common case) is
  // cheaper through the scalar path: the batched engine's memo setup only
  // pays for itself once a span covers several cache lines. Both paths
  // charge identically (see span_parity_test), so this is purely a
  // host-speed dispatch. The single-element case is a tail call, not one
  // trip of the loop below: every Access lands here.
  uint64_t base = reinterpret_cast<uint64_t>(addr);
  uint64_t lines =
      (base + bytes - 1) / kCacheLineBytes - base / kCacheLineBytes;
  if (stride == bytes && (scalar_reference_ || lines < 3)) {
    AccessScalar(vt, addr, bytes, write);
    return;
  }
  if (scalar_reference_) {
    for (uint64_t off = 0; off < bytes; off += stride) {
      AccessScalar(vt, reinterpret_cast<const void*>(base + off),
                   std::min(stride, bytes - off), write);
    }
    return;
  }
  SpanFast(vt, base, bytes, stride, write);
}

}  // namespace mem
}  // namespace numalab

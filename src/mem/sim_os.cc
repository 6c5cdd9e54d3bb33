#include "src/mem/sim_os.h"

#include <sys/mman.h>

#include <algorithm>

namespace numalab {
namespace mem {

SimOS::SimOS(const topology::Machine* machine, sim::Engine* engine,
             ContentionModel* contention, perf::SystemCounters* sys)
    : machine_(machine),
      engine_(engine),
      contention_(contention),
      sys_(sys),
      slot_region_(kSlabBytes / kSlotBytes, nullptr),
      node_bound_bytes_(static_cast<size_t>(machine->num_nodes()), 0),
      node_cap_(static_cast<size_t>(machine->num_nodes()),
                machine->node_memory_bytes()),
      node_replica_bytes_(static_cast<size_t>(machine->num_nodes()), 0),
      replica_stack_(static_cast<size_t>(machine->num_nodes())) {
  sys_->capacity_bytes_total =
      static_cast<uint64_t>(machine->num_nodes()) *
      machine->node_memory_bytes();
  void* p = mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  NUMALAB_CHECK(p != MAP_FAILED);
  slab_ = reinterpret_cast<uint64_t>(p);

  // Linux zonelist per node: all nodes sorted by interconnect distance,
  // nearest first, ties broken by node id (stable sort over the id order).
  zonelist_.resize(static_cast<size_t>(machine->num_nodes()));
  for (int n = 0; n < machine->num_nodes(); ++n) {
    auto& zl = zonelist_[static_cast<size_t>(n)];
    for (int m = 0; m < machine->num_nodes(); ++m) zl.push_back(m);
    std::stable_sort(zl.begin(), zl.end(), [&](int a, int b) {
      return machine->Hops(n, a) < machine->Hops(n, b);
    });
  }
}

void SimOS::SetFaultLab(faultlab::FaultLab* faults) {
  faults_ = faults;
  sys_->capacity_bytes_total = 0;
  for (int n = 0; n < machine_->num_nodes(); ++n) {
    node_cap_[static_cast<size_t>(n)] =
        faults != nullptr
            ? faults->NodeCapacityBytes(n, machine_->node_memory_bytes())
            : machine_->node_memory_bytes();
    sys_->capacity_bytes_total += node_cap_[static_cast<size_t>(n)];
  }
}

SimOS::~SimOS() {
  for (auto& [base, region] : regions_) delete region;
  munmap(reinterpret_cast<void*>(slab_), kSlabBytes);
}

Region* SimOS::TryMap(uint64_t bytes, bool thp_eligible) {
  uint64_t len = (bytes + kSmallPageBytes - 1) & ~(kSmallPageBytes - 1);
  uint64_t nslots = (len + kSlotBytes - 1) / kSlotBytes;

  uint64_t slot;
  auto it = free_slots_.find(nslots);
  if (it != free_slots_.end() && !it->second.empty()) {
    slot = it->second.back();
    it->second.pop_back();
  } else {
    if ((bump_slot_ + nslots) * kSlotBytes > kSlabBytes) {
      return nullptr;  // address space exhausted; caller decides severity
    }
    slot = bump_slot_;
    bump_slot_ += nslots;
  }

  auto* region = new Region();
  region->base = slab_ + slot * kSlotBytes;
  region->len = len;
  region->host = reinterpret_cast<char*>(region->base);
  region->thp_eligible = thp_eligible;
  region->pages.assign(len / kSmallPageBytes, PageRec{});
  for (uint64_t s = slot; s < slot + nslots; ++s) {
    slot_region_[s] = region;
  }

  // Interleave / LocalAlloc / Preferred bind eagerly; FirstTouch binds at
  // fault time (Touch).
  if (policy_ != MemPolicy::kFirstTouch) {
    int local = 0;
    if (engine_->current() != nullptr) {
      local = machine_->NodeOfHwThread(engine_->current()->hw_thread);
    }
    for (auto& p : region->pages) {
      p.node = static_cast<int16_t>(BindWithSpill(ChooseBindNode(local)));
      node_bound_bytes_[static_cast<size_t>(p.node)] += kSmallPageBytes;
    }
  }

  regions_[region->base] = region;
  sys_->pages_mapped += region->pages.size();
  sys_->bytes_mapped += len;
  sys_->bytes_mapped_peak =
      std::max(sys_->bytes_mapped_peak, sys_->bytes_mapped);
  return region;
}

void SimOS::Unmap(Region* region) {
  ++mutation_gen_;
  for (size_t i = 0; i < region->pages.size(); ++i) {
    DropResident(region, i);
    if (region->pages[i].replica_mask != 0) DropPageReplicas(region, i);
  }
  for (auto& p : region->pages) {
    if (p.node >= 0) {
      node_bound_bytes_[static_cast<size_t>(p.node)] -= kSmallPageBytes;
    }
  }
  sys_->bytes_mapped -= region->len;
  regions_.erase(region->base);

  uint64_t slot = (region->base - slab_) / kSlotBytes;
  uint64_t nslots = (region->len + kSlotBytes - 1) / kSlotBytes;
  for (uint64_t s = slot; s < slot + nslots; ++s) slot_region_[s] = nullptr;
  free_slots_[nslots].push_back(slot);

  // Return the host pages so long simulations do not accumulate RSS.
  madvise(region->host, region->len, MADV_DONTNEED);
  delete region;
}

void SimOS::MadviseDontNeed(Region* region, uint64_t offset, uint64_t len,
                            uint64_t now) {
  ++mutation_gen_;
  uint64_t first = (offset + kSmallPageBytes - 1) / kSmallPageBytes;
  uint64_t last = (offset + len) / kSmallPageBytes;  // exclusive
  for (uint64_t i = first; i < last && i < region->pages.size(); ++i) {
    PageRec& p = region->pages[i];
    if (p.huge) SplitHuge(region, region->HugeHead(i), now);
    if (p.replica_mask != 0) DropPageReplicas(region, i);
    DropResident(region, i);
    if (p.node >= 0) {
      node_bound_bytes_[static_cast<size_t>(p.node)] -= kSmallPageBytes;
      p.node = -1;
    }
    for (auto& v : p.visits) v = 0;
    p.reads = 0;
    p.writes = 0;
    p.heat = 0;
  }
}

std::pair<Region*, size_t> SimOS::Lookup(uint64_t addr) const {
  NUMALAB_CHECK(addr >= slab_ && addr < slab_ + kSlabBytes);
  Region* r = slot_region_[(addr - slab_) / kSlotBytes];
  NUMALAB_CHECK(r != nullptr && addr >= r->base && addr < r->end());
  return {r, r->PageIndex(addr)};
}

int SimOS::ChooseBindNode(int accessor_node) {
  switch (policy_) {
    case MemPolicy::kFirstTouch:
    case MemPolicy::kLocalAlloc:
      return accessor_node;
    case MemPolicy::kInterleave: {
      // Kernel interleave rotates over the *allowed* nodemask: offline
      // nodes are not candidates. Rotating over all nodes (the old
      // behaviour) made every Nth allocation target an offline node only
      // for the spill walk to reroute it, skewing placement and inflating
      // offline_redirects. Bit-identical when faultlab is off (the loop
      // below never runs); all-offline falls through to BindWithSpill.
      const int nn = machine_->num_nodes();
      int n = interleave_cursor_;
      interleave_cursor_ = (interleave_cursor_ + 1) % nn;
      if (faults_ != nullptr) {
        uint64_t now = 0;
        if (sim::VThread* vt = engine_->current()) now = vt->clock;
        for (int tries = 1; tries < nn && !faults_->NodeOnline(n, now);
             ++tries) {
          n = interleave_cursor_;
          interleave_cursor_ = (interleave_cursor_ + 1) % nn;
        }
      }
      return n;
    }
    case MemPolicy::kPreferred:
      // Exhaustion of the preferred node is handled by BindWithSpill's
      // zonelist walk, matching the kernel's MPOL_PREFERRED fallback.
      return preferred_node_;
  }
  return accessor_node;
}

int SimOS::BindWithSpill(int desired, uint64_t bytes) {
  uint64_t now = 0;
  if (sim::VThread* vt = engine_->current()) now = vt->clock;
  bool desired_online =
      faults_ == nullptr || faults_->NodeOnline(desired, now);
  if (desired_online && EnsureRoom(desired, bytes)) return desired;

  // Walk the desired node's zonelist (nearest-distance order) for an
  // online node with room — the kernel's fallback allocation order.
  // Replicas on a candidate node are reclaimed before declaring it full:
  // real pages must never spill while droppable copies hold the space.
  for (int n : zonelist_[static_cast<size_t>(desired)]) {
    if (n == desired) continue;
    if (faults_ != nullptr && !faults_->NodeOnline(n, now)) continue;
    if (!EnsureRoom(n, bytes)) continue;
    if (desired_online) {
      ++sys_->pages_spilled;
    } else {
      ++sys_->offline_redirects;
    }
    return n;
  }

  if (desired_online) {
    // Every zone full: bind anyway ("too small to fail" OOM semantics) on
    // the desired node, so the simulation degrades instead of dying.
    ++sys_->oom_last_resort_pages;
    return desired;
  }
  // Desired node offline and every online node full: overcommit the
  // nearest online node. This is a redirect off an offline node, not an
  // OOM bind on `desired` (the old code counted it as the latter).
  for (int n : zonelist_[static_cast<size_t>(desired)]) {
    if (n != desired && faults_->NodeOnline(n, now)) {
      ++sys_->offline_redirects;
      return n;
    }
  }
  // Every node in the machine is offline. There is nothing sane to bind
  // to; record the degradation (the old code silently returned the
  // offline node) and keep the desired binding so the run can limp on.
  ++sys_->all_offline_binds;
  return desired;
}

bool SimOS::EnsureRoom(int node, uint64_t bytes) {
  if (NodeHasRoom(node, bytes)) return true;
  auto& stack = replica_stack_[static_cast<size_t>(node)];
  while (!NodeHasRoom(node, bytes) && !stack.empty()) {
    auto [base, idx] = stack.back();
    stack.pop_back();
    // Validate lazily: the region may have been unmapped (possibly with
    // its slots reused by a fresh region, whose pages start replica-free)
    // or the replica already invalidated; stale entries are skipped.
    auto it = regions_.find(base);
    if (it == regions_.end()) continue;
    Region* r = it->second;
    if (idx >= r->pages.size()) continue;
    if (!((r->pages[idx].replica_mask >> node) & 1)) continue;
    DropReplica(r, idx, node);
  }
  return NodeHasRoom(node, bytes);
}

bool SimOS::AddReplica(Region* region, size_t idx, int node) {
  PageRec& p = region->pages[idx];
  if (p.huge || !p.resident || p.node < 0) return false;
  if (p.node == node || ((p.replica_mask >> node) & 1)) return false;
  uint64_t now = 0;
  if (sim::VThread* vt = engine_->current()) now = vt->clock;
  if (faults_ != nullptr && !faults_->NodeOnline(node, now)) return false;
  // Replicas are strictly opportunistic: they fill free capacity and are
  // never allowed to displace (spill) real pages.
  if (!NodeHasRoom(node, kSmallPageBytes)) return false;
  p.replica_mask |= static_cast<uint8_t>(1u << node);
  node_bound_bytes_[static_cast<size_t>(node)] += kSmallPageBytes;
  node_replica_bytes_[static_cast<size_t>(node)] += kSmallPageBytes;
  replica_bytes_total_ += kSmallPageBytes;
  replica_stack_[static_cast<size_t>(node)].push_back(
      {region->base, static_cast<uint32_t>(idx)});
  ++sys_->pages_replicated;
  sys_->replica_bytes_peak =
      std::max(sys_->replica_bytes_peak, replica_bytes_total_);
  // Kernel copy traffic: read the home copy, write the new one.
  contention_->Inject(p.node, now, kSmallPageBytes);
  contention_->Inject(node, now, kSmallPageBytes);
  return true;
}

void SimOS::DropReplica(Region* region, size_t idx, int node) {
  PageRec& p = region->pages[idx];
  p.replica_mask &= static_cast<uint8_t>(~(1u << node));
  node_bound_bytes_[static_cast<size_t>(node)] -= kSmallPageBytes;
  node_replica_bytes_[static_cast<size_t>(node)] -= kSmallPageBytes;
  replica_bytes_total_ -= kSmallPageBytes;
  ++sys_->replica_drops;
}

void SimOS::DropPageReplicas(Region* region, size_t idx) {
  uint8_t mask = region->pages[idx].replica_mask;
  while (mask != 0) {
    int node = __builtin_ctz(mask);
    mask &= static_cast<uint8_t>(mask - 1);
    DropReplica(region, idx, node);
  }
}

void SimOS::AddResident(Region* region, size_t idx) {
  PageRec& p = region->pages[idx];
  if (!p.resident) {
    p.resident = 1;
    resident_bytes_ += kSmallPageBytes;
    resident_peak_ = std::max(resident_peak_, resident_bytes_);
  }
}

void SimOS::DropResident(Region* region, size_t idx) {
  PageRec& p = region->pages[idx];
  if (p.resident) {
    p.resident = 0;
    resident_bytes_ -= kSmallPageBytes;
  }
}

int SimOS::TouchSlow(Region* region, size_t idx, int accessor_node) {
  PageRec& p = region->pages[idx];

  // THP fault path: first touch of a fully untouched 2M-aligned run faults
  // in one huge page — all 512 subpages, bound together, resident at once.
  if (thp_fault_alloc_ && !p.huge && !p.resident && p.node < 0 &&
      region->thp_eligible) {
    size_t head_idx = region->HugeHead(idx);
    uint64_t head_addr = region->base + head_idx * kSmallPageBytes;
    if ((head_addr & (kHugePageBytes - 1)) == 0 &&
        head_idx + kSmallPagesPerHuge <= region->pages.size()) {
      bool pristine = true;
      for (int i = 0; i < kSmallPagesPerHuge; ++i) {
        const PageRec& q = region->pages[head_idx + static_cast<size_t>(i)];
        if (q.resident || q.node >= 0 || q.huge) {
          pristine = false;
          break;
        }
      }
      if (pristine) {
        int node = BindWithSpill(ChooseBindNode(accessor_node),
                                 kHugePageBytes);
        // Bind and charge every subpage, matching the representation of a
        // khugepaged-collapsed run, so capacity enforcement sees the full
        // 2M (not a head-only 4K undercount).
        for (int i = 0; i < kSmallPagesPerHuge; ++i) {
          PageRec& q = region->pages[head_idx + static_cast<size_t>(i)];
          q.huge = 1;
          q.node = static_cast<int16_t>(node);
          node_bound_bytes_[static_cast<size_t>(node)] += kSmallPageBytes;
          AddResident(region, head_idx + static_cast<size_t>(i));
        }
        ++sys_->thp_collapses;
        return node;
      }
    }
  }

  size_t eff = p.huge ? region->HugeHead(idx) : idx;
  PageRec& head = region->pages[eff];
  if (head.node < 0) {
    head.node =
        static_cast<int16_t>(BindWithSpill(ChooseBindNode(accessor_node)));
    node_bound_bytes_[static_cast<size_t>(head.node)] += kSmallPageBytes;
  }
  AddResident(region, idx);
  return head.node;
}

void SimOS::MigratePage(Region* region, size_t idx, int to_node,
                        uint64_t now) {
  size_t eff = region->pages[idx].huge ? region->HugeHead(idx) : idx;
  PageRec& head = region->pages[eff];
  if (head.node == to_node) return;
  if (faults_ != nullptr) {
    // An offline node takes no new pages, and migrate_pages can fail on
    // pinned/busy pages — both leave the page where it is (counted by the
    // draw); the kernel retries via later hinting faults.
    if (!faults_->NodeOnline(to_node, now)) {
      ++sys_->migration_failures_injected;
      return;
    }
    if (faults_->DrawMigrationFailure()) return;
  }
  // The moving copy supersedes any replicas; readers re-replicate at the
  // new home if the page stays read-hot.
  if (head.replica_mask != 0) DropPageReplicas(region, eff);
  ++mutation_gen_;
  uint64_t bytes = head.huge ? kHugePageBytes : kSmallPageBytes;
  if (head.node >= 0) {
    node_bound_bytes_[static_cast<size_t>(head.node)] -= kSmallPageBytes;
    contention_->Inject(head.node, now, bytes);
  }
  node_bound_bytes_[static_cast<size_t>(to_node)] += kSmallPageBytes;
  contention_->Inject(to_node, now, bytes);
  head.node = static_cast<int16_t>(to_node);
  uint64_t copy = static_cast<uint64_t>(
      static_cast<double>(bytes) / machine_->mem_ctrl_bytes_per_cycle());
  head.migrating_until =
      now + kPageMigrationCycles + std::min<uint64_t>(copy, 150000);
  for (auto& v : head.visits) v = 0;
  ++sys_->page_migrations;
}

bool SimOS::TryCollapseHuge(Region* region, size_t head_idx, uint64_t now) {
  if (head_idx + kSmallPagesPerHuge > region->pages.size()) return false;
  uint64_t head_addr = region->base + head_idx * kSmallPageBytes;
  if ((head_addr & (kHugePageBytes - 1)) != 0) return false;
  PageRec& head = region->pages[head_idx];
  if (head.huge) return false;
  int node = head.node;
  if (node < 0) return false;
  for (int i = 0; i < kSmallPagesPerHuge; ++i) {
    const PageRec& p = region->pages[head_idx + static_cast<size_t>(i)];
    if (!p.resident || p.huge || p.node != node) return false;
    // Replicated members pin the run as 4K pages: collapsing would fold a
    // hot replicated page into a huge run whose head cannot carry the
    // per-4K replica state (and a 2M replica per node is not modelled).
    if (p.replica_mask != 0) return false;
  }
  ++mutation_gen_;
  for (int i = 0; i < kSmallPagesPerHuge; ++i) {
    region->pages[head_idx + static_cast<size_t>(i)].huge = 1;
  }
  contention_->Inject(node, now, kHugePageBytes);
  head.migrating_until = now + kThpCollapseCycles;
  ++sys_->thp_collapses;
  return true;
}

void SimOS::SplitHuge(Region* region, size_t head_idx, uint64_t now) {
  PageRec& head = region->pages[head_idx];
  NUMALAB_CHECK(head.huge);
  ++mutation_gen_;
  for (int i = 0; i < kSmallPagesPerHuge; ++i) {
    PageRec& p = region->pages[head_idx + static_cast<size_t>(i)];
    p.huge = 0;
    if (i > 0 && p.node != head.node) {
      // Members inherit the run's placement; account pages that were only
      // represented by the head while the run was huge.
      if (p.node >= 0) {
        node_bound_bytes_[static_cast<size_t>(p.node)] -= kSmallPageBytes;
      }
      p.node = head.node;
      node_bound_bytes_[static_cast<size_t>(head.node)] += kSmallPageBytes;
    }
  }
  head.migrating_until =
      std::max(head.migrating_until, now + kThpSplitCycles);
  ++sys_->thp_splits;
}

}  // namespace mem
}  // namespace numalab

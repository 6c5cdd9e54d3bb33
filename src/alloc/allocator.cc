#include "src/alloc/allocator.h"

#include "src/faultlab/faultlab.h"

namespace numalab {
namespace alloc {

namespace {
// Direct-reclaim stall charged per infallible-Alloc retry of an injected
// failure (the kernel's "too small to fail" loop is not free).
constexpr uint64_t kReclaimStallCycles = 5000;
constexpr int kMaxAllocRetries = 64;
}  // namespace

void* SimAllocator::TryAlloc(size_t n) {
  if (n == 0) n = 1;
  sim::VThread* vt = env_.engine->current();
  uint64_t before = vt != nullptr ? vt->clock : 0;

  void* p;
  if (vt != nullptr && env_.faults != nullptr &&
      env_.faults->DrawAllocFailure()) {
    // Injected ENOMEM. Setup allocations (vt == nullptr) are exempt so a
    // plan cannot fail dataset construction before the run starts.
    p = nullptr;
  } else if (n > SizeClasses::kMaxSmall) {
    p = AllocLarge(n);
  } else {
    int cls = SizeClasses::ClassFor(n);
    p = AllocSmall(cls);
    if (p != nullptr) stats_.OnAlloc(SizeClasses::ClassSize(cls));
  }

  if (vt != nullptr) {
    ++vt->counters.alloc_calls;
    vt->counters.alloc_cycles += vt->clock - before;
  }
  return p;
}

void* SimAllocator::Alloc(size_t n) {
  void* p = TryAlloc(n);
  for (int i = 0; p == nullptr && i < kMaxAllocRetries; ++i) {
    env_.Charge(kReclaimStallCycles);
    p = TryAlloc(n);
  }
  NUMALAB_CHECK(p != nullptr &&
                "infallible allocation failed after bounded retries");
  return p;
}

void SimAllocator::Free(void* p) {
  if (p == nullptr) return;
  sim::VThread* vt = env_.engine->current();
  uint64_t before = vt != nullptr ? vt->clock : 0;

  ObjHeader* hdr = HeaderOf(p);
  if (hdr->cls == ObjHeader::kLargeClass) {
    FreeLarge(p);
  } else {
    stats_.OnFree(SizeClasses::ClassSize(hdr->cls));
    FreeSmall(p, hdr->cls);
  }

  if (vt != nullptr) {
    ++vt->counters.free_calls;
    vt->counters.alloc_cycles += vt->clock - before;
  }
}

namespace {
constexpr uint64_t kLargeGranule = 64ULL << 10;
constexpr uint64_t kLargeCacheHitCycles = 320;
constexpr uint64_t kLargeCachePutCycles = 240;

uint64_t LargeKey(size_t payload) {
  return (payload + sizeof(ObjHeader) + kLargeGranule - 1) &
         ~(kLargeGranule - 1);
}
}  // namespace

void* SimAllocator::AllocLarge(size_t n) {
  uint64_t key = LargeKey(n);
  mem::Region* region = nullptr;
  if (large_policy() != LargePolicy::kMmapEveryTime) {
    auto it = large_cache_.find(key);
    if (it != large_cache_.end() && !it->second.empty()) {
      region = it->second.back();
      it->second.pop_back();
      env_.Charge(kLargeCacheHitCycles);
    }
  }
  if (region == nullptr) {
    region = env_.os->TryMap(key);
    if (region == nullptr) return nullptr;
    env_.Charge(mem::kSyscallCycles);
  }
  auto* hdr = reinterpret_cast<ObjHeader*>(region->host);
  hdr->cls = ObjHeader::kLargeClass;
  hdr->owner = 0;
  hdr->chunk = nullptr;
  void* payload = region->host + sizeof(ObjHeader);
  large_[payload] = LargeObj{region, n};
  stats_.OnAlloc(n);
  return payload;
}

void SimAllocator::FreeLarge(void* p) {
  auto it = large_.find(p);
  NUMALAB_CHECK(it != large_.end());
  stats_.OnFree(it->second.size);
  mem::Region* region = it->second.region;
  switch (large_policy()) {
    case LargePolicy::kMmapEveryTime: {
      env_.os->Unmap(region);
      // munmap sends TLB-shootdown IPIs to every core running a thread of
      // the process — the hidden cost of the glibc large-block slow path.
      uint64_t ipis = static_cast<uint64_t>(env_.engine->live_threads());
      env_.Charge(mem::kSyscallCycles + 1200 * ipis);
      break;
    }
    case LargePolicy::kCachePurged:
      // Keep the mapping, return the pages (decay/scavenge behaviour).
      env_.os->MadviseDontNeed(region, 0, region->len, env_.Now());
      env_.Charge(mem::kSyscallCycles);
      large_cache_[region->len].push_back(region);
      break;
    case LargePolicy::kCache:
      env_.Charge(kLargeCachePutCycles);
      large_cache_[region->len].push_back(region);
      break;
  }
  large_.erase(it);
}

}  // namespace alloc
}  // namespace numalab

// Shared-global concurrent chaining hash table, used by the aggregation
// workloads (W1/W2, after the design of [14]/[35]) and the hash join (W3,
// after Blanas et al. [15]).
//
// Chaining with striped locks: writers serialize per stripe via analytical
// VirtualLocks; reads during a probe-only phase are lock-free. All node
// memory comes from the run's simulated allocator, and every pointer chase
// is charged through Env — the table is the workloads' main source of both
// allocation pressure and NUMA traffic.
//
// Lock contract (machine-checked): every mutation happens between
// Env::Lock(&stripe, hold) and Env::LockReleased(&stripe) on the stripe
// owning the bucket. Those calls carry clang thread-safety annotations
// (src/common/thread_annotations.h), so an unbalanced path — say an early
// return that forgets the release — fails -Werror=thread-safety in
// check.sh stage 8, and the same pair feeds the dynamic race detector its
// happens-before edge. Find()/ForEachInBuckets() are lock-free BY DESIGN:
// they are only legal in probe/merge phases that a barrier separates from
// all writers (the race detector checks that phase discipline dynamically;
// no static annotation expresses it).

#ifndef NUMALAB_INDEX_HASH_TABLE_H_
#define NUMALAB_INDEX_HASH_TABLE_H_

#include <cstdint>
#include <new>

#include "src/sim/sync.h"
#include "src/workloads/env.h"

namespace numalab {
namespace index {

inline uint64_t HashKey(uint64_t key) {
  // Fibonacci multiplicative hash; cheap and good enough for dense keys.
  return key * 0x9e3779b97f4a7c15ULL;
}

template <typename V>
class ConcurrentHashTable {
 public:
  struct Entry {
    uint64_t key;
    Entry* next;
    V value;
  };

  /// Creates the shared table. `env_setup` may be a worker Env or a setup
  /// Env outside any coroutine; the bucket array is one large allocation,
  /// so the memory placement policy governs where it lands.
  ConcurrentHashTable(workloads::Env& env, uint64_t nbuckets)
      : env0_(env), nbuckets_(RoundUpPow2(nbuckets)), mask_(nbuckets_ - 1) {
    buckets_ = static_cast<Entry**>(
        env.alloc->Alloc(nbuckets_ * sizeof(Entry*)));
    for (uint64_t i = 0; i < nbuckets_; ++i) buckets_[i] = nullptr;
    // Zeroing the bucket array is its first touch: under First Touch the
    // whole array lands on the constructing thread's node — the classic
    // shared-structure pathology the paper's Interleave results exploit.
    workloads::PretouchAsNode(env.mem, buckets_,
                              nbuckets_ * sizeof(Entry*), /*node=*/0);
  }

  uint64_t nbuckets() const { return nbuckets_; }

  /// Finds the entry for `key`, creating it (with value = V{}) if absent,
  /// then runs `mutate(entry)` before the stripe lock is conceptually
  /// released. Callers that modify the entry's value MUST do it inside
  /// `mutate`: the value update is only ordered against other threads'
  /// upserts of the same key while the stripe is held, and the race
  /// detector checks exactly that contract. Thread-safe via striped locks;
  /// charges all traffic to env's thread.
  ///
  /// Returns nullptr (without running `mutate`) when creating the entry
  /// fails under a faultlab plan — env.Failed() is then set and workers
  /// should wind down (but still arrive at shared barriers).
  template <typename F>
  Entry* UpsertWith(workloads::Env& env, uint64_t key, F&& mutate) {
    env.Compute(kHashCycles);
    uint64_t b = HashKey(key) & mask_;
    sim::VirtualLock& stripe = stripes_[b & kStripeMask];
    env.Lock(&stripe, kLockHoldCycles);

    env.Read(&buckets_[b], sizeof(Entry*));
    Entry* e = buckets_[b];
    while (e != nullptr) {
      env.Read(e, sizeof(uint64_t) + sizeof(Entry*));
      if (e->key == key) break;
      e = e->next;
    }
    if (e == nullptr) {
      void* raw = env.TryAlloc(sizeof(Entry));
      if (raw == nullptr) {
        env.LockReleased(&stripe);
        return nullptr;
      }
      e = static_cast<Entry*>(raw);
      new (e) Entry{key, buckets_[b], V{}};
      buckets_[b] = e;
      env.Write(e, sizeof(Entry));
      env.Write(&buckets_[b], sizeof(Entry*));
    }
    mutate(e);
    env.LockReleased(&stripe);
    return e;
  }

  /// UpsertWith without a value mutation (chain insert only).
  Entry* Upsert(workloads::Env& env, uint64_t key) {
    return UpsertWith(env, key, [](Entry*) {});
  }

  /// UpsertWith storing `v` — the shared build-table idiom (last writer of
  /// a duplicate key wins, under the stripe lock).
  Entry* UpsertSet(workloads::Env& env, uint64_t key, V v) {
    return UpsertWith(env, key, [&](Entry* e) { e->value = v; });
  }

  /// Lock-free lookup for probe-only phases. Returns nullptr when absent.
  Entry* Find(workloads::Env& env, uint64_t key) const {
    env.Compute(kHashCycles);
    uint64_t b = HashKey(key) & mask_;
    env.Read(&buckets_[b], sizeof(Entry*));
    Entry* e = buckets_[b];
    while (e != nullptr) {
      env.Read(e, sizeof(uint64_t) + sizeof(Entry*));
      if (e->key == key) return e;
      e = e->next;
    }
    return nullptr;
  }

  /// Visits entries of buckets [first, last) — used to partition the final
  /// aggregation pass among workers. Charges the chain walk.
  template <typename F>
  void ForEachInBuckets(workloads::Env& env, uint64_t first, uint64_t last,
                        F&& fn) {
    for (uint64_t b = first; b < last && b < nbuckets_; ++b) {
      env.Read(&buckets_[b], sizeof(Entry*));
      for (Entry* e = buckets_[b]; e != nullptr; e = e->next) {
        env.Read(e, sizeof(Entry));
        fn(e);
      }
    }
  }

 private:
  static constexpr uint64_t kHashCycles = 6;
  static constexpr uint64_t kLockHoldCycles = 40;
  static constexpr uint64_t kStripeMask = 2047;  // 2048 stripes

  static uint64_t RoundUpPow2(uint64_t v) {
    uint64_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  workloads::Env& env0_;
  uint64_t nbuckets_;
  uint64_t mask_;
  Entry** buckets_;
  sim::VirtualLock stripes_[2048];
};

}  // namespace index
}  // namespace numalab

#endif  // NUMALAB_INDEX_HASH_TABLE_H_

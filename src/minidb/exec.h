// Morsel-driven parallel execution primitives for minidb.
//
// A query is a sequence of *phases* separated by barriers. Each phase is
// striped across the workers and processed in fixed-size morsels; the
// worker coroutine yields at every morsel boundary so virtual-thread clocks
// stay in lockstep and the NUMA contention model sees honest overlap.
//
// Five "system profiles" (SystemProfile) make one engine behave like the
// five architecturally divergent DBMSs of the paper's W5 experiment: they
// control intra-query parallelism, per-tuple interpretation overhead (the
// cost that models vectorized versus tuple-at-a-time execution), operator
// scratch allocation, and whether the tuned OS configuration keeps THP on
// (the paper leaves THP enabled for DBMSx).

#ifndef NUMALAB_MINIDB_EXEC_H_
#define NUMALAB_MINIDB_EXEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/workloads/env.h"

namespace numalab {
namespace minidb {

struct SystemProfile {
  std::string name;
  /// Paper analogue, for documentation/reporting only.
  std::string models;
  uint64_t per_tuple_cycles = 4;  ///< interpretation overhead per row
  uint64_t scratch_per_row = 8;   ///< operator scratch bytes per visited row
  bool thp_stays_on = false;      ///< tuned config keeps THP enabled
  int parallel_kind = 0;  ///< 0=all threads, 1=limited+rigid, 2=single

  /// Worker threads used for `query` on a machine with `hw` threads.
  int WorkersFor(int query, int hw) const;
};

/// The five profiles, in the paper's order: columnar-vectorized (MonetDB),
/// row multiprocess (PostgreSQL), row single-stream (MySQL), hybrid
/// parallel (DBMSx), hybrid vectorized (Quickstep).
const std::vector<SystemProfile>& AllProfiles();
const SystemProfile& ProfileByName(const std::string& name);

/// \brief Worker-side execution context.
struct QCtx {
  workloads::Env* env = nullptr;
  const SystemProfile* prof = nullptr;
};

/// \brief One barrier-delimited phase. `rows == 0` means a serial phase:
/// the body runs once on worker 0 with (0, 0).
struct Phase {
  uint64_t rows = 0;
  std::function<void(QCtx&, uint64_t, uint64_t)> body;
};

/// \brief A full query: its phases, in execution order.
struct QueryPlan {
  std::vector<Phase> phases;
};

inline constexpr uint64_t kMorselRows = 512;

/// Charges a sequential batch read of rows [lo, hi) for each listed column
/// (8-byte fixed width) plus the profile's per-tuple interpretation cost.
/// Row-oriented profiles pay a much higher per-tuple constant; the page
/// touches (and hence NUMA placement effects) are identical.
void ChargeScan(QCtx& q, std::initializer_list<const void*> cols,
                uint64_t lo, uint64_t hi);

/// Charges the profile's operator scratch allocation for `rows` rows
/// (allocate + free one morsel-sized block through the simulated
/// allocator).
void ChargeScratch(QCtx& q, uint64_t rows);

/// Charges a sort of n rows of `width` bytes (n log n compares plus one
/// read+write pass over the buffer). The buffer is host-side staging, so
/// the pass is modelled as compute without touching the page table.
void ChargeSort(QCtx& q, uint64_t n, uint64_t width);

/// \brief Open-addressing hash aggregation table in simulated memory.
/// Per-worker (unsynchronized); merge locals in a serial phase.
template <typename V>
class LocalAgg {
 public:
  LocalAgg() = default;
  ~LocalAgg() { /* slots freed with the run's allocator teardown */ }

  void Init(workloads::Env& env, uint64_t capacity_hint) {
    cap_ = 64;
    while (cap_ < capacity_hint * 2) cap_ <<= 1;
    mask_ = cap_ - 1;
    slots_ = static_cast<Slot*>(env.Alloc(cap_ * sizeof(Slot)));
    for (uint64_t i = 0; i < cap_; ++i) slots_[i].used = 0;
    env.Write(slots_, cap_ * sizeof(Slot));
  }

  bool initialized() const { return slots_ != nullptr; }
  uint64_t size() const { return size_; }

  /// Finds or creates the slot for `key`; charges the probe sequence.
  V* Upsert(workloads::Env& env, uint64_t key) {
    if (size_ * 10 >= cap_ * 7) Grow(env);
    uint64_t i = Hash(key) & mask_;
    for (;;) {
      env.Read(&slots_[i], sizeof(Slot));
      if (!slots_[i].used) {
        slots_[i].used = 1;
        slots_[i].key = key;
        slots_[i].v = V{};
        env.Write(&slots_[i], sizeof(Slot));
        ++size_;
        return &slots_[i].v;
      }
      if (slots_[i].key == key) return &slots_[i].v;
      i = (i + 1) & mask_;
    }
  }

  /// Lookup without insert; nullptr when absent. Charged.
  V* Find(workloads::Env& env, uint64_t key) {
    if (slots_ == nullptr) return nullptr;
    uint64_t i = Hash(key) & mask_;
    for (;;) {
      env.Read(&slots_[i], sizeof(Slot));
      if (!slots_[i].used) return nullptr;
      if (slots_[i].key == key) return &slots_[i].v;
      i = (i + 1) & mask_;
    }
  }

  /// Visits all entries (charged scan).
  template <typename F>
  void ForEach(workloads::Env& env, F&& fn) {
    if (slots_ == nullptr) return;
    env.Read(slots_, cap_ * sizeof(Slot));
    for (uint64_t i = 0; i < cap_; ++i) {
      if (slots_[i].used) fn(slots_[i].key, &slots_[i].v);
    }
  }

 private:
  struct Slot {
    uint64_t key;
    uint8_t used;
    V v;
  };

  static uint64_t Hash(uint64_t k) { return k * 0x9e3779b97f4a7c15ULL; }

  void Grow(workloads::Env& env) {
    Slot* old = slots_;
    uint64_t old_cap = cap_;
    cap_ <<= 1;
    mask_ = cap_ - 1;
    slots_ = static_cast<Slot*>(env.Alloc(cap_ * sizeof(Slot)));
    for (uint64_t i = 0; i < cap_; ++i) slots_[i].used = 0;
    env.Read(old, old_cap * sizeof(Slot));
    env.Write(slots_, cap_ * sizeof(Slot));
    for (uint64_t i = 0; i < old_cap; ++i) {
      if (!old[i].used) continue;
      uint64_t j = Hash(old[i].key) & mask_;
      while (slots_[j].used) j = (j + 1) & mask_;
      slots_[j] = old[i];
    }
    env.Free(old);
  }

  Slot* slots_ = nullptr;
  uint64_t cap_ = 0, mask_ = 0, size_ = 0;
};

}  // namespace minidb
}  // namespace numalab

#endif  // NUMALAB_MINIDB_EXEC_H_

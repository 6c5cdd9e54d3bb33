// Per-core TLB model.
//
// One direct-mapped tag array per page size (4K and 2M), sized to the
// machine's combined L1+L2 TLB capacity from Table II. Direct-mapped lookup
// keeps the simulator's per-access host cost tiny while still capturing the
// property the paper's THP experiments hinge on: TLB *reach* (entries ×
// page size) versus working-set size.

#ifndef NUMALAB_MEM_TLB_H_
#define NUMALAB_MEM_TLB_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/mem/caches.h"
#include "src/mem/cost_model.h"
#include "src/topology/machine.h"

namespace numalab {
namespace mem {

class Tlb {
 public:
  explicit Tlb(const topology::Machine& m)
      : tags_4k_(Entries(m.tlb_4k())),
        tags_2m_(Entries(m.tlb_2m())),
        has_2m_(m.tlb_2m().l1_entries + m.tlb_2m().l2_entries > 0) {}

  /// Probes both structures; true on hit. The 2M probe is skipped while
  /// no 2M entry was inserted since the last Flush: an array of empty
  /// slots cannot hit, so the answer is the same (the common case with
  /// THP off, where nothing is huge).
  bool Lookup(uint64_t addr) const {
    if (any_2m_ && tags_2m_.Probe(addr / kHugePageBytes)) return true;
    return tags_4k_.Probe(addr / kSmallPageBytes);
  }

  /// Installs the translation after a page walk.
  void Insert(uint64_t addr, bool huge) {
    if (huge && has_2m_) {
      tags_2m_.Insert(addr / kHugePageBytes);
      any_2m_ = true;
    } else {
      tags_4k_.Insert(addr / kSmallPageBytes);
    }
  }

  /// Drops the translation covering `addr` (page migration / THP remap).
  void Invalidate(uint64_t addr) {
    tags_2m_.Invalidate(addr / kHugePageBytes);
    tags_4k_.Invalidate(addr / kSmallPageBytes);
  }

  /// Full flush (thread migrated onto this core, or unmap shootdown).
  void Flush() {
    tags_4k_.Flush();
    tags_2m_.Flush();
    any_2m_ = false;
  }

 private:
  static size_t Entries(const topology::TlbSpec& t) {
    return static_cast<size_t>(std::max(t.l1_entries + t.l2_entries, 1));
  }

  TagArray tags_4k_;  // tags are virtual page numbers
  TagArray tags_2m_;
  bool has_2m_;
  /// A 2M entry may be present: set by a 2M Insert, cleared by Flush.
  /// Invalidate leaves it set, which only costs a probe that misses.
  bool any_2m_ = false;
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_TLB_H_

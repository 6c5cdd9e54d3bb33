// Cache hierarchy model: a private cache per physical core plus a shared
// last-level cache per NUMA node, both as direct-mapped line tag arrays.
//
// Tags-only modelling is deliberate: the simulator charges time, it does not
// move data, so only hit/miss decisions are needed. Direct-mapped arrays
// under-estimate hit rates slightly versus real set-associative caches but
// preserve the effects the paper measures — working-set fit, cold caches
// after thread migration, and LLC capacity differences between machines.

#ifndef NUMALAB_MEM_CACHES_H_
#define NUMALAB_MEM_CACHES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/mem/cost_model.h"
#include "src/mem/fastmod.h"
#include "src/topology/machine.h"

namespace numalab {
namespace mem {

/// \brief A direct-mapped tag array: the private caches, the LLCs and both
/// TLB levels are each one. `tag` is a line or page number.
class TagArray {
 public:
  explicit TagArray(size_t entries) {
    tags_.assign(std::max<size_t>(entries, 1), kEmpty);
    mod_ = FastMod32(static_cast<uint32_t>(tags_.size()));
  }

  bool Probe(uint64_t tag) const { return tags_[Slot(tag)] == tag; }

  void Insert(uint64_t tag) { tags_[Slot(tag)] = tag; }

  /// Drops `tag` if present.
  void Invalidate(uint64_t tag) {
    size_t s = Slot(tag);
    if (tags_[s] == tag) tags_[s] = kEmpty;
  }

  void Flush() { std::fill(tags_.begin(), tags_.end(), kEmpty); }

 private:
  static constexpr uint64_t kEmpty = ~0ULL;
  size_t Slot(uint64_t tag) const {
    // Fibonacci hash spreads sequential tags across the array; the hash
    // fits 32 bits, so FastMod32 gives the same slot as `% size` would.
    return mod_.Mod((tag * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  std::vector<uint64_t> tags_;
  FastMod32 mod_;
};

/// \brief All caches of one machine: index by core for the private level and
/// by node for the LLC.
class CacheModel {
 public:
  explicit CacheModel(const topology::Machine& m) {
    for (int c = 0; c < m.num_cores(); ++c) {
      private_.emplace_back(m.private_cache_bytes() / kCacheLineBytes);
    }
    for (int n = 0; n < m.num_nodes(); ++n) {
      llc_.emplace_back(m.llc_bytes_per_node() / kCacheLineBytes);
    }
  }

  TagArray& Private(int core) { return private_[static_cast<size_t>(core)]; }
  TagArray& Llc(int node) { return llc_[static_cast<size_t>(node)]; }

 private:
  std::vector<TagArray> private_;
  std::vector<TagArray> llc_;
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_CACHES_H_

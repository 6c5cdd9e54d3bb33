// OrderedIndex — common interface for the four in-memory indexes evaluated
// by the index nested-loop join workload (W4, Fig. 7): ART, Masstree,
// B+tree and Skip List. All node memory comes from the run's simulated
// allocator and every node visit is charged through Env, so index
// performance responds to the allocator and placement knobs exactly as the
// paper investigates.

#ifndef NUMALAB_INDEX_INDEX_H_
#define NUMALAB_INDEX_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/workloads/env.h"

namespace numalab {
namespace index {

class OrderedIndex {
 public:
  virtual ~OrderedIndex() = default;

  /// Inserts or overwrites key -> value.
  virtual void Insert(workloads::Env& env, uint64_t key, uint64_t value) = 0;

  /// Point lookup; returns false when the key is absent.
  virtual bool Lookup(workloads::Env& env, uint64_t key,
                      uint64_t* value) = 0;
};

/// Creates "art", "masstree", "btree" or "skiplist"; CHECK-fails otherwise.
/// `seed` feeds randomized structures (Skip List levels).
std::unique_ptr<OrderedIndex> MakeIndex(const std::string& name,
                                        uint64_t seed);

}  // namespace index
}  // namespace numalab

#endif  // NUMALAB_INDEX_INDEX_H_

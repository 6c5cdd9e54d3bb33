// Internal factories for the concrete allocator models. Users go through
// MakeAllocator (allocator.h).

#ifndef NUMALAB_ALLOC_IMPLS_H_
#define NUMALAB_ALLOC_IMPLS_H_

#include <memory>
#include <vector>

#include "src/alloc/allocator.h"

namespace numalab {
namespace alloc {

std::unique_ptr<SimAllocator> MakePtMalloc(AllocEnv env);
std::unique_ptr<SimAllocator> MakeJeMalloc(AllocEnv env);
std::unique_ptr<SimAllocator> MakeTcMalloc(AllocEnv env);
std::unique_ptr<SimAllocator> MakeHoard(AllocEnv env);
std::unique_ptr<SimAllocator> MakeTbbMalloc(AllocEnv env);
std::unique_ptr<SimAllocator> MakeSuperMalloc(AllocEnv env);
std::unique_ptr<SimAllocator> MakeMcMalloc(AllocEnv env);

/// Grows `v` on demand and returns the per-thread slot for `tid`.
template <typename T>
T& PerTid(std::vector<std::unique_ptr<T>>* v, int tid) {
  if (static_cast<size_t>(tid) >= v->size()) {
    v->resize(static_cast<size_t>(tid) + 1);
  }
  auto& slot = (*v)[static_cast<size_t>(tid)];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

}  // namespace alloc
}  // namespace numalab

#endif  // NUMALAB_ALLOC_IMPLS_H_

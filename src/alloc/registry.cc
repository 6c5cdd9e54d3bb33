#include "src/alloc/allocator.h"
#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

struct Model {
  const char* name;
  std::unique_ptr<SimAllocator> (*make)(AllocEnv env);
};

// The seven models, in the paper's order.
constexpr Model kModels[] = {
    {"ptmalloc", MakePtMalloc},   {"jemalloc", MakeJeMalloc},
    {"tcmalloc", MakeTcMalloc},   {"hoard", MakeHoard},
    {"tbbmalloc", MakeTbbMalloc}, {"supermalloc", MakeSuperMalloc},
    {"mcmalloc", MakeMcMalloc}};

}  // namespace

const std::vector<std::string>& AllAllocatorNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Model& m : kModels) names.emplace_back(m.name);
    return names;
  }();
  return kNames;
}

std::unique_ptr<SimAllocator> MakeAllocator(const std::string& name,
                                            AllocEnv env) {
  for (const Model& m : kModels) {
    if (name == m.name) return m.make(env);
  }
  NUMALAB_CHECK(false && "unknown allocator name");
  return nullptr;
}

}  // namespace alloc
}  // namespace numalab

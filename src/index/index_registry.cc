#include "src/common/logging.h"
#include "src/index/index.h"

namespace numalab {
namespace index {

std::unique_ptr<OrderedIndex> MakeArt();
std::unique_ptr<OrderedIndex> MakeBTree();
std::unique_ptr<OrderedIndex> MakeSkipList(uint64_t seed);
std::unique_ptr<OrderedIndex> MakeMasstree();

std::unique_ptr<OrderedIndex> MakeIndex(const std::string& name,
                                        uint64_t seed) {
  if (name == "art") return MakeArt();
  if (name == "masstree") return MakeMasstree();
  if (name == "btree") return MakeBTree();
  if (name == "skiplist") return MakeSkipList(seed);
  NUMALAB_CHECK(false && "unknown index name");
  return nullptr;
}

}  // namespace index
}  // namespace numalab

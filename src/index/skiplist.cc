// Canonical Skip List [19].
//
// Geometric tower heights (p = 1/2, max 20 levels) from the run's seed, so
// the structure is deterministic per run. Tall pointer chains make lookups
// latency-bound rather than allocator-bound — the paper finds the Skip List
// is the one index that runs best with plain ptmalloc (Fig. 7d).

#include "src/common/rng.h"
#include "src/index/index.h"

namespace numalab {
namespace index {
namespace {

constexpr int kMaxLevel = 20;

struct SkipNode {
  uint64_t key;
  uint64_t value;
  int level;
  SkipNode* next[1];  // flexible: `level` pointers allocated
};

size_t NodeBytes(int level) {
  return sizeof(SkipNode) + sizeof(SkipNode*) * static_cast<size_t>(level - 1);
}

class SkipList : public OrderedIndex {
 public:
  explicit SkipList(uint64_t seed) : rng_(seed) {}

  void Insert(workloads::Env& env, uint64_t key, uint64_t value) override {
    if (head_ == nullptr) {
      head_ = NewNode(env, 0, 0, kMaxLevel);
    }
    SkipNode* update[kMaxLevel];
    SkipNode* candidate = Descend(env, key, update);
    if (candidate != nullptr && candidate->key == key) {
      candidate->value = value;
      env.Write(&candidate->value, sizeof(uint64_t));
      return;
    }

    int lvl = RandomLevel();
    if (lvl > level_) {
      for (int i = level_; i < lvl; ++i) update[i] = head_;
      level_ = lvl;
    }
    SkipNode* n = NewNode(env, key, value, lvl);
    for (int i = 0; i < lvl; ++i) {
      n->next[i] = update[i]->next[i];
      update[i]->next[i] = n;
      env.Write(&update[i]->next[i], sizeof(SkipNode*));
    }
    env.Write(n, NodeBytes(lvl));
  }

  bool Lookup(workloads::Env& env, uint64_t key, uint64_t* value) override {
    if (head_ == nullptr) return false;
    SkipNode* update[kMaxLevel];
    SkipNode* c = Descend(env, key, update);
    if (c == nullptr || c->key != key) return false;
    *value = c->value;
    return true;
  }

 private:
  SkipNode* NewNode(workloads::Env& env, uint64_t key, uint64_t value,
                    int level) {
    auto* n = static_cast<SkipNode*>(env.Alloc(NodeBytes(level)));
    n->key = key;
    n->value = value;
    n->level = level;
    for (int i = 0; i < level; ++i) n->next[i] = nullptr;
    return n;
  }

  // Walks the towers from the head down, reading every node it steps on.
  // Sets update[lvl] to the last node before `key` on each level and
  // returns (and reads) the first node at or after `key`, or null.
  SkipNode* Descend(workloads::Env& env, uint64_t key, SkipNode** update) {
    SkipNode* x = head_;
    env.Read(x, sizeof(SkipNode));
    for (int lvl = level_ - 1; lvl >= 0; --lvl) {
      while (x->next[lvl] != nullptr && x->next[lvl]->key < key) {
        x = x->next[lvl];
        env.Read(x, sizeof(SkipNode));
      }
      update[lvl] = x;
    }
    SkipNode* candidate = x->next[0];
    if (candidate != nullptr) env.Read(candidate, sizeof(SkipNode));
    return candidate;
  }

  int RandomLevel() {
    int lvl = 1;
    while (lvl < kMaxLevel && rng_.Bernoulli(0.5)) ++lvl;
    return lvl;
  }

  Rng rng_;
  SkipNode* head_ = nullptr;
  int level_ = 1;
};

}  // namespace

std::unique_ptr<OrderedIndex> MakeSkipList(uint64_t seed) {
  return std::make_unique<SkipList>(seed);
}

}  // namespace index
}  // namespace numalab

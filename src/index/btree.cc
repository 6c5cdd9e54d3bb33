// Cache-optimized in-memory B+tree (after STX B+tree [18]).
//
// Inner and leaf nodes hold up to 32 sorted keys (two cache lines of keys),
// all allocated from the simulated allocator as two uniform size classes —
// the "many keys per node" profile the paper finds favorable for Hoard
// (Fig. 7c).

#include <algorithm>
#include <cstring>

#include "src/index/index.h"

namespace numalab {
namespace index {
namespace {

constexpr int kFanout = 32;  // max keys per node

struct NodeB {
  bool leaf;
  int count;
  uint64_t keys[kFanout];
};

struct InnerNode {
  NodeB head;
  NodeB* children[kFanout + 1];
};

struct LeafNode {
  NodeB head;
  uint64_t values[kFanout];
  LeafNode* next;  // leaf chain for scans
};

class BTree : public OrderedIndex {
 public:
  void Insert(workloads::Env& env, uint64_t key, uint64_t value) override {
    if (root_ == nullptr) {
      auto* leaf = NewLeaf(env);
      leaf->head.keys[0] = key;
      leaf->values[0] = value;
      leaf->head.count = 1;
      env.Write(leaf, sizeof(LeafNode));
      root_ = &leaf->head;
      return;
    }
    uint64_t up_key = 0;
    NodeB* sibling = InsertRec(env, root_, key, value, &up_key);
    if (sibling != nullptr) {
      auto* new_root = NewInner(env);
      new_root->head.keys[0] = up_key;
      new_root->head.count = 1;
      new_root->children[0] = root_;
      new_root->children[1] = sibling;
      env.Write(new_root, sizeof(InnerNode));
      root_ = &new_root->head;
    }
  }

  bool Lookup(workloads::Env& env, uint64_t key, uint64_t* value) override {
    NodeB* n = root_;
    if (n == nullptr) return false;
    while (!n->leaf) {
      auto* inner = reinterpret_cast<InnerNode*>(n);
      n = inner->children[ChildPos(env, inner, key)];
    }
    auto* leaf = reinterpret_cast<LeafNode*>(n);
    int i = KeyPos(env, n, key);
    if (i < n->count && n->keys[i] == key) {
      env.Read(&leaf->values[i], sizeof(uint64_t));
      *value = leaf->values[i];
      return true;
    }
    return false;
  }

 private:
  NodeB* root_ = nullptr;

  LeafNode* NewLeaf(workloads::Env& env) {
    auto* leaf = static_cast<LeafNode*>(env.Alloc(sizeof(LeafNode)));
    leaf->head.leaf = true;
    leaf->head.count = 0;
    leaf->next = nullptr;
    return leaf;
  }
  InnerNode* NewInner(workloads::Env& env) {
    auto* inner = static_cast<InnerNode*>(env.Alloc(sizeof(InnerNode)));
    inner->head.leaf = false;
    inner->head.count = 0;
    return inner;
  }

  // A node's binary search touches ~2 cache lines of keys.
  static void ChargeSearch(workloads::Env& env, const NodeB* n) {
    env.ReadSpan(n->keys, sizeof(uint64_t) * static_cast<size_t>(n->count));
    env.Compute(12);
  }

  // Leaf step: charges the search and returns the position of the first
  // key not less than `key`.
  static int KeyPos(workloads::Env& env, const NodeB* n, uint64_t key) {
    ChargeSearch(env, n);
    return static_cast<int>(
        std::lower_bound(n->keys, n->keys + n->count, key) - n->keys);
  }

  // Inner step: charges the search, then reads and returns the slot of the
  // child whose range holds `key`.
  static int ChildPos(workloads::Env& env, InnerNode* inner, uint64_t key) {
    const NodeB* n = &inner->head;
    ChargeSearch(env, n);
    int i = static_cast<int>(
        std::upper_bound(n->keys, n->keys + n->count, key) - n->keys);
    env.Read(&inner->children[i], sizeof(NodeB*));
    return i;
  }

  // Inserts into the subtree at `n`; on split returns the new right sibling
  // and sets *up_key to the separator the parent must add.
  NodeB* InsertRec(workloads::Env& env, NodeB* n, uint64_t key,
                   uint64_t value, uint64_t* up_key) {
    if (n->leaf) {
      auto* leaf = reinterpret_cast<LeafNode*>(n);
      int i = KeyPos(env, n, key);
      if (i < n->count && n->keys[i] == key) {
        leaf->values[i] = value;
        env.Write(&leaf->values[i], sizeof(uint64_t));
        return nullptr;
      }
      // Shift and insert.
      std::memmove(&n->keys[i + 1], &n->keys[i],
                   sizeof(uint64_t) * static_cast<size_t>(n->count - i));
      std::memmove(&leaf->values[i + 1], &leaf->values[i],
                   sizeof(uint64_t) * static_cast<size_t>(n->count - i));
      n->keys[i] = key;
      leaf->values[i] = value;
      ++n->count;
      env.Write(&n->keys[i],
                sizeof(uint64_t) * static_cast<size_t>(n->count - i) * 2);
      if (n->count < kFanout) return nullptr;

      // Split the leaf in half.
      auto* right = NewLeaf(env);
      int half = n->count / 2;
      right->head.count = n->count - half;
      std::memcpy(right->head.keys, &n->keys[half],
                  sizeof(uint64_t) * static_cast<size_t>(right->head.count));
      std::memcpy(right->values, &leaf->values[half],
                  sizeof(uint64_t) * static_cast<size_t>(right->head.count));
      n->count = half;
      right->next = leaf->next;
      leaf->next = right;
      env.Write(right, sizeof(LeafNode));
      *up_key = right->head.keys[0];
      return &right->head;
    }

    auto* inner = reinterpret_cast<InnerNode*>(n);
    int i = ChildPos(env, inner, key);
    uint64_t child_up = 0;
    NodeB* sibling = InsertRec(env, inner->children[i], key, value,
                               &child_up);
    if (sibling == nullptr) return nullptr;

    // Insert the separator into this inner node.
    std::memmove(&n->keys[i + 1], &n->keys[i],
                 sizeof(uint64_t) * static_cast<size_t>(n->count - i));
    std::memmove(&inner->children[i + 2], &inner->children[i + 1],
                 sizeof(NodeB*) * static_cast<size_t>(n->count - i));
    n->keys[i] = child_up;
    inner->children[i + 1] = sibling;
    ++n->count;
    env.Write(&n->keys[i],
              sizeof(uint64_t) * static_cast<size_t>(n->count - i) * 2);
    if (n->count < kFanout) return nullptr;

    // Split this inner node: middle key moves up.
    auto* right = NewInner(env);
    int half = n->count / 2;
    *up_key = n->keys[half];
    right->head.count = n->count - half - 1;
    std::memcpy(right->head.keys, &n->keys[half + 1],
                sizeof(uint64_t) * static_cast<size_t>(right->head.count));
    std::memcpy(right->children, &inner->children[half + 1],
                sizeof(NodeB*) * static_cast<size_t>(right->head.count + 1));
    n->count = half;
    env.Write(right, sizeof(InnerNode));
    return &right->head;
  }
};

}  // namespace

std::unique_ptr<OrderedIndex> MakeBTree() { return std::make_unique<BTree>(); }

}  // namespace index
}  // namespace numalab

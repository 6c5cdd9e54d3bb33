// Masstree-style index (Mao et al. [17]), fixed 8-byte keys.
//
// Masstree is a trie of B+trees over 8-byte key slices; for the uint64 keys
// of W4 the trie has a single layer, so what remains — and what we model —
// is Masstree's distinctive node design: 15-key border/interior nodes with
// a permutation word (keys stay unsorted; the permutation encodes order)
// and optimistic version validation on every node visit. The narrow nodes
// and uniform size classes make it "group many keys per node" like the
// B+tree (Hoard-friendly, Fig. 7b), while version handshakes add a constant
// overhead per level that keeps it behind ART and B+tree overall.

#include <cstring>

#include "src/common/logging.h"
#include "src/index/index.h"

namespace numalab {
namespace index {
namespace {

constexpr int kWidth = 15;  // keys per node, as in Masstree

struct MtNode {
  bool border;
  uint32_t version;
  int count;
  uint8_t perm[kWidth];  // permutation: perm[i] = slot of i-th smallest key
  uint64_t keys[kWidth];
};

struct MtInterior {
  MtNode head;
  MtNode* children[kWidth + 1];
};

struct MtBorder {
  MtNode head;
  uint64_t values[kWidth];
  MtBorder* next;
};

// Per-visit version handshake (read version, fence, validate).
constexpr uint64_t kVersionCheckCycles = 9;

class Masstree : public OrderedIndex {
 public:
  void Insert(workloads::Env& env, uint64_t key, uint64_t value) override {
    if (root_ == nullptr) {
      auto* b = NewBorder(env);
      PutInBorder(env, b, 0, key, value);
      root_ = &b->head;
      return;
    }
    uint64_t up = 0;
    MtNode* sibling = InsertRec(env, root_, key, value, &up);
    if (sibling != nullptr) {
      auto* nr = NewInterior(env);
      nr->head.count = 1;
      nr->head.keys[0] = up;
      nr->head.perm[0] = 0;
      nr->children[0] = root_;
      nr->children[1] = sibling;
      env.Write(nr, sizeof(MtInterior));
      root_ = &nr->head;
    }
  }

  bool Lookup(workloads::Env& env, uint64_t key, uint64_t* value) override {
    MtNode* n = root_;
    if (n == nullptr) return false;
    while (!n->border) {
      auto* in = reinterpret_cast<MtInterior*>(n);
      env.Read(n, sizeof(MtNode));
      env.Compute(kVersionCheckCycles + 10);
      int i = ChildIndex(n, key);
      env.Read(&in->children[i], sizeof(MtNode*));
      n = in->children[i];
    }
    auto* b = reinterpret_cast<MtBorder*>(n);
    env.Read(n, sizeof(MtNode));
    env.Compute(kVersionCheckCycles + 10);
    int slot = FindSlot(n, key);
    if (slot < 0) return false;
    env.Read(&b->values[slot], sizeof(uint64_t));
    *value = b->values[slot];
    return true;
  }

 private:
  MtNode* root_ = nullptr;

  MtBorder* NewBorder(workloads::Env& env) {
    auto* b = static_cast<MtBorder*>(env.Alloc(sizeof(MtBorder)));
    b->head.border = true;
    b->head.version = 0;
    b->head.count = 0;
    b->next = nullptr;
    return b;
  }
  MtInterior* NewInterior(workloads::Env& env) {
    auto* in = static_cast<MtInterior*>(env.Alloc(sizeof(MtInterior)));
    in->head.border = false;
    in->head.version = 0;
    in->head.count = 0;
    return in;
  }

  // i-th smallest key in the (permuted) node.
  static uint64_t KeyAt(const MtNode* n, int i) {
    return n->keys[n->perm[i]];
  }

  // Index of the child to descend into (interior nodes).
  static int ChildIndex(const MtNode* n, uint64_t key) {
    int i = 0;
    while (i < n->count && key >= KeyAt(n, i)) ++i;
    return i;
  }

  // Physical slot holding `key` in a border node, or -1.
  static int FindSlot(const MtNode* n, uint64_t key) {
    for (int i = 0; i < n->count; ++i) {
      if (n->keys[n->perm[i]] == key) return n->perm[i];
    }
    return -1;
  }

  // Inserts key at ordered position `pos` in border node; physical slot is
  // append-only (Masstree never shifts keys, only the permutation).
  void PutInBorder(workloads::Env& env, MtBorder* b, int pos, uint64_t key,
                   uint64_t value) {
    MtNode* n = &b->head;
    int slot = n->count;
    n->keys[slot] = key;
    b->values[slot] = value;
    std::memmove(&n->perm[pos + 1], &n->perm[pos],
                 static_cast<size_t>(n->count - pos));
    n->perm[pos] = static_cast<uint8_t>(slot);
    ++n->count;
    ++n->version;
    env.Write(n, sizeof(MtNode));
    env.Write(&b->values[slot], sizeof(uint64_t));
  }

  MtNode* InsertRec(workloads::Env& env, MtNode* n, uint64_t key,
                    uint64_t value, uint64_t* up) {
    env.Read(n, sizeof(MtNode));
    env.Compute(kVersionCheckCycles + 12);

    if (n->border) {
      auto* b = reinterpret_cast<MtBorder*>(n);
      int slot = FindSlot(n, key);
      if (slot >= 0) {
        b->values[slot] = value;
        env.Write(&b->values[slot], sizeof(uint64_t));
        return nullptr;
      }
      int pos = 0;
      while (pos < n->count && KeyAt(n, pos) < key) ++pos;
      if (n->count < kWidth) {
        PutInBorder(env, b, pos, key, value);
        return nullptr;
      }
      // Split: move the upper half (by order) to a new border node.
      auto* right = NewBorder(env);
      int half = n->count / 2;
      MtBorder tmp = *b;  // host copy to re-pack from
      n->count = 0;
      for (int i = 0; i < kWidth; ++i) n->perm[i] = 0;
      MtNode* tn = &tmp.head;
      for (int i = 0; i < half; ++i) {
        n->keys[i] = tn->keys[tn->perm[i]];
        b->values[i] = tmp.values[tn->perm[i]];
        n->perm[i] = static_cast<uint8_t>(i);
      }
      n->count = half;
      for (int i = half; i < tn->count; ++i) {
        int j = i - half;
        right->head.keys[j] = tn->keys[tn->perm[i]];
        right->values[j] = tmp.values[tn->perm[i]];
        right->head.perm[j] = static_cast<uint8_t>(j);
      }
      right->head.count = tn->count - half;
      right->next = tmp.next;
      b->next = right;
      ++n->version;
      env.Write(n, sizeof(MtBorder));
      env.Write(right, sizeof(MtBorder));
      *up = right->head.keys[0];
      // Insert the pending key into the proper half.
      if (key < *up) {
        InsertRec(env, n, key, value, up);  // cannot split again
      } else {
        uint64_t dummy = 0;
        InsertRec(env, &right->head, key, value, &dummy);
      }
      *up = right->head.keys[right->head.perm[0]];
      return &right->head;
    }

    auto* in = reinterpret_cast<MtInterior*>(n);
    int ci = ChildIndex(n, key);
    env.Read(&in->children[ci], sizeof(MtNode*));
    uint64_t child_up = 0;
    MtNode* sibling = InsertRec(env, in->children[ci], key, value,
                                &child_up);
    if (sibling == nullptr) return nullptr;

    // Add separator child_up at ordered position ci.
    if (n->count < kWidth) {
      int slot = n->count;
      n->keys[slot] = child_up;
      std::memmove(&n->perm[ci + 1], &n->perm[ci],
                   static_cast<size_t>(n->count - ci));
      n->perm[ci] = static_cast<uint8_t>(slot);
      std::memmove(&in->children[ci + 2], &in->children[ci + 1],
                   sizeof(MtNode*) * static_cast<size_t>(n->count - ci));
      in->children[ci + 1] = sibling;
      ++n->count;
      ++n->version;
      env.Write(n, sizeof(MtNode));
      return nullptr;
    }

    // Interior split: repack sorted, middle key moves up.
    MtInterior tmp = *in;
    MtNode* tn = &tmp.head;
    uint64_t sorted_keys[kWidth + 1];
    MtNode* sorted_children[kWidth + 2];
    for (int i = 0; i < kWidth; ++i) {
      sorted_keys[i] = tn->keys[tn->perm[i]];
    }
    std::memcpy(sorted_children, tmp.children,
                sizeof(MtNode*) * (kWidth + 1));
    // Insert (child_up, sibling) at position ci in the sorted arrays.
    std::memmove(&sorted_keys[ci + 1], &sorted_keys[ci],
                 sizeof(uint64_t) * static_cast<size_t>(kWidth - ci));
    sorted_keys[ci] = child_up;
    std::memmove(&sorted_children[ci + 2], &sorted_children[ci + 1],
                 sizeof(MtNode*) * static_cast<size_t>(kWidth - ci));
    sorted_children[ci + 1] = sibling;

    int total = kWidth + 1;
    int half = total / 2;
    *up = sorted_keys[half];

    n->count = half;
    for (int i = 0; i < half; ++i) {
      n->keys[i] = sorted_keys[i];
      n->perm[i] = static_cast<uint8_t>(i);
    }
    std::memcpy(in->children, sorted_children,
                sizeof(MtNode*) * static_cast<size_t>(half + 1));
    ++n->version;

    auto* right = NewInterior(env);
    right->head.count = total - half - 1;
    for (int i = 0; i < right->head.count; ++i) {
      right->head.keys[i] = sorted_keys[half + 1 + i];
      right->head.perm[i] = static_cast<uint8_t>(i);
    }
    std::memcpy(right->children, &sorted_children[half + 1],
                sizeof(MtNode*) * static_cast<size_t>(right->head.count + 1));
    env.Write(n, sizeof(MtInterior));
    env.Write(right, sizeof(MtInterior));
    return &right->head;
  }
};

}  // namespace

std::unique_ptr<OrderedIndex> MakeMasstree() {
  return std::make_unique<Masstree>();
}

}  // namespace index
}  // namespace numalab

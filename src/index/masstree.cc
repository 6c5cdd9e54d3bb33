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
// Key search within a node, on the lookup and the insert path.
constexpr uint64_t kLookupSearchCycles = 10;
constexpr uint64_t kInsertSearchCycles = 12;

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
      n = in->children[ChildStep(env, in, key, kLookupSearchCycles)];
    }
    auto* b = reinterpret_cast<MtBorder*>(n);
    Visit(env, n, kLookupSearchCycles);
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

  // A node visit: read the header, validate the version, search the keys.
  static void Visit(workloads::Env& env, const MtNode* n,
                    uint64_t search_cycles) {
    env.Read(n, sizeof(MtNode));
    env.Compute(kVersionCheckCycles + search_cycles);
  }

  // Interior step: visits the node, then reads and returns the index of
  // the child to descend into.
  static int ChildStep(workloads::Env& env, MtInterior* in, uint64_t key,
                       uint64_t search_cycles) {
    const MtNode* n = &in->head;
    Visit(env, n, search_cycles);
    int i = 0;
    while (i < n->count && key >= KeyAt(n, i)) ++i;
    env.Read(&in->children[i], sizeof(MtNode*));
    return i;
  }

  // Physical slot holding `key` in a border node, or -1.
  static int FindSlot(const MtNode* n, uint64_t key) {
    for (int i = 0; i < n->count; ++i) {
      if (n->keys[n->perm[i]] == key) return n->perm[i];
    }
    return -1;
  }

  // Appends `key` at the next physical slot and splices that slot into the
  // permutation at ordered position `pos` (Masstree never shifts keys, only
  // the permutation); charges the header write and returns the slot.
  static int PermInsert(workloads::Env& env, MtNode* n, int pos,
                        uint64_t key) {
    int slot = n->count;
    n->keys[slot] = key;
    std::memmove(&n->perm[pos + 1], &n->perm[pos],
                 static_cast<size_t>(n->count - pos));
    n->perm[pos] = static_cast<uint8_t>(slot);
    ++n->count;
    ++n->version;
    env.Write(n, sizeof(MtNode));
    return slot;
  }

  // Refills `n` with sorted[0, count) in order, under the identity
  // permutation.
  static void Repack(MtNode* n, const uint64_t* sorted, int count) {
    for (int i = 0; i < count; ++i) {
      n->keys[i] = sorted[i];
      n->perm[i] = static_cast<uint8_t>(i);
    }
    n->count = count;
  }

  void PutInBorder(workloads::Env& env, MtBorder* b, int pos, uint64_t key,
                   uint64_t value) {
    int slot = PermInsert(env, &b->head, pos, key);
    b->values[slot] = value;
    env.Write(&b->values[slot], sizeof(uint64_t));
  }

  MtNode* InsertRec(workloads::Env& env, MtNode* n, uint64_t key,
                    uint64_t value, uint64_t* up) {
    if (n->border) {
      Visit(env, n, kInsertSearchCycles);
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
      uint64_t keys[kWidth];
      uint64_t values[kWidth];
      for (int i = 0; i < kWidth; ++i) {
        keys[i] = KeyAt(n, i);
        values[i] = b->values[n->perm[i]];
      }
      int half = kWidth / 2;
      Repack(n, keys, half);
      Repack(&right->head, keys + half, kWidth - half);
      std::memcpy(b->values, values, sizeof(values[0]) * half);
      std::memcpy(right->values, values + half,
                  sizeof(values[0]) * (kWidth - half));
      right->next = b->next;
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
      *up = KeyAt(&right->head, 0);
      return &right->head;
    }

    auto* in = reinterpret_cast<MtInterior*>(n);
    int ci = ChildStep(env, in, key, kInsertSearchCycles);
    uint64_t child_up = 0;
    MtNode* sibling = InsertRec(env, in->children[ci], key, value,
                                &child_up);
    if (sibling == nullptr) return nullptr;

    // Add separator child_up at ordered position ci.
    if (n->count < kWidth) {
      std::memmove(&in->children[ci + 2], &in->children[ci + 1],
                   sizeof(MtNode*) * static_cast<size_t>(n->count - ci));
      in->children[ci + 1] = sibling;
      PermInsert(env, n, ci, child_up);
      return nullptr;
    }

    // Interior split: repack sorted with (child_up, sibling) inserted at
    // position ci; the middle key moves up.
    uint64_t keys[kWidth + 1];
    MtNode* children[kWidth + 2];
    for (int i = 0; i < ci; ++i) keys[i] = KeyAt(n, i);
    keys[ci] = child_up;
    for (int i = ci; i < kWidth; ++i) keys[i + 1] = KeyAt(n, i);
    std::memcpy(children, in->children,
                sizeof(MtNode*) * static_cast<size_t>(ci + 1));
    children[ci + 1] = sibling;
    std::memcpy(&children[ci + 2], &in->children[ci + 1],
                sizeof(MtNode*) * static_cast<size_t>(kWidth - ci));

    int total = kWidth + 1;
    int half = total / 2;
    *up = keys[half];
    Repack(n, keys, half);
    std::memcpy(in->children, children,
                sizeof(MtNode*) * static_cast<size_t>(half + 1));
    ++n->version;

    auto* right = NewInterior(env);
    Repack(&right->head, keys + half + 1, total - half - 1);
    std::memcpy(right->children, &children[half + 1],
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

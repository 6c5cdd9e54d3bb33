// Adaptive Radix Tree (Leis et al. [16]).
//
// Radix tree over the 8 big-endian bytes of the key with the four classic
// adaptive node types (Node4/16/48/256) that grow on demand. The variety of
// node sizes is ART's signature allocator workload: it draws from many size
// classes, which is why the paper finds it most sensitive to the allocator
// choice (Fig. 7a).

#include <cstring>

#include "src/common/logging.h"
#include "src/index/index.h"

namespace numalab {
namespace index {
namespace {

enum NodeType : uint8_t { kNode4, kNode16, kNode48, kNode256, kLeaf };

struct Node {
  NodeType type;
  uint8_t num_children;
};

struct Leaf {
  Node head;  // type = kLeaf
  uint64_t key;
  uint64_t value;
};

struct Node4 {
  Node head;
  uint8_t keys[4];
  Node* children[4];
};

struct Node16 {
  Node head;
  uint8_t keys[16];
  Node* children[16];
};

struct Node48 {
  Node head;
  uint8_t child_index[256];  // 0 = empty, else index+1
  Node* children[48];
};

struct Node256 {
  Node head;
  Node* children[256];
};

uint8_t KeyByte(uint64_t key, int depth) {
  return static_cast<uint8_t>(key >> (56 - 8 * depth));
}

class Art : public OrderedIndex {
 public:
  void Insert(workloads::Env& env, uint64_t key, uint64_t value) override {
    InsertRec(env, &root_, key, value, 0);
  }

  bool Lookup(workloads::Env& env, uint64_t key, uint64_t* value) override {
    Node* n = root_;
    int depth = 0;
    while (n != nullptr) {
      if (n->type == kLeaf) {
        auto* leaf = reinterpret_cast<Leaf*>(n);
        env.Read(leaf, sizeof(Leaf));
        if (leaf->key != key) return false;
        *value = leaf->value;
        return true;
      }
      Node** slot = FindSlot(env, n, KeyByte(key, depth));
      n = slot != nullptr ? *slot : nullptr;
      ++depth;
    }
    return false;
  }

 private:
  Node* root_ = nullptr;

  Node* NewLeaf(workloads::Env& env, uint64_t key, uint64_t value) {
    auto* leaf = static_cast<Leaf*>(env.Alloc(sizeof(Leaf)));
    leaf->head = Node{kLeaf, 0};
    leaf->key = key;
    leaf->value = value;
    env.Write(leaf, sizeof(Leaf));
    return &leaf->head;
  }

  // The slot holding `byte`'s child, or null when there is none. Charges
  // the node-type-specific search: a Node4 is read whole, a Node16's keys
  // are compared in one SIMD step and a Node48 reads its index byte (both
  // then read the found child pointer), a Node256 reads the slot directly.
  Node** FindSlot(workloads::Env& env, Node* n, uint8_t byte) {
    switch (n->type) {
      case kNode4: {
        auto* n4 = reinterpret_cast<Node4*>(n);
        env.Read(n4, sizeof(Node4));
        for (int i = 0; i < n->num_children; ++i) {
          if (n4->keys[i] == byte) return &n4->children[i];
        }
        return nullptr;
      }
      case kNode16: {
        auto* n16 = reinterpret_cast<Node16*>(n);
        env.Read(n16, sizeof(Node) + sizeof(n16->keys));
        env.Compute(4);  // SIMD compare
        for (int i = 0; i < n->num_children; ++i) {
          if (n16->keys[i] == byte) {
            env.Read(&n16->children[i], sizeof(Node*));
            return &n16->children[i];
          }
        }
        return nullptr;
      }
      case kNode48: {
        auto* n48 = reinterpret_cast<Node48*>(n);
        env.Read(&n48->child_index[byte], 1);
        if (n48->child_index[byte] == 0) return nullptr;
        Node** slot = &n48->children[n48->child_index[byte] - 1];
        env.Read(slot, sizeof(Node*));
        return slot;
      }
      case kNode256: {
        auto* n256 = reinterpret_cast<Node256*>(n);
        env.Read(&n256->children[byte], sizeof(Node*));
        return n256->children[byte] != nullptr ? &n256->children[byte]
                                               : nullptr;
      }
      case kLeaf:
        break;
    }
    return nullptr;
  }

  // Adds a child, growing the node if full. Returns the (possibly new) node.
  Node* AddChild(workloads::Env& env, Node* n, uint8_t byte, Node* child) {
    switch (n->type) {
      case kNode4: {
        auto* n4 = reinterpret_cast<Node4*>(n);
        if (n->num_children < 4) {
          n4->keys[n->num_children] = byte;
          n4->children[n->num_children] = child;
          ++n->num_children;
          env.Write(n4, sizeof(Node4));
          return n;
        }
        auto* n16 = static_cast<Node16*>(env.Alloc(sizeof(Node16)));
        n16->head = Node{kNode16, 4};
        std::memcpy(n16->keys, n4->keys, 4);
        std::memcpy(n16->children, n4->children, 4 * sizeof(Node*));
        env.Write(n16, sizeof(Node16));
        env.Free(n4);
        return AddChild(env, &n16->head, byte, child);
      }
      case kNode16: {
        auto* n16 = reinterpret_cast<Node16*>(n);
        if (n->num_children < 16) {
          n16->keys[n->num_children] = byte;
          n16->children[n->num_children] = child;
          ++n->num_children;
          env.Write(&n16->keys[n->num_children - 1], 1 + sizeof(Node*));
          return n;
        }
        auto* n48 = static_cast<Node48*>(env.Alloc(sizeof(Node48)));
        n48->head = Node{kNode48, 16};
        std::memset(n48->child_index, 0, sizeof(n48->child_index));
        for (int i = 0; i < 16; ++i) {
          n48->child_index[n16->keys[i]] = static_cast<uint8_t>(i + 1);
          n48->children[i] = n16->children[i];
        }
        env.Write(n48, sizeof(Node48));
        env.Free(n16);
        return AddChild(env, &n48->head, byte, child);
      }
      case kNode48: {
        auto* n48 = reinterpret_cast<Node48*>(n);
        if (n->num_children < 48) {
          n48->children[n->num_children] = child;
          n48->child_index[byte] = static_cast<uint8_t>(n->num_children + 1);
          ++n->num_children;
          env.Write(&n48->child_index[byte], 1 + sizeof(Node*));
          return n;
        }
        auto* n256 = static_cast<Node256*>(env.Alloc(sizeof(Node256)));
        n256->head = Node{kNode256, 48};
        std::memset(n256->children, 0, sizeof(n256->children));
        for (int b = 0; b < 256; ++b) {
          if (n48->child_index[b] != 0) {
            n256->children[b] = n48->children[n48->child_index[b] - 1];
          }
        }
        env.Write(n256, sizeof(Node256));
        env.Free(n48);
        return AddChild(env, &n256->head, byte, child);
      }
      case kNode256: {
        auto* n256 = reinterpret_cast<Node256*>(n);
        n256->children[byte] = child;
        ++n->num_children;
        env.Write(&n256->children[byte], sizeof(Node*));
        return n;
      }
      case kLeaf:
        break;
    }
    NUMALAB_CHECK(false && "AddChild on a leaf");
    return nullptr;
  }

  void InsertRec(workloads::Env& env, Node** ref, uint64_t key,
                 uint64_t value, int depth) {
    if (*ref == nullptr) {
      *ref = NewLeaf(env, key, value);
      return;
    }
    Node* n = *ref;
    if (n->type == kLeaf) {
      auto* leaf = reinterpret_cast<Leaf*>(n);
      env.Read(leaf, sizeof(Leaf));
      if (leaf->key == key) {
        leaf->value = value;
        env.Write(&leaf->value, sizeof(uint64_t));
        return;
      }
      // Split: create inner nodes until the two keys diverge.
      auto* n4 = static_cast<Node4*>(env.Alloc(sizeof(Node4)));
      n4->head = Node{kNode4, 0};
      env.Write(n4, sizeof(Node4));
      uint8_t existing_byte = KeyByte(leaf->key, depth);
      uint8_t new_byte = KeyByte(key, depth);
      *ref = &n4->head;
      AddChild(env, &n4->head, existing_byte, n);
      if (existing_byte == new_byte) {
        // Keys still agree on this byte: the old leaf is now one level
        // down; recurse — the split happens where they diverge.
        InsertRec(env, &n4->children[0], key, value, depth + 1);
      } else {
        AddChild(env, &n4->head, new_byte, NewLeaf(env, key, value));
      }
      return;
    }

    uint8_t byte = KeyByte(key, depth);
    Node** slot = FindSlot(env, n, byte);
    if (slot == nullptr) {
      *ref = AddChild(env, n, byte, NewLeaf(env, key, value));
      return;
    }
    // Descend via the child slot so splits can replace it in place.
    InsertRec(env, slot, key, value, depth + 1);
  }
};

}  // namespace

std::unique_ptr<OrderedIndex> MakeArt() { return std::make_unique<Art>(); }

}  // namespace index
}  // namespace numalab

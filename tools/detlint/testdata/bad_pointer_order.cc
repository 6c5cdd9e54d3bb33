// Fixture: pointer-as-ordering-key patterns detlint must flag.
// NOT part of any build — scanned by detlint_test and detlint_rejects_*.

#include <cstdio>
#include <map>
#include <set>

namespace fixture {

struct Node {
  int id;
};

std::map<Node*, int> ranks;  // flagged: std::map keyed by pointer
std::set<const Node*> seen;  // flagged: std::set keyed by pointer

void PrintAddress(const Node* n) {
  std::printf("node at %p\n", static_cast<const void*>(n));  // flagged: %p
}

}  // namespace fixture

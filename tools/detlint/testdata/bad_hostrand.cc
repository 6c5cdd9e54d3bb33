// Fixture: host-entropy randomness patterns detlint must flag.
// NOT part of any build — scanned by detlint_test and check.sh stage 8.

#include <random>   // flagged: hazard header
#include <cstdlib>

namespace fixture {

int HostEntropy() {
  std::random_device rd;  // flagged: random_device
  std::mt19937 gen(rd()); // flagged: mt19937
  return static_cast<int>(gen());
}

int LibcRand() {
  srand(42);     // flagged: srand
  return rand(); // flagged: rand
}

}  // namespace fixture

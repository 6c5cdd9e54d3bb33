// Fixture: unseeded numalab::Rng construction detlint must flag.
// NOT part of any build (never compiled) — scanned by detlint_test and
// detlint_rejects_*, so the Rng here is a lexical stand-in for
// src/common/rng.h's.

#include <cstdint>

namespace numalab {

uint64_t DefaultStream() {
  Rng rng;  // flagged: default-constructed (same stream at every site)
  return rng.Next();
}

uint64_t BracedDefault() {
  auto rng = Rng{};  // flagged: braced default construction
  return rng.Next();
}

uint64_t Seeded(uint64_t seed) {
  Rng rng(seed);  // NOT flagged: explicit seed
  return rng.Next();
}

struct Worker {
  explicit Worker(uint64_t seed) : rng_(seed) {}
  Rng rng_;  // NOT flagged: members ending in '_' are seeded in the ctor
};

}  // namespace numalab

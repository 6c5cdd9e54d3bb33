// Compile-time probes for the thread-safety (lock-contract) annotations in
// src/common/thread_annotations.h. Nothing here runs: the functions exist
// so that
//  * the plain GCC build proves the macros no-op cleanly on every compiler
//    we support (this file is part of libnumalab and builds with
//    -Wall -Wextra), and
//  * check.sh stage 8 can compile this one TU with clang and
//    -Werror=thread-safety, machine-checking the acquire/release balance
//    of the real lock surfaces it exercises: Env::Lock/LockReleased
//    around a VirtualLock, including an early-return path, the shape of
//    ConcurrentHashTable::UpsertWith's OOM exit.
//
// If an annotation on sync.h/env.h/hash_table.h ever becomes inconsistent,
// this TU is where clang reports it.

#include <cstdint>

#include "src/common/thread_annotations.h"
#include "src/index/hash_table.h"
#include "src/sim/sync.h"
#include "src/workloads/env.h"

namespace numalab {
namespace sanity {

/// The canonical VirtualLock critical section: Env::Lock models the timing
/// and opens the section, LockReleased closes it; the pair marks the
/// section for both the race detector (dynamic) and clang's analysis
/// (static).
uint64_t ThreadSafetyProbeVirtualLock(workloads::Env& env,
                                      sim::VirtualLock& lock) {
  env.Lock(&lock, /*hold=*/40);
  uint64_t free_at = lock.free_at;
  env.LockReleased(&lock);
  return free_at;
}

/// Balanced early-return path — the UpsertWith OOM-exit shape. Deleting
/// either LockReleased call makes clang report an unbalanced capability.
bool ThreadSafetyProbeEarlyReturn(workloads::Env& env,
                                  sim::VirtualLock& lock, bool fail) {
  env.Lock(&lock, /*hold=*/40);
  if (fail) {
    env.LockReleased(&lock);
    return false;
  }
  env.LockReleased(&lock);
  return true;
}

}  // namespace sanity
}  // namespace numalab

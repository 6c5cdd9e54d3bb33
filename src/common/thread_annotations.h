// Portable wrappers for Clang's thread-safety (capability) analysis
// attributes. Under clang the macros expand to the real attributes and
// `-Wthread-safety` machine-checks the lock contracts; under GCC (and any
// compiler without the attribute family) every macro is a no-op, so the
// annotations cost nothing and the code stays portable.
//
// Conventions in this tree (see DESIGN.md section 13):
//  * Capability type: `sim::VirtualLock` is the one lock type. It is a
//    *simulated* lock — it orders virtual threads on the single host
//    thread — but the acquire/release discipline around it is a real
//    program contract (it is what the race detector derives
//    happens-before edges from), so it is annotated and checked
//    statically too.
//  * VirtualLock critical sections are delimited by the Env::Lock /
//    Env::LockReleased pair (the same calls that feed the race detector;
//    Env::Lock also charges the queueing wait); those carry
//    NUMALAB_ACQUIRE/NUMALAB_RELEASE so clang verifies every
//    path between them is balanced (e.g. the early-OOM return in
//    ConcurrentHashTable::UpsertWith must release the stripe first).
//  * Lock *implementations* (the Env hooks) are annotated
//    at the boundary and carry NUMALAB_NO_THREAD_SAFETY_ANALYSIS on the
//    body — the standard pattern for lock primitives, whose internals
//    cannot be expressed in the annotation language.
//  * State touched only from engine-serialized contexts (arrival events,
//    host-side bookkeeping) is documented at the declaration instead of
//    annotated; see NodeQueue in src/serve/serve.cc for the worked example.
//
// scripts/check.sh stage 8 compiles src/sanity/thread_safety_check.cc with
// clang and -Werror=thread-safety when clang is available; the plain GCC
// build compiles the same file with the macros no-opped on every run.

#ifndef NUMALAB_COMMON_THREAD_ANNOTATIONS_H_
#define NUMALAB_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NUMALAB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NUMALAB_THREAD_ANNOTATION
#define NUMALAB_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a capability ("mutex"-like); instances can then appear
/// in the other annotations below.
#define NUMALAB_CAPABILITY(name) NUMALAB_THREAD_ANNOTATION(capability(name))

/// Function acquires the capability and holds it past return.
#define NUMALAB_ACQUIRE(...) \
  NUMALAB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a capability the caller holds on entry.
#define NUMALAB_RELEASE(...) \
  NUMALAB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Opts a function body out of the analysis. Reserved for lock
/// implementations and for intentional, documented contract exceptions
/// (always pair with a comment saying why the exception is sound).
#define NUMALAB_NO_THREAD_SAFETY_ANALYSIS \
  NUMALAB_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // NUMALAB_COMMON_THREAD_ANNOTATIONS_H_

// Portable wrappers for Clang's thread-safety (capability) analysis
// attributes. Under clang the macros expand to the real attributes and
// `-Wthread-safety` machine-checks the lock contracts; under GCC (and any
// compiler without the attribute family) every macro is a no-op, so the
// annotations cost nothing and the code stays portable.
//
// Conventions in this tree (see DESIGN.md section 13):
//  * Capability types: `sim::VirtualLock` and `sim::SimMutex` are the two
//    lock types. Both are *simulated* locks — they order virtual threads on
//    the single host thread — but the acquire/release discipline around
//    them is a real program contract (it is what the PR-2 race detector
//    derives happens-before edges from), so it is annotated and checked
//    statically too.
//  * VirtualLock critical sections are delimited by the Env::Lock /
//    Env::LockReleased pair (the same calls that feed the race detector;
//    Env::Lock also charges the queueing wait); those carry
//    NUMALAB_ACQUIRE/NUMALAB_RELEASE so clang verifies every
//    path between them is balanced (e.g. the early-OOM return in
//    ConcurrentHashTable::UpsertWith must release the stripe first).
//  * Lock *implementations* (SimMutex::Unlock, the Env hooks) are annotated
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

/// RAII types whose constructor acquires and destructor releases.
#define NUMALAB_SCOPED_CAPABILITY NUMALAB_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define NUMALAB_GUARDED_BY(x) NUMALAB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given capability.
#define NUMALAB_PT_GUARDED_BY(x) NUMALAB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability and holds it past return.
#define NUMALAB_ACQUIRE(...) \
  NUMALAB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a capability the caller holds on entry.
#define NUMALAB_RELEASE(...) \
  NUMALAB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must hold the capability (exclusively) across the call.
#define NUMALAB_REQUIRES(...) \
  NUMALAB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself,
/// or would deadlock/double-charge if it were already held).
#define NUMALAB_EXCLUDES(...) \
  NUMALAB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define NUMALAB_RETURN_CAPABILITY(x) \
  NUMALAB_THREAD_ANNOTATION(lock_returned(x))

/// Opts a function body out of the analysis. Reserved for lock
/// implementations and for intentional, documented contract exceptions
/// (always pair with a comment saying why the exception is sound).
#define NUMALAB_NO_THREAD_SAFETY_ANALYSIS \
  NUMALAB_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // NUMALAB_COMMON_THREAD_ANNOTATIONS_H_

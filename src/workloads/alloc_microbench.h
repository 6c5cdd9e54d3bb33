// The memory-allocator microbenchmark of Section III-A8 (Fig. 2).
//
// Each thread performs `ops_per_thread` operations against the configured
// allocator: allocate a block (size drawn from a distribution inversely
// proportional to the size class) and write it, or read and free a random
// live block. A thread allocates with probability 0.75 until it holds 90%
// of its 16,384-block live cap, then with probability 0.45. The two paper
// metrics are RunResult::cycles (wall virtual time) and
// RunResult::MemoryOverhead() (resident peak / requested peak).

#ifndef NUMALAB_WORKLOADS_ALLOC_MICROBENCH_H_
#define NUMALAB_WORKLOADS_ALLOC_MICROBENCH_H_

#include <cstdint>
#include <string>

#include "src/workloads/run_config.h"

namespace numalab {
namespace workloads {

/// Runs the microbenchmark on `machine` with `threads` threads.
RunResult RunAllocMicrobench(const std::string& allocator,
                             const std::string& machine, int threads,
                             uint64_t ops_per_thread, uint64_t seed);

}  // namespace workloads
}  // namespace numalab

#endif  // NUMALAB_WORKLOADS_ALLOC_MICROBENCH_H_

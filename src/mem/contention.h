// Bandwidth contention model for memory controllers and interconnect links.
//
// Each resource (one memory controller per node, one directed link per hop)
// tracks its demand in coarse virtual-time epochs and charges queueing
// delay from the measured utilization of the previous epoch:
//
//     delay(access) = service_time x rho / (1 - rho)        (M/M/1 shape)
//
// where rho = bytes booked in the last completed epoch / epoch capacity.
// Using the *previous* epoch makes the charge insensitive to the bounded
// clock skew between virtual threads (a reservation-calendar model would
// bill skew as phantom queueing) while preserving the feedback loop that
// matters: when aggregate demand approaches a resource's bytes/cycle,
// every client slows down, which is the effect behind the paper's
// Sparse-vs-Dense and Interleave results.

#ifndef NUMALAB_MEM_CONTENTION_H_
#define NUMALAB_MEM_CONTENTION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/topology/machine.h"

namespace numalab {
namespace mem {

/// \brief A bandwidth resource with epoch-based utilization accounting.
class ResourceQueue {
 public:
  /// Epoch length of the utilization accounting; exposed so the batched
  /// span path in MemSystem can coalesce bookings that provably fall into
  /// one epoch.
  static constexpr uint64_t kEpochCycles = 1ULL << 16;  // 65536

  ResourceQueue() = default;
  explicit ResourceQueue(double bytes_per_cycle)
      : bytes_per_cycle_(bytes_per_cycle) {}

  /// Books `bytes` of demand at time `now`; returns the queueing delay to
  /// charge (0 when the resource was idle last epoch).
  uint64_t Reserve(uint64_t now, uint64_t bytes, uint64_t max_delay) {
    Roll(now);
    bytes_cur_ += bytes;
    double service = static_cast<double>(bytes) / bytes_per_cycle_;
    double rho = Utilization();
    double delay = service * rho / (1.0 - rho);
    return std::min(static_cast<uint64_t>(delay), max_delay);
  }

  /// Books demand without computing a delay. Bit-equivalent to a sequence
  /// of Reserve calls whose `now` values all fall into the same epoch as
  /// this call's `now` (the rolls those calls would do are no-ops), which
  /// is the invariant the batched access path maintains.
  void Book(uint64_t now, uint64_t bytes) {
    Roll(now);
    bytes_cur_ += bytes;
  }

  /// Utilization of the last completed epoch, clamped below 1.
  double Utilization() const {
    double capacity = bytes_per_cycle_ * static_cast<double>(kEpochCycles);
    double rho = static_cast<double>(bytes_prev_) / capacity;
    return std::min(rho, 0.97);
  }

 private:
  void Roll(uint64_t now) {
    uint64_t epoch = now / kEpochCycles;
    if (epoch == cur_epoch_) return;
    if (epoch == cur_epoch_ + 1) {
      bytes_prev_ = bytes_cur_;
    } else if (epoch > cur_epoch_) {
      bytes_prev_ = 0;  // idle gap
    } else {
      return;  // stale access from a lagging thread: book into current
    }
    bytes_cur_ = 0;
    cur_epoch_ = epoch;
  }

  double bytes_per_cycle_ = 1.0;
  uint64_t cur_epoch_ = 0;
  uint64_t bytes_cur_ = 0;
  uint64_t bytes_prev_ = 0;
};

/// \brief All bandwidth resources of one machine.
class ContentionModel {
 public:
  explicit ContentionModel(const topology::Machine& machine) {
    for (int n = 0; n < machine.num_nodes(); ++n) {
      controllers_.emplace_back(machine.mem_ctrl_bytes_per_cycle());
    }
    for (const auto& link : machine.links()) {
      links_.emplace_back(link.bytes_per_cycle);
    }
  }

  /// Total queueing delay for moving `bytes` from node `src` to memory on
  /// node `dst` at time `now`. Charges the destination controller and, for
  /// remote accesses, every link on the precomputed route.
  ///
  /// Not memoizable across calls: Roll's stale-access branch means a queue's
  /// cur_epoch_ (and with it bytes_prev_) can advance while a lagging
  /// thread's `now` is still in an older epoch, so a delay cached under the
  /// caller-visible epoch goes stale the moment any other thread rolls a
  /// shared queue forward. Only the batched span path may reuse a delay, and
  /// only within one uninterrupted span (no other thread can touch the
  /// queues mid-span).
  uint64_t Charge(const topology::Machine& machine, int src, int dst,
                  uint64_t now, uint64_t bytes, uint64_t max_delay) {
    uint64_t delay = controllers_[dst].Reserve(now, bytes, max_delay);
    if (src != dst) {
      for (int link_id : machine.Route(src, dst)) {
        delay += links_[link_id].Reserve(now, bytes, max_delay);
      }
    }
    return std::min(delay, max_delay);
  }

  /// Books `bytes` along the src->dst route without computing a delay.
  /// Used by the batched access path to coalesce the bookings of a run of
  /// same-epoch cache-line accesses into one call (see ResourceQueue::Book
  /// for the exactness argument).
  void Book(const topology::Machine& machine, int src, int dst, uint64_t now,
            uint64_t bytes) {
    controllers_[dst].Book(now, bytes);
    if (src != dst) {
      for (int link_id : machine.Route(src, dst)) {
        links_[link_id].Book(now, bytes);
      }
    }
  }

  /// Injects background service demand (page migrations, THP copies) so
  /// concurrent accessors experience the kernel's memory traffic.
  void Inject(int node, uint64_t now, uint64_t bytes) {
    controllers_[node].Reserve(now, bytes, 0);
  }

 private:
  std::vector<ResourceQueue> controllers_;
  std::vector<ResourceQueue> links_;
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_CONTENTION_H_

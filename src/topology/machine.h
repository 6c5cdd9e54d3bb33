// NUMA machine models.
//
// A Machine describes the hardware the simulator runs the workloads on:
// NUMA nodes, cores and SMT threads, interconnect links with routed paths,
// relative memory latencies, cache and TLB geometry, and per-node memory
// controller bandwidth. The three built-in machines reproduce Table II and
// Figure 1 of the paper:
//
//   Machine A — 8x AMD Opteron 8220, "twisted ladder" topology, 3 HT links
//               per node, remote latency factors 1.2/1.4/1.6 by hop count.
//   Machine B — 4x Intel Xeon E7520, fully connected, remote factor 1.1.
//   Machine C — 4x Intel Xeon E7-4850v4, fully connected, remote factor 2.1.

#ifndef NUMALAB_TOPOLOGY_MACHINE_H_
#define NUMALAB_TOPOLOGY_MACHINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace numalab {
namespace topology {

/// \brief TLB geometry for one page size (number of cached entries).
struct TlbSpec {
  int l1_entries = 0;  ///< first-level TLB entries (0 = absent)
  int l2_entries = 0;  ///< second-level TLB entries (0 = absent)
};

/// \brief One directed hop of the interconnect. Links are created in pairs
/// (a->b and b->a) and carry independent traffic.
struct Link {
  int id = -1;
  int from = -1;
  int to = -1;
  double bytes_per_cycle = 0.0;  ///< usable bandwidth of this hop
};

/// \brief Full machine description. Instances are immutable after
/// construction; use the MachineA()/MachineB()/MachineC() factories, or
/// construct a synthetic topology directly and RegisterMachine() it so
/// RunConfig can select it by name.
class Machine {
 public:
  /// Builds a machine and precomputes shortest-path routes between all node
  /// pairs (BFS over the link graph, deterministic tie-break by node id).
  ///
  /// \param adjacency adjacency[i] lists the neighbor node ids of node i.
  Machine(std::string name, int num_nodes, int cores_per_node,
          int smt_per_core, std::vector<std::vector<int>> adjacency,
          std::vector<double> latency_factor_by_hops,
          double link_bytes_per_cycle, double mem_ctrl_bytes_per_cycle,
          uint64_t node_memory_bytes, uint64_t llc_bytes_per_node,
          uint64_t private_cache_bytes, TlbSpec tlb_4k, TlbSpec tlb_2m,
          uint64_t dram_latency_cycles);

  const std::string& name() const { return name_; }
  int num_nodes() const { return num_nodes_; }
  int cores_per_node() const { return cores_per_node_; }
  int smt_per_core() const { return smt_per_core_; }
  /// Total hardware threads = nodes * cores/node * SMT.
  int num_hw_threads() const {
    return num_nodes_ * cores_per_node_ * smt_per_core_;
  }
  /// Total physical cores.
  int num_cores() const { return num_nodes_ * cores_per_node_; }

  /// NUMA node that hardware thread `hw` belongs to. Hardware threads are
  /// numbered node-major: node = hw / (cores_per_node * smt_per_core).
  int NodeOfHwThread(int hw) const {
    return hw / (cores_per_node_ * smt_per_core_);
  }
  /// Physical core of hardware thread `hw` (SMT siblings share a core).
  int CoreOfHwThread(int hw) const { return hw / smt_per_core_; }

  /// Number of interconnect hops on the (precomputed) route from `src` to
  /// `dst` node; 0 when src == dst.
  int Hops(int src, int dst) const { return hops_[src][dst]; }

  /// Relative latency multiplier for an access from a thread on `src` to
  /// memory on `dst` (Table II "Relative NUMA Node Memory Latency").
  double LatencyFactor(int src, int dst) const {
    return latency_factor_by_hops_[static_cast<size_t>(Hops(src, dst))];
  }

  /// Directed link ids along the route src -> dst (empty when src == dst).
  const std::vector<int>& Route(int src, int dst) const {
    return routes_[src][dst];
  }

  const std::vector<Link>& links() const { return links_; }

  double mem_ctrl_bytes_per_cycle() const { return mem_ctrl_bytes_per_cycle_; }
  uint64_t node_memory_bytes() const { return node_memory_bytes_; }
  uint64_t llc_bytes_per_node() const { return llc_bytes_per_node_; }
  uint64_t private_cache_bytes() const { return private_cache_bytes_; }
  const TlbSpec& tlb_4k() const { return tlb_4k_; }
  const TlbSpec& tlb_2m() const { return tlb_2m_; }
  uint64_t dram_latency_cycles() const { return dram_latency_cycles_; }

  /// Maximum hop count between any two nodes.
  int Diameter() const;

  /// Human-readable dump: topology, latency matrix, per-node resources.
  std::string ToString() const;

 private:
  std::string name_;
  int num_nodes_;
  int cores_per_node_;
  int smt_per_core_;
  std::vector<Link> links_;
  std::vector<std::vector<int>> hops_;                // [src][dst]
  std::vector<std::vector<std::vector<int>>> routes_; // [src][dst] -> link ids
  std::vector<double> latency_factor_by_hops_;
  double mem_ctrl_bytes_per_cycle_;
  uint64_t node_memory_bytes_;
  uint64_t llc_bytes_per_node_;
  uint64_t private_cache_bytes_;
  TlbSpec tlb_4k_;
  TlbSpec tlb_2m_;
  uint64_t dram_latency_cycles_;
};

/// 8-node AMD Opteron 8220 "twisted ladder" (Fig. 1a / Table II column A).
Machine MachineA();
/// 4-node Intel Xeon E7520, fully connected (Fig. 1b / Table II column B).
Machine MachineB();
/// 4-node Intel Xeon E7-4850 v4, fully connected (Fig. 1c / Table II col C).
Machine MachineC();

/// Registers a custom machine (e.g. an on-chip-NUMA model) so workloads
/// can select it by name through RunConfig. Re-registering a name
/// replaces the previous machine.
void RegisterMachine(const Machine& machine);

/// Returns a registered machine or one of the built-ins "A", "B", "C";
/// CHECK-fails otherwise.
Machine MachineByName(const std::string& name);

}  // namespace topology
}  // namespace numalab

#endif  // NUMALAB_TOPOLOGY_MACHINE_H_

// faultlab tests: seeded fault draws are deterministic, per-node capacity
// enforcement spills along the Linux-style zonelist (nearest-distance
// fallback), injected failures propagate as Status instead of aborting, and
// the watchdog deadline cuts runaway runs short. Workload-level tests also
// pin the determinism contract: same seed + same FaultPlan reproduces the
// identical RunResult across repeated runs and across the scalar/span
// memory paths.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/faultlab/faultlab.h"
#include "src/mem/mem_system.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace {

// ---------------------------------------------------------------------------
// FaultLab unit behaviour.

// The absolute cap replaces the machine's own per-node size (the scale it
// overrides), whether that size is above or below the cap.
TEST(FaultLabUnit, AbsoluteCapacityOverridesScale) {
  perf::SystemCounters sys;
  // Uncapped: the machine's own per-node size.
  faultlab::FaultPlan plan;
  faultlab::FaultLab uncapped(plan, /*seed=*/1, /*run_index=*/0, &sys);
  EXPECT_EQ(uncapped.NodeCapacityBytes(1ULL << 30), 1ULL << 30);
  // Capped: the cap, whatever the machine's size.
  plan.node_capacity_bytes = 123 << 12;
  faultlab::FaultLab capped(plan, 1, 0, &sys);
  EXPECT_EQ(capped.NodeCapacityBytes(1ULL << 30), 123u << 12);
  EXPECT_EQ(capped.NodeCapacityBytes(1ULL << 20), 123u << 12);
}

TEST(FaultLabUnit, CapacityCapIsFlooredAtOnePage) {
  perf::SystemCounters sys;
  faultlab::FaultPlan plan;
  // Never below one small page.
  plan.node_capacity_bytes = 1024;
  faultlab::FaultLab floored(plan, /*seed=*/1, /*run_index=*/0, &sys);
  EXPECT_EQ(floored.NodeCapacityBytes(1ULL << 30), 4096u);
  // A cap at or above one page is kept as is.
  plan.node_capacity_bytes = 4096;
  faultlab::FaultLab one_page(plan, 1, 0, &sys);
  EXPECT_EQ(one_page.NodeCapacityBytes(1ULL << 30), 4096u);
  plan.node_capacity_bytes = 4097;
  faultlab::FaultLab above(plan, 1, 0, &sys);
  EXPECT_EQ(above.NodeCapacityBytes(1ULL << 30), 4097u);
}

TEST(FaultLabUnit, NodeOfflineFiresAtCycle) {
  faultlab::FaultPlan plan;
  plan.offline = {{/*node=*/3, /*at_cycle=*/1000}};
  perf::SystemCounters sys;
  faultlab::FaultLab fl(plan, 1, 0, &sys);
  EXPECT_TRUE(fl.NodeOnline(3, 999));
  EXPECT_FALSE(fl.NodeOnline(3, 1000));
  EXPECT_TRUE(fl.NodeOnline(2, 5000));  // other nodes unaffected
}

TEST(FaultLabUnit, DrawSequenceIsSeedDeterministic) {
  faultlab::FaultPlan plan;
  plan.alloc_fail_prob = 0.5;
  perf::SystemCounters sys_a, sys_b, sys_c;
  faultlab::FaultLab a(plan, 7, 2, &sys_a);
  faultlab::FaultLab b(plan, 7, 2, &sys_b);
  faultlab::FaultLab c(plan, 7, 3, &sys_c);
  std::vector<bool> sa, sb, sc;
  for (int i = 0; i < 256; ++i) {
    sa.push_back(a.DrawAllocFailure());
    sb.push_back(b.DrawAllocFailure());
    sc.push_back(c.DrawAllocFailure());
  }
  EXPECT_EQ(sa, sb);                      // same stream, same draws
  EXPECT_NE(sa, sc);                      // run_index decorrelates
  EXPECT_EQ(sys_a.alloc_failures_injected, sys_b.alloc_failures_injected);
  EXPECT_GT(sys_a.alloc_failures_injected, 0u);
}

TEST(FaultLabUnit, ZeroProbabilityConsumesNoRng) {
  faultlab::FaultPlan plan;
  plan.alloc_fail_prob = 0.0;
  perf::SystemCounters sys;
  faultlab::FaultLab fl(plan, 7, 0, &sys);
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(fl.DrawAllocFailure());
  EXPECT_EQ(sys.alloc_failures_injected, 0u);
}

// ---------------------------------------------------------------------------
// Zonelist + capacity spill (SimOS level).

class FaultSpillTest : public ::testing::Test {
 protected:
  void Build(const topology::Machine& machine) {
    machine_ = machine;
    memsys_ = std::make_unique<mem::MemSystem>(&machine_, &engine_,
                                               mem::CostModel{}, &sys_);
  }

  topology::Machine machine_ = topology::MachineA();
  sim::Engine engine_;
  perf::SystemCounters sys_;
  std::unique_ptr<mem::MemSystem> memsys_;
};

// The zonelist of every node on every machine is the Linux fallback order:
// all nodes sorted by distance (Machine::Hops) from the owner, nearest
// first, ties broken by node id, the owner itself leading.
TEST_F(FaultSpillTest, ZonelistMatchesDistanceOrderOnAllMachines) {
  for (const auto& m :
       {topology::MachineA(), topology::MachineB(), topology::MachineC()}) {
    Build(m);
    const mem::SimOS* os = memsys_->os();
    for (int n = 0; n < machine_.num_nodes(); ++n) {
      const std::vector<int>& zl = os->Zonelist(n);
      ASSERT_EQ(zl.size(), static_cast<size_t>(machine_.num_nodes()))
          << m.name() << " node " << n;
      EXPECT_EQ(zl[0], n) << m.name();  // self is always nearest
      std::vector<int> expect(static_cast<size_t>(machine_.num_nodes()));
      for (int i = 0; i < machine_.num_nodes(); ++i) {
        expect[static_cast<size_t>(i)] = i;
      }
      std::stable_sort(expect.begin(), expect.end(), [&](int a, int b) {
        return machine_.Hops(n, a) < machine_.Hops(n, b);
      });
      EXPECT_EQ(zl, expect) << m.name() << " node " << n;
    }
  }
}

// With a two-page-per-node capacity, eager Preferred binds fill the
// preferred node then spill outward in exact zonelist order.
TEST_F(FaultSpillTest, PreferredSpillsInZonelistOrderWhenFull) {
  Build(topology::MachineA());
  faultlab::FaultPlan plan;
  plan.node_capacity_bytes = 2 * mem::kSmallPageBytes;
  faultlab::FaultLab fl(plan, /*seed=*/42, /*run_index=*/0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kPreferred, /*preferred_node=*/0);

  mem::Region* r = memsys_->os()->TryMap(6 * mem::kSmallPageBytes,
                                         /*thp_eligible=*/false);
  const std::vector<int>& zl = memsys_->os()->Zonelist(0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(r->pages[static_cast<size_t>(i)].node, zl[static_cast<size_t>(i / 2)])
        << "page " << i;
  }
  EXPECT_EQ(sys_.pages_spilled, 4u);        // pages 2-5 left node 0
  EXPECT_EQ(sys_.oom_last_resort_pages, 0u);
}

// When every zone is full the bind still succeeds on the desired node
// ("too small to fail") and the last-resort counter records it.
TEST_F(FaultSpillTest, ExhaustedMachineBindsAnyway) {
  Build(topology::MachineA());
  faultlab::FaultPlan plan;
  plan.node_capacity_bytes = mem::kSmallPageBytes;  // one page per node
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kPreferred, 0);

  size_t nodes = static_cast<size_t>(machine_.num_nodes());
  mem::Region* r = memsys_->os()->TryMap((nodes + 2) * mem::kSmallPageBytes,
                                         /*thp_eligible=*/false);
  EXPECT_GT(sys_.oom_last_resort_pages, 0u);
  for (const auto& p : r->pages) EXPECT_GE(p.node, 0);
}

// Regression: interleave must rotate over *online* nodes only. The old
// cursor rotated over all nodes, so with node 3 offline every 8th bind
// targeted it and got rerouted by the spill walk — node 3's share landed
// on whatever the zonelist picked (skewed placement) and offline_redirects
// counted allocations that never should have considered the node.
TEST_F(FaultSpillTest, InterleaveSkipsOfflineNodes) {
  Build(topology::MachineA());
  faultlab::FaultPlan plan;
  plan.offline = {{/*node=*/3, /*at_cycle=*/0}};
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kInterleave, 0);

  mem::Region* r = memsys_->os()->TryMap(16 * mem::kSmallPageBytes,
                                         /*thp_eligible=*/false);
  std::vector<int> per_node(static_cast<size_t>(machine_.num_nodes()), 0);
  for (const auto& p : r->pages) ++per_node[static_cast<size_t>(p.node)];
  EXPECT_EQ(per_node[3], 0);  // the offline node is not a candidate at all
  for (int n = 0; n < machine_.num_nodes(); ++n) {
    if (n != 3) {
      EXPECT_GE(per_node[static_cast<size_t>(n)], 2) << "node " << n;
    }
  }
  // No bind ever *targeted* the offline node, so nothing was redirected.
  EXPECT_EQ(sys_.offline_redirects, 0u);
  EXPECT_EQ(sys_.pages_spilled, 0u);
}

// The bit-identical contract: attaching faultlab with no offline nodes must
// leave the interleave rotation exactly as it is without faultlab.
TEST_F(FaultSpillTest, InterleaveUnchangedWhenFaultlabHasNoOfflineNodes) {
  Build(topology::MachineA());
  memsys_->os()->SetPolicy(mem::MemPolicy::kInterleave, 0);
  mem::Region* plain = memsys_->os()->TryMap(16 * mem::kSmallPageBytes,
                                             /*thp_eligible=*/false);
  std::vector<int> want;
  for (const auto& p : plain->pages) want.push_back(p.node);

  Build(topology::MachineA());
  // Enabled but benign: the one offline event never fires.
  faultlab::FaultPlan plan;
  plan.offline = {{/*node=*/3, /*at_cycle=*/UINT64_MAX}};
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kInterleave, 0);
  mem::Region* faulted = memsys_->os()->TryMap(16 * mem::kSmallPageBytes,
                                               /*thp_eligible=*/false);
  std::vector<int> got;
  for (const auto& p : faulted->pages) got.push_back(p.node);
  EXPECT_EQ(got, want);
}

// Regression: an offline preferred node with every online node full is a
// *redirect* (the kernel would never have allocated on the offline node),
// not an OOM last-resort bind — the old code counted it as the latter and
// returned the offline node.
TEST_F(FaultSpillTest, OfflineDesiredWithFullMachineCountsRedirectNotOom) {
  Build(topology::MachineA());
  faultlab::FaultPlan plan;
  plan.node_capacity_bytes = mem::kSmallPageBytes;  // one page per node
  plan.offline = {{/*node=*/0, /*at_cycle=*/0}};
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kPreferred, 0);

  // 7 online nodes x 1 page fill the machine; 3 more overcommit.
  mem::Region* r = memsys_->os()->TryMap(10 * mem::kSmallPageBytes,
                                         /*thp_eligible=*/false);
  for (const auto& p : r->pages) EXPECT_NE(p.node, 0);  // never offline
  EXPECT_EQ(sys_.offline_redirects, 10u);
  EXPECT_EQ(sys_.oom_last_resort_pages, 0u);
}

// When the whole machine is offline there is no online node to redirect to;
// the bind keeps the desired node and the dedicated counter surfaces the
// degradation (the old code returned the offline node silently).
TEST_F(FaultSpillTest, AllNodesOfflineSurfacesDegradationCounter) {
  Build(topology::MachineA());
  faultlab::FaultPlan plan;
  for (int n = 0; n < machine_.num_nodes(); ++n) {
    plan.offline.push_back({n, /*at_cycle=*/0});
  }
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kPreferred, 2);

  mem::Region* r = memsys_->os()->TryMap(4 * mem::kSmallPageBytes,
                                         /*thp_eligible=*/false);
  for (const auto& p : r->pages) EXPECT_EQ(p.node, 2);
  EXPECT_EQ(sys_.all_offline_binds, 4u);
  EXPECT_EQ(sys_.offline_redirects, 0u);
  EXPECT_EQ(sys_.oom_last_resort_pages, 0u);
}

TEST_F(FaultSpillTest, OfflineNodeRedirectsBinds) {
  Build(topology::MachineA());
  faultlab::FaultPlan plan;
  plan.offline = {{/*node=*/0, /*at_cycle=*/0}};
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(mem::MemPolicy::kPreferred, 0);

  mem::Region* r = memsys_->os()->TryMap(4 * mem::kSmallPageBytes,
                                         /*thp_eligible=*/false);
  const std::vector<int>& zl = memsys_->os()->Zonelist(0);
  for (const auto& p : r->pages) EXPECT_EQ(p.node, zl[1]);  // nearest online
  EXPECT_EQ(sys_.offline_redirects, 4u);
  EXPECT_EQ(sys_.pages_spilled, 0u);
}

// ---------------------------------------------------------------------------
// Workload-level: determinism, status propagation, watchdog.

workloads::RunConfig PressureConfig() {
  workloads::RunConfig c;
  c.machine = "A";
  c.threads = 8;
  c.affinity = osmodel::Affinity::kSparse;
  c.policy = mem::MemPolicy::kFirstTouch;
  c.allocator = "ptmalloc";
  c.autonuma = false;
  c.thp = false;
  c.num_records = 50'000;
  c.cardinality = 512;
  c.build_rows = 10'000;
  c.probe_rows = 80'000;
  // Per-node capacity far below the working set: binds must spill.
  c.faults = faultlab::MemoryPressurePlan(64 * mem::kSmallPageBytes);
  return c;
}

TEST(FaultlabWorkload, PressureRunDegradesGracefully) {
  workloads::RunConfig c = PressureConfig();
  workloads::RunResult r = workloads::RunW3HashJoin(c);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.checksum, c.probe_rows);  // answers stay correct under spill
  EXPECT_GT(r.report.system.pages_spilled, 0u);
}

TEST(FaultlabWorkload, SameSeedSamePlanIsBitReproducible) {
  workloads::RunConfig c = PressureConfig();
  workloads::RunResult a = workloads::RunW3HashJoin(c);
  workloads::RunResult b = workloads::RunW3HashJoin(c);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.report.system.pages_spilled, b.report.system.pages_spilled);
  EXPECT_EQ(a.report.system.oom_last_resort_pages,
            b.report.system.oom_last_resort_pages);
  EXPECT_EQ(a.report.threads.mem_accesses, b.report.threads.mem_accesses);
  EXPECT_EQ(a.report.threads.llc_misses, b.report.threads.llc_misses);
}

TEST(FaultlabWorkload, ScalarAndSpanPathsAgreeUnderFaults) {
  workloads::RunConfig c = PressureConfig();
  workloads::RunResult span = workloads::RunW3HashJoin(c);
  c.scalar_mem_path = true;
  workloads::RunResult scalar = workloads::RunW3HashJoin(c);
  EXPECT_EQ(span.cycles, scalar.cycles);
  EXPECT_EQ(span.checksum, scalar.checksum);
  EXPECT_EQ(span.report.system.pages_spilled,
            scalar.report.system.pages_spilled);
  EXPECT_EQ(span.report.system.oom_last_resort_pages,
            scalar.report.system.oom_last_resort_pages);
}

TEST(FaultlabWorkload, InjectedAllocFailureBecomesStatusNotAbort) {
  workloads::RunConfig c = PressureConfig();
  c.faults = faultlab::FaultPlan{};
  c.faults.alloc_fail_prob = 1.0;  // first worker-side allocation fails
  workloads::RunResult r = workloads::RunW1HolisticAggregation(c);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), Status::Code::kOutOfMemory)
      << r.status.ToString();
  EXPECT_GT(r.report.system.alloc_failures_injected, 0u);
}

TEST(FaultlabWorkload, DeadlineCutsRunawayRunShort) {
  workloads::RunConfig c = PressureConfig();
  c.faults = faultlab::FaultPlan{};
  c.deadline_cycles = 50'000;  // far below the run's natural makespan
  workloads::RunResult r = workloads::RunW1HolisticAggregation(c);
  EXPECT_EQ(r.status.code(), Status::Code::kDeadlineExceeded)
      << r.status.ToString();
}

TEST(FaultlabWorkload, DefaultPlanMatchesNoFaultRun) {
  // The zero-cost contract at workload granularity: a disabled plan is
  // bit-identical to a run where faultlab never existed.
  workloads::RunConfig c = PressureConfig();
  c.faults = faultlab::FaultPlan{};
  workloads::RunResult a = workloads::RunW3HashJoin(c);
  workloads::RunResult b = workloads::RunW3HashJoin(c);
  EXPECT_TRUE(a.status.ok());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.report.system.pages_spilled, 0u);
  EXPECT_EQ(a.report.system.oom_last_resort_pages, 0u);
  EXPECT_EQ(a.report.system.alloc_failures_injected, 0u);
}

}  // namespace
}  // namespace numalab

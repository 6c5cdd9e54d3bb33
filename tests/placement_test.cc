// Adaptive placement tests (src/mem/placement.h, DESIGN.md section 12):
// replica routing serves reads locally and invalidates on write
// (read-your-writes), the hot-page gate replicates a read-hot remote page
// end-to-end through the hinting-fault hook, capacity pressure reclaims
// replicas before spilling real pages, and whole-workload runs under
// placement stay bit-deterministic and scalar/span bit-identical.

#include <gtest/gtest.h>

#include "src/faultlab/faultlab.h"
#include "src/mem/mem_system.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace mem {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : machine_(topology::MachineA()) {
    CostModel costs;
    // No cache tag arrays: every line is a DRAM access, so replica routing
    // and hinting-fault sampling run on every touched line.
    costs.model_caches = false;
    memsys_ = std::make_unique<MemSystem>(&machine_, &engine_, costs, &sys_);
    PlacementConfig pc;
    pc.enabled = true;
    memsys_->SetPlacement(pc);
  }

  // Runs `fn` as a fresh virtual thread pinned to `hw` and returns the
  // thread's counters. MachineA has two hw threads per node: hw 0 is node
  // 0, hw 6 is node 3.
  perf::ThreadCounters RunAs(int hw, const std::function<void()>& fn) {
    sim::VThread* vt = engine_.Spawn("t", hw, [&](sim::VThread* self) {
      vt_ = self;
      return Body(fn);
    });
    engine_.Run();
    return vt->counters;
  }
  static sim::Task Body(const std::function<void()>& fn) {
    fn();
    co_return;
  }

  topology::Machine machine_;
  sim::Engine engine_;
  perf::SystemCounters sys_;
  std::unique_ptr<MemSystem> memsys_;
  sim::VThread* vt_ = nullptr;
};

constexpr uint64_t kLinesPerPage = kSmallPageBytes / kCacheLineBytes;  // 64

TEST_F(PlacementTest, ReplicaServesReadsLocallyAndWriteInvalidates) {
  Region* r = memsys_->os()->TryMap(kSmallPageBytes, /*thp_eligible=*/false);
  char* p = reinterpret_cast<char*>(r->base);
  // First touch from node 0: the page homes there.
  RunAs(0, [&] {
    memsys_->Read(vt_, p, kCacheLineBytes);
  });
  ASSERT_EQ(r->pages[0].node, 0);
  ASSERT_TRUE(memsys_->os()->AddReplica(r, 0, /*node=*/3));
  EXPECT_EQ(sys_.pages_replicated, 1u);
  EXPECT_EQ(memsys_->os()->replica_bytes(3), kSmallPageBytes);

  // Reads from node 3 are served by the local copy: local DRAM, no remote.
  perf::ThreadCounters reads = RunAs(6, [&] {
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      memsys_->Read(vt_, p + l * kCacheLineBytes, 8);
    }
  });
  EXPECT_EQ(reads.local_dram, kLinesPerPage);
  EXPECT_EQ(reads.remote_dram, 0u);
  EXPECT_EQ(sys_.replica_reads, kLinesPerPage);

  // One store invalidates every copy (read-your-writes: no stale replica
  // may survive the write) and pays the shootdown.
  perf::ThreadCounters write = RunAs(7, [&] {
    memsys_->Write(vt_, p, 8);
  });
  EXPECT_EQ(sys_.replica_writes, 1u);
  EXPECT_EQ(sys_.replica_invalidations, 1u);
  EXPECT_EQ(sys_.replica_drops, 1u);
  EXPECT_EQ(r->pages[0].replica_mask, 0u);
  EXPECT_EQ(memsys_->os()->replica_bytes_total(), 0u);
  EXPECT_EQ(write.remote_dram, 1u);  // the store itself went to the home

  // Post-invalidation reads go remote again.
  perf::ThreadCounters after = RunAs(6, [&] {
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      memsys_->Read(vt_, p + l * kCacheLineBytes, 8);
    }
  });
  EXPECT_EQ(after.local_dram, 0u);
  EXPECT_EQ(after.remote_dram, kLinesPerPage);
  EXPECT_EQ(sys_.replica_reads, kLinesPerPage);  // unchanged
}

// End-to-end through the sampling hook: a read-hot page faulted repeatedly
// from a remote node earns a replica there once the benefit model clears,
// and later reads are local.
TEST_F(PlacementTest, SustainedRemoteReadsEarnAReplica) {
  memsys_->SetAutoNumaSampling(true);
  memsys_->ArmAutoNumaWave();
  Region* r = memsys_->os()->TryMap(kSmallPageBytes, /*thp_eligible=*/false);
  char* p = reinterpret_cast<char*>(r->base);
  RunAs(0, [&] { memsys_->Read(vt_, p, kCacheLineBytes); });
  ASSERT_EQ(r->pages[0].node, 0);

  // 40 passes x 64 lines: one hinting fault per pass, so heat, the read
  // sample and the visit count all clear their thresholds well before the
  // end, and the per-visit benefit overtakes the copy cost.
  perf::ThreadCounters t = RunAs(6, [&] {
    for (int pass = 0; pass < 40; ++pass) {
      for (uint64_t l = 0; l < kLinesPerPage; ++l) {
        memsys_->Read(vt_, p + l * kCacheLineBytes, 8);
      }
    }
  });
  EXPECT_EQ(sys_.pages_replicated, 1u);
  EXPECT_NE(r->pages[0].replica_mask & (1u << 3), 0u);
  EXPECT_GT(t.local_dram, 0u);       // post-replication lines served locally
  EXPECT_GT(sys_.replica_reads, 0u);
  EXPECT_EQ(sys_.page_migrations, 0u);  // replicated pages never migrate
}

// A write-heavy page must never replicate: the read/write-ratio gate keeps
// ping-ponging pages out of the replica pool.
TEST_F(PlacementTest, WriteHeavyPageIsNotReplicated) {
  memsys_->SetAutoNumaSampling(true);
  memsys_->ArmAutoNumaWave();
  Region* r = memsys_->os()->TryMap(kSmallPageBytes, /*thp_eligible=*/false);
  char* p = reinterpret_cast<char*>(r->base);
  RunAs(0, [&] { memsys_->Read(vt_, p, kCacheLineBytes); });

  // Alternate whole read passes with whole write passes so the sampled
  // faults see both kinds: the read/write-ratio gate never clears.
  RunAs(6, [&] {
    for (int pass = 0; pass < 40; ++pass) {
      for (uint64_t l = 0; l < kLinesPerPage; ++l) {
        memsys_->Access(vt_, p + l * kCacheLineBytes, 8,
                        /*write=*/(pass % 2) == 0);
      }
    }
  });
  EXPECT_EQ(sys_.pages_replicated, 0u);
}

// Sampling aliasing: a per-line read/write pattern whose writes never land
// on a sampled fault would look read-only to the gate. The invalidation
// path feeds observed writes back into the sample, so the churn
// self-limits instead of re-replicating every pass for the whole run.
TEST_F(PlacementTest, PingPongChurnSelfLimits) {
  memsys_->SetAutoNumaSampling(true);
  memsys_->ArmAutoNumaWave();
  Region* r = memsys_->os()->TryMap(kSmallPageBytes, /*thp_eligible=*/false);
  char* p = reinterpret_cast<char*>(r->base);
  RunAs(0, [&] { memsys_->Read(vt_, p, kCacheLineBytes); });

  RunAs(6, [&] {
    for (int pass = 0; pass < 200; ++pass) {
      for (uint64_t l = 0; l < kLinesPerPage; ++l) {
        memsys_->Access(vt_, p + l * kCacheLineBytes, 8,
                        /*write=*/(l % 2) == 0);
      }
    }
  });
  // Some churn is expected (the first replications happen before enough
  // writes are observed), but each invalidation raises the bar, so the
  // page settles far below one replication per pass.
  EXPECT_EQ(sys_.replica_invalidations, sys_.pages_replicated);
  EXPECT_LT(sys_.pages_replicated, 10u);
}

TEST_F(PlacementTest, CapacityPressureDropsReplicasBeforeSpilling) {
  faultlab::FaultPlan plan;
  plan.node_capacity_bytes = 4 * kSmallPageBytes;
  faultlab::FaultLab fl(plan, /*seed=*/42, /*run_index=*/0, &sys_);
  memsys_->os()->SetFaultLab(&fl);

  // Two pages homed on node 0, each with a replica on node 1: half of
  // node 1's capacity is droppable copies.
  memsys_->os()->SetPolicy(MemPolicy::kPreferred, 0);
  Region* hot = memsys_->os()->TryMap(2 * kSmallPageBytes,
                                      /*thp_eligible=*/false);
  char* p = reinterpret_cast<char*>(hot->base);
  RunAs(0, [&] {
    memsys_->Read(vt_, p, kCacheLineBytes);
    memsys_->Read(vt_, p + kSmallPageBytes, kCacheLineBytes);
  });
  ASSERT_TRUE(memsys_->os()->AddReplica(hot, 0, 1));
  ASSERT_TRUE(memsys_->os()->AddReplica(hot, 1, 1));
  EXPECT_EQ(memsys_->os()->replica_bytes(1), 2 * kSmallPageBytes);

  // Four real pages bound to node 1 need the whole node: the two replicas
  // are reclaimed and no real page spills anywhere.
  memsys_->os()->SetPolicy(MemPolicy::kPreferred, 1);
  Region* cold = memsys_->os()->TryMap(4 * kSmallPageBytes,
                                       /*thp_eligible=*/false);
  for (const auto& pg : cold->pages) EXPECT_EQ(pg.node, 1);
  EXPECT_EQ(sys_.replica_drops, 2u);
  EXPECT_EQ(hot->pages[0].replica_mask, 0u);
  EXPECT_EQ(hot->pages[1].replica_mask, 0u);
  EXPECT_EQ(memsys_->os()->replica_bytes(1), 0u);
  EXPECT_EQ(sys_.pages_spilled, 0u);
  EXPECT_EQ(sys_.oom_last_resort_pages, 0u);
}

TEST_F(PlacementTest, AddReplicaRefusesHomeNodeDuplicatesAndFullNodes) {
  Region* r = memsys_->os()->TryMap(kSmallPageBytes, /*thp_eligible=*/false);
  char* p = reinterpret_cast<char*>(r->base);
  RunAs(0, [&] { memsys_->Read(vt_, p, kCacheLineBytes); });

  EXPECT_FALSE(memsys_->os()->AddReplica(r, 0, 0));  // home node
  EXPECT_TRUE(memsys_->os()->AddReplica(r, 0, 2));
  EXPECT_FALSE(memsys_->os()->AddReplica(r, 0, 2));  // already replicated
  EXPECT_EQ(sys_.pages_replicated, 1u);

  // Replicas are opportunistic: a full node refuses them outright rather
  // than spilling real pages.
  faultlab::FaultPlan plan;
  plan.node_capacity_bytes = kSmallPageBytes;
  faultlab::FaultLab fl(plan, 42, 0, &sys_);
  memsys_->os()->SetFaultLab(&fl);
  memsys_->os()->SetPolicy(MemPolicy::kPreferred, 5);
  memsys_->os()->TryMap(kSmallPageBytes, /*thp_eligible=*/false);  // fills 5
  EXPECT_FALSE(memsys_->os()->AddReplica(r, 0, 5));
}

// ---------------------------------------------------------------------------
// Workload-level contracts.

workloads::RunConfig PlacementConfig_() {
  workloads::RunConfig c;
  c.machine = "A";
  c.threads = 8;
  c.affinity = osmodel::Affinity::kSparse;
  c.policy = MemPolicy::kFirstTouch;
  c.allocator = "ptmalloc";
  c.autonuma = false;  // placement implies the daemon on its own
  c.thp = false;
  c.num_records = 50'000;
  c.cardinality = 512;
  c.build_rows = 10'000;
  c.probe_rows = 80'000;
  c.placement.enabled = true;
  return c;
}

TEST(PlacementWorkload, SameSeedIsBitReproducible) {
  workloads::RunConfig c = PlacementConfig_();
  workloads::RunResult a = workloads::RunW3HashJoin(c);
  workloads::RunResult b = workloads::RunW3HashJoin(c);
  EXPECT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.report.system.pages_replicated, b.report.system.pages_replicated);
  EXPECT_EQ(a.report.system.replica_reads, b.report.system.replica_reads);
  EXPECT_EQ(a.report.system.replica_invalidations,
            b.report.system.replica_invalidations);
  EXPECT_EQ(a.report.system.migrations_vetoed,
            b.report.system.migrations_vetoed);
  EXPECT_EQ(a.report.system.page_migrations, b.report.system.page_migrations);
}

TEST(PlacementWorkload, ScalarAndSpanPathsAgreeUnderPlacement) {
  workloads::RunConfig c = PlacementConfig_();
  workloads::RunResult span = workloads::RunW3HashJoin(c);
  c.scalar_mem_path = true;
  workloads::RunResult scalar = workloads::RunW3HashJoin(c);
  EXPECT_EQ(span.cycles, scalar.cycles);
  EXPECT_EQ(span.checksum, scalar.checksum);
  EXPECT_EQ(span.report.threads.local_dram, scalar.report.threads.local_dram);
  EXPECT_EQ(span.report.threads.remote_dram,
            scalar.report.threads.remote_dram);
  EXPECT_EQ(span.report.system.pages_replicated,
            scalar.report.system.pages_replicated);
  EXPECT_EQ(span.report.system.replica_reads,
            scalar.report.system.replica_reads);
  EXPECT_EQ(span.report.system.replica_invalidations,
            scalar.report.system.replica_invalidations);
  EXPECT_EQ(span.report.system.page_migrations,
            scalar.report.system.page_migrations);
}

// Placement disabled is the seed simulator: bit-identical to a run that
// never had the subsystem, with every replication counter zero.
TEST(PlacementWorkload, DisabledPlacementIsZeroCost) {
  workloads::RunConfig c = PlacementConfig_();
  c.placement.enabled = false;
  c.autonuma = true;  // exercise the stock sampling path
  workloads::RunResult r = workloads::RunW3HashJoin(c);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.report.system.pages_replicated, 0u);
  EXPECT_EQ(r.report.system.replica_reads, 0u);
  EXPECT_EQ(r.report.system.replica_writes, 0u);
  EXPECT_EQ(r.report.system.replica_drops, 0u);
  EXPECT_EQ(r.report.system.migrations_vetoed, 0u);
}

}  // namespace
}  // namespace mem
}  // namespace numalab

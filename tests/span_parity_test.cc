// Scalar-vs-span parity: the batched span engine behind MemSystem::Access /
// AccessSpan must be bit-identical to the unbatched scalar reference path —
// same ThreadCounters, same virtual clocks, same OS/cache side effects.
// Each test runs one access script through two freshly built simulation
// stacks, one per implementation, and compares everything observable.

#include <gtest/gtest.h>

#include <functional>

#include "src/mem/mem_system.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"
#include "src/workloads/run_config.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace mem {
namespace {

// One self-contained simulation stack (machine + engine + memsys) plus the
// results of running a script in it.
struct Stack {
  explicit Stack(bool scalar, CostModel costs = CostModel{})
      : machine(topology::MachineA()),
        memsys(&machine, &engine, costs, &sys) {
    memsys.SetScalarReference(scalar);
  }

  static sim::Task Body(const std::function<void(sim::VThread*)>& fn,
                        sim::VThread* vt) {
    fn(vt);
    co_return;
  }

  void RunAs(int hw, const std::function<void(sim::VThread*)>& fn) {
    engine.Spawn("t", hw, [&](sim::VThread* vt) { return Body(fn, vt); });
    engine.Run();
  }

  topology::Machine machine;
  sim::Engine engine;
  perf::SystemCounters sys;
  MemSystem memsys;
};

void ExpectSameCounters(const perf::ThreadCounters& a,
                        const perf::ThreadCounters& b) {
  for (const auto& f : perf::kThreadCounterFields) {
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
  }
}

// Script: gets the stack and the region mapped for it; issues accesses on
// the current thread. Run identically in a scalar and a span stack.
using Script = std::function<void(Stack&, Region*, sim::VThread*)>;

void RunBothWays(const Script& script, uint64_t map_bytes,
                 CostModel costs = CostModel{}, bool thp = false,
                 bool autonuma = false, int hw = 0) {
  Stack scalar(/*scalar=*/true, costs);
  Stack span(/*scalar=*/false, costs);
  for (Stack* s : {&scalar, &span}) {
    if (thp) s->memsys.os()->SetThpFaultAlloc(true);
    if (autonuma) s->memsys.SetAutoNumaSampling(true);
    Region* r = s->memsys.os()->TryMap(map_bytes);
    s->RunAs(hw, [&](sim::VThread* vt) { script(*s, r, vt); });
  }
  ASSERT_EQ(scalar.engine.threads().size(), span.engine.threads().size());
  for (size_t i = 0; i < scalar.engine.threads().size(); ++i) {
    const sim::VThread* a = scalar.engine.threads()[i].get();
    const sim::VThread* b = span.engine.threads()[i].get();
    EXPECT_EQ(a->clock, b->clock) << "thread " << i;
    ExpectSameCounters(a->counters, b->counters);
  }
  EXPECT_EQ(scalar.memsys.os()->resident_bytes(),
            span.memsys.os()->resident_bytes());
  EXPECT_EQ(scalar.sys.page_migrations, span.sys.page_migrations);
  EXPECT_EQ(scalar.sys.thp_collapses, span.sys.thp_collapses);
}

TEST(SpanParity, SingleBigReadColdThenWarm) {
  RunBothWays(
      [](Stack& s, Region* r, sim::VThread* vt) {
        s.memsys.AccessSpan(vt, r->host, r->len, 0, false);  // cold
        s.memsys.AccessSpan(vt, r->host, r->len, 0, false);  // warm
      },
      1 << 20);
}

TEST(SpanParity, StridedElementsAcrossLinesAndPages) {
  for (uint64_t stride : {8ULL, 16ULL, 64ULL, 96ULL, 100ULL, 4096ULL}) {
    RunBothWays(
        [stride](Stack& s, Region* r, sim::VThread* vt) {
          s.memsys.AccessSpan(vt, r->host, 3 * kSmallPageBytes + 40, stride,
                              true);
        },
        1 << 20);
  }
}

TEST(SpanParity, MisalignedStartAndLineStraddle) {
  RunBothWays(
      [](Stack& s, Region* r, sim::VThread* vt) {
        s.memsys.AccessSpan(vt, r->host + 60, 2 * kSmallPageBytes, 8, false);
        s.memsys.AccessSpan(vt, r->host + 7, 777, 13, true);
        s.memsys.Read(vt, r->host + kSmallPageBytes - 4, 8);  // page straddle
      },
      1 << 20);
}

TEST(SpanParity, SpanEqualsLoopOfScalarAccesses) {
  // Also pin down the *definition*: AccessSpan == the loop, on both paths.
  for (bool scalar : {false, true}) {
    Stack loop(scalar);
    Stack span(scalar);
    uint64_t bytes = 2 * kSmallPageBytes + 100;
    uint64_t stride = 24;
    Region* rl = loop.memsys.os()->TryMap(1 << 20);
    Region* rs = span.memsys.os()->TryMap(1 << 20);
    loop.RunAs(0, [&](sim::VThread* vt) {
      for (uint64_t off = 0; off < bytes; off += stride) {
        loop.memsys.Access(vt, rl->host + off,
                           std::min(stride, bytes - off), false);
      }
    });
    span.RunAs(0, [&](sim::VThread* vt) {
      span.memsys.AccessSpan(vt, rs->host, bytes, stride, false);
    });
    EXPECT_EQ(loop.engine.threads()[0]->clock,
              span.engine.threads()[0]->clock)
        << "scalar=" << scalar;
    ExpectSameCounters(loop.engine.threads()[0]->counters,
                       span.engine.threads()[0]->counters);
  }
}

TEST(SpanParity, AblationSwitches) {
  for (int mask = 0; mask < 8; ++mask) {
    CostModel costs;
    costs.model_caches = (mask & 1) != 0;
    costs.model_tlb = (mask & 2) != 0;
    costs.model_contention = (mask & 4) != 0;
    RunBothWays(
        [](Stack& s, Region* r, sim::VThread* vt) {
          s.memsys.AccessSpan(vt, r->host, 64 * kSmallPageBytes, 8, false);
          s.memsys.AccessSpan(vt, r->host, 64 * kSmallPageBytes, 0, false);
        },
        1 << 20, costs);
  }
}

TEST(SpanParity, ThpHugePagesAndRemoteNode) {
  RunBothWays(
      [](Stack& s, Region* r, sim::VThread* vt) {
        s.memsys.AccessSpan(vt, r->host, 3ULL << 20, 0, true);
        s.memsys.AccessSpan(vt, r->host + 12345, 1 << 20, 40, false);
      },
      8ULL << 20, CostModel{}, /*thp=*/true, /*autonuma=*/false,
      /*hw=*/15);  // node 7 accessor: every line remote once bound
}

TEST(SpanParity, InterleavedPolicyAlternatesNodes) {
  Stack scalar(true);
  Stack span(false);
  for (Stack* s : {&scalar, &span}) {
    s->memsys.os()->SetPolicy(MemPolicy::kInterleave);
    Region* r = s->memsys.os()->TryMap(1 << 20);
    s->RunAs(0, [&](sim::VThread* vt) {
      // 4K interleave: the page memo and contention route flip every page.
      s->memsys.AccessSpan(vt, r->host, 64 * kSmallPageBytes, 0, false);
      s->memsys.AccessSpan(vt, r->host, 64 * kSmallPageBytes, 8, false);
    });
  }
  EXPECT_EQ(scalar.engine.threads()[0]->clock,
            span.engine.threads()[0]->clock);
  ExpectSameCounters(scalar.engine.threads()[0]->counters,
                     span.engine.threads()[0]->counters);
}

TEST(SpanParity, AutoNumaSamplingAndMigration) {
  // Bind pages from node 0, then hammer them from node 7 with sampling on:
  // hinting faults fire, pages migrate mid-span, TLB shootdowns invalidate
  // the span memos. Two threads run sequentially in each stack.
  RunBothWays(
      [](Stack& s, Region* r, sim::VThread* vt) {
        s.memsys.AccessSpan(vt, r->host, 512 * 1024, 0, true);  // bind local
      },
      4ULL << 20, CostModel{}, false, /*autonuma=*/true, /*hw=*/0);

  Stack scalar(true);
  Stack span(false);
  for (Stack* s : {&scalar, &span}) {
    s->memsys.SetAutoNumaSampling(true);
    Region* r = s->memsys.os()->TryMap(4ULL << 20);
    s->RunAs(0, [&](sim::VThread* vt) {
      s->memsys.AccessSpan(vt, r->host, 512 * 1024, 0, true);
    });
    s->RunAs(15, [&](sim::VThread* vt) {
      for (int rep = 0; rep < 40; ++rep) {
        s->memsys.AccessSpan(vt, r->host, 512 * 1024, 128, false);
      }
    });
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(scalar.engine.threads()[i]->clock,
              span.engine.threads()[i]->clock)
        << "thread " << i;
    ExpectSameCounters(scalar.engine.threads()[i]->counters,
                       span.engine.threads()[i]->counters);
  }
  EXPECT_EQ(scalar.sys.page_migrations, span.sys.page_migrations);
  EXPECT_GT(span.engine.threads()[1]->counters.hinting_faults, 0u);
}

// End-to-end: full W1 and W3 runs (threads, scheduler, allocator, daemons)
// must produce identical makespans, checksums and aggregate counters under
// both implementations. This is the determinism contract of the tentpole.
void ExpectSameRun(const workloads::RunResult& a,
                   const workloads::RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.resident_peak, b.resident_peak);
  EXPECT_EQ(a.requested_peak, b.requested_peak);
  ExpectSameCounters(a.report.threads, b.report.threads);
  EXPECT_EQ(a.report.system.page_migrations, b.report.system.page_migrations);
  EXPECT_EQ(a.report.system.thp_collapses, b.report.system.thp_collapses);
}

workloads::RunConfig SmallConfig() {
  workloads::RunConfig c;
  c.threads = 8;
  c.num_records = 200'000;
  c.cardinality = 2'000;
  c.build_rows = 20'000;
  c.probe_rows = 200'000;
  return c;
}

TEST(SpanParityEndToEnd, W1HolisticAggregation) {
  workloads::RunConfig fast = SmallConfig();
  workloads::RunConfig ref = SmallConfig();
  ref.scalar_mem_path = true;
  ExpectSameRun(workloads::RunW1HolisticAggregation(ref),
                workloads::RunW1HolisticAggregation(fast));
}

TEST(SpanParityEndToEnd, W3HashJoin) {
  workloads::RunConfig fast = SmallConfig();
  workloads::RunConfig ref = SmallConfig();
  ref.scalar_mem_path = true;
  ExpectSameRun(workloads::RunW3HashJoin(ref),
                workloads::RunW3HashJoin(fast));
}

}  // namespace
}  // namespace mem
}  // namespace numalab

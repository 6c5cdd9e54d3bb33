// Correctness tests for the four W4 index structures, exercised through a
// minimal simulation context (the indexes need an allocator and charging).
// Parameterized across index types: identical behaviour contract.

#include <map>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/index/index.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace index {
namespace {

using workloads::Env;
using workloads::RunConfig;
using workloads::SimContext;

class IndexTest : public ::testing::TestWithParam<const char*> {
 protected:
  IndexTest() : ctx_(MakeConfig()) {}

  static RunConfig MakeConfig() {
    RunConfig c;
    c.machine = "B";
    c.threads = 1;
    c.affinity = osmodel::Affinity::kSparse;
    c.autonuma = false;
    c.thp = false;
    return c;
  }

  // A named coroutine function: parameters live in the coroutine frame, so
  // (unlike a coroutine *lambda*) nothing dangles after the factory returns.
  static sim::Task BodyCoro(const std::function<void(Env&)>& body,
                            Env& env) {
    body(env);
    co_return;
  }

  // Runs `body` inside a single worker coroutine so charging works.
  void RunInSim(const std::function<void(Env&)>& body) {
    ctx_.SpawnWorkers([&body](Env& env) { return BodyCoro(body, env); });
    workloads::RunResult r;
    ctx_.Finish(&r);
  }

  SimContext ctx_;
};

TEST_P(IndexTest, InsertLookupRoundTrip) {
  auto idx = MakeIndex(GetParam(), /*seed=*/7);
  RunInSim([&](Env& env) {
    for (uint64_t k = 0; k < 2000; ++k) {
      idx->Insert(env, k * 3, k + 100);
    }
    uint64_t v = 0;
    for (uint64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(idx->Lookup(env, k * 3, &v)) << GetParam() << " key "
                                               << k * 3;
      EXPECT_EQ(v, k + 100);
    }
    // Keys between the inserted ones are absent.
    EXPECT_FALSE(idx->Lookup(env, 1, &v));
    EXPECT_FALSE(idx->Lookup(env, 3001 * 3, &v));
  });
}

TEST_P(IndexTest, OverwriteUpdatesValue) {
  auto idx = MakeIndex(GetParam(), 7);
  RunInSim([&](Env& env) {
    idx->Insert(env, 42, 1);
    idx->Insert(env, 42, 2);
    uint64_t v = 0;
    ASSERT_TRUE(idx->Lookup(env, 42, &v));
    EXPECT_EQ(v, 2u);
  });
}

TEST_P(IndexTest, RandomKeysMatchStdMap) {
  auto idx = MakeIndex(GetParam(), 7);
  RunInSim([&](Env& env) {
    Rng rng(99);
    std::map<uint64_t, uint64_t> ref;
    for (int i = 0; i < 5000; ++i) {
      uint64_t k = rng.Next();  // full 64-bit range
      uint64_t v = rng.Next();
      ref[k] = v;
      idx->Insert(env, k, v);
    }
    for (const auto& [k, v] : ref) {
      uint64_t got = 0;
      ASSERT_TRUE(idx->Lookup(env, k, &got)) << GetParam();
      EXPECT_EQ(got, v);
    }
    for (int i = 0; i < 1000; ++i) {
      uint64_t k = rng.Next();
      uint64_t got = 0;
      if (ref.count(k) == 0) {
        EXPECT_FALSE(idx->Lookup(env, k, &got));
      }
    }
  });
}

TEST_P(IndexTest, DenseSequentialKeys) {
  auto idx = MakeIndex(GetParam(), 7);
  RunInSim([&](Env& env) {
    for (uint64_t k = 0; k < 20000; ++k) idx->Insert(env, k, ~k);
    uint64_t v = 0;
    for (uint64_t k = 0; k < 20000; k += 97) {
      ASSERT_TRUE(idx->Lookup(env, k, &v));
      EXPECT_EQ(v, ~k);
    }
    EXPECT_FALSE(idx->Lookup(env, 20001, &v));
  });
}

TEST_P(IndexTest, BoundaryKeys) {
  auto idx = MakeIndex(GetParam(), 7);
  RunInSim([&](Env& env) {
    const uint64_t keys[] = {0, 1, 255, 256, 65535, 65536, ~0ULL,
                             ~0ULL - 1, 1ULL << 63};
    uint64_t tag = 1;
    for (uint64_t k : keys) idx->Insert(env, k, tag++);
    tag = 1;
    uint64_t v = 0;
    for (uint64_t k : keys) {
      ASSERT_TRUE(idx->Lookup(env, k, &v)) << GetParam() << " key " << k;
      EXPECT_EQ(v, tag++);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexTest,
                         ::testing::Values("art", "masstree", "btree",
                                           "skiplist"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace index
}  // namespace numalab

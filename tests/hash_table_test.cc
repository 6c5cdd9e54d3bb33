// Tests for the shared concurrent chaining hash table (W1/W2/W3 substrate).

#include <map>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/index/hash_table.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace index {
namespace {

using workloads::Env;
using workloads::RunConfig;
using workloads::SimContext;

class HashTableTest : public ::testing::Test {
 protected:
  HashTableTest() : ctx_(Config()), env_(ctx_.MakeEnv()) {}
  static RunConfig Config() {
    RunConfig c;
    c.machine = "B";
    c.threads = 4;
    c.affinity = osmodel::Affinity::kSparse;
    c.autonuma = false;
    c.thp = false;
    return c;
  }
  static sim::Task Body(const std::function<void(Env&)>& fn, Env& env) {
    fn(env);
    co_return;
  }
  void RunWorkers(const std::function<void(Env&)>& fn) {
    ctx_.SpawnWorkers([&fn](Env& env) { return Body(fn, env); });
    workloads::RunResult r;
    ctx_.Finish(&r);
  }

  SimContext ctx_;
  Env env_;
};

TEST_F(HashTableTest, UpsertFindRoundTrip) {
  ConcurrentHashTable<uint64_t> table(env_, 1024);
  RunWorkers([&](Env& env) {
    if (env.worker_index != 0) return;
    for (uint64_t k = 0; k < 5000; ++k) {
      table.Upsert(env, k * 7)->value = k;
    }
    for (uint64_t k = 0; k < 5000; ++k) {
      auto* e = table.Find(env, k * 7);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->value, k);
    }
    EXPECT_EQ(table.Find(env, 3), nullptr);
  });
}

TEST_F(HashTableTest, UpsertIsIdempotentPerKey) {
  ConcurrentHashTable<uint64_t> table(env_, 64);
  RunWorkers([&](Env& env) {
    if (env.worker_index != 0) return;
    auto* a = table.Upsert(env, 99);
    a->value = 7;
    auto* b = table.Upsert(env, 99);
    EXPECT_EQ(a, b);
    EXPECT_EQ(b->value, 7u);
  });
}

TEST_F(HashTableTest, ConcurrentInsertsAllSurvive) {
  ConcurrentHashTable<uint64_t> table(env_, 4096);
  // 4 workers upsert disjoint and overlapping keys.
  RunWorkers([&](Env& env) {
    for (uint64_t k = 0; k < 4000; ++k) {
      auto* e = table.Upsert(env, k % 2000);  // heavy sharing
      e->value += 1;
    }
  });
  // Host-side verification via ForEach.
  uint64_t sum = 0, groups = 0;
  RunWorkers([&](Env& env) {
    if (env.worker_index != 0) return;
    table.ForEachInBuckets(env, 0, table.nbuckets(), [&](auto* e) {
      sum += e->value;
      ++groups;
    });
  });
  EXPECT_EQ(groups, 2000u);
  EXPECT_EQ(sum, 4u * 4000u);
}

TEST_F(HashTableTest, BucketCountRoundsUpToPowerOfTwo) {
  ConcurrentHashTable<uint64_t> t1(env_, 1000);
  EXPECT_EQ(t1.nbuckets(), 1024u);
  ConcurrentHashTable<uint64_t> t2(env_, 1024);
  EXPECT_EQ(t2.nbuckets(), 1024u);
}

}  // namespace
}  // namespace index
}  // namespace numalab

// Tests for the minidb engine and its TPC-H queries: reference answers for
// queries with easily computed host-side results, cross-profile result
// agreement, and determinism.

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "src/minidb/runner.h"
#include "src/minidb/tpch_gen.h"

namespace numalab {
namespace minidb {
namespace {

constexpr double kScale = 0.01;

TpchOptions Opts(int q, const char* profile = "columnar-vec",
                 bool tuned = true) {
  TpchOptions o;
  o.query = q;
  o.profile = profile;
  o.scale = kScale;
  o.tuned = tuned;
  return o;
}

TEST(TpchGen, CardinalitiesScale) {
  const HostDb& h = GenerateTpch(kScale);
  EXPECT_EQ(h.r_regionkey.size(), 5u);
  EXPECT_EQ(h.n_nationkey.size(), 25u);
  EXPECT_EQ(h.c_custkey.size(), 1500u);
  EXPECT_EQ(h.o_orderkey.size(), 15000u);
  EXPECT_EQ(h.p_partkey.size(), 2000u);
  EXPECT_EQ(h.ps_partkey.size(), 8000u);
  // lineitem: 1..7 lines per order, expectation 4.
  EXPECT_GT(h.l_orderkey.size(), 3 * h.o_orderkey.size());
  EXPECT_LT(h.l_orderkey.size(), 7 * h.o_orderkey.size());
}

TEST(TpchGen, DateHelper) {
  EXPECT_EQ(Date(1992, 1, 1), 0);
  EXPECT_EQ(Date(1992, 2, 1), 31);
  EXPECT_EQ(Date(1993, 1, 1), 366);  // 1992 is a leap year
  EXPECT_EQ(Date(1998, 12, 31) - Date(1998, 12, 1), 30);
}

TEST(TpchGen, ForeignKeysValid) {
  const HostDb& h = GenerateTpch(kScale);
  uint64_t customers = h.c_custkey.size();
  uint64_t parts = h.p_partkey.size();
  uint64_t suppliers = h.s_suppkey.size();
  for (int64_t ck : h.o_custkey) {
    ASSERT_GE(ck, 1);
    ASSERT_LE(ck, static_cast<int64_t>(customers));
  }
  for (size_t i = 0; i < h.l_orderkey.size(); i += 97) {
    ASSERT_GE(h.l_partkey[i], 1);
    ASSERT_LE(h.l_partkey[i], static_cast<int64_t>(parts));
    ASSERT_GE(h.l_suppkey[i], 1);
    ASSERT_LE(h.l_suppkey[i], static_cast<int64_t>(suppliers));
    // The line's supplier is one of the part's four partsupp suppliers.
    uint64_t base = static_cast<uint64_t>(h.l_partkey[i] - 1) * 4;
    bool found = false;
    for (int j = 0; j < 4; ++j) found |= h.ps_suppkey[base + j] == h.l_suppkey[i];
    ASSERT_TRUE(found);
  }
}

double ReferenceQ6() {
  const HostDb& h = GenerateTpch(kScale);
  const int64_t y94 = Date(1994, 1, 1), y95 = Date(1995, 1, 1);
  double sum = 0;
  for (size_t i = 0; i < h.l_shipdate.size(); ++i) {
    if (h.l_shipdate[i] >= y94 && h.l_shipdate[i] < y95 &&
        h.l_discount[i] >= 0.049 && h.l_discount[i] <= 0.071 &&
        h.l_quantity[i] < 24) {
      sum += h.l_extendedprice[i] * h.l_discount[i];
    }
  }
  return sum;
}

TEST(TpchQueries, Q6MatchesReference) {
  TpchResult r = RunTpch(Opts(6));
  EXPECT_NEAR(r.out.digest, ReferenceQ6(), 1e-6 * std::abs(ReferenceQ6()));
}

TEST(TpchQueries, Q1MatchesReference) {
  const HostDb& h = GenerateTpch(kScale);
  const int64_t cutoff = Date(1998, 9, 2);
  std::map<int64_t, std::pair<double, uint64_t>> groups;  // charge, count
  for (size_t i = 0; i < h.l_shipdate.size(); ++i) {
    if (h.l_shipdate[i] > cutoff) continue;
    auto& g = groups[h.l_returnflag[i] * 2 + h.l_linestatus[i]];
    g.first += h.l_extendedprice[i] * (1 - h.l_discount[i]) *
               (1 + h.l_tax[i]);
    g.second += 1;
  }
  double expect = 0;
  for (auto& [k, g] : groups) {
    expect += static_cast<double>(k + 1) * (g.first / 1e6) +
              static_cast<double>(g.second);
  }
  TpchResult r = RunTpch(Opts(1));
  EXPECT_EQ(r.out.rows, groups.size());
  EXPECT_NEAR(r.out.digest, expect, 1e-9 * std::abs(expect));
}

TEST(TpchQueries, Q18MatchesReference) {
  const HostDb& h = GenerateTpch(kScale);
  std::map<int64_t, double> qty;
  for (size_t i = 0; i < h.l_orderkey.size(); ++i) {
    qty[h.l_orderkey[i]] += static_cast<double>(h.l_quantity[i]);
  }
  std::vector<double> totals;
  for (auto& [okey, s] : qty) {
    if (s > 300.0) totals.push_back(h.o_totalprice[okey - 1]);
  }
  std::sort(totals.rbegin(), totals.rend());
  double expect = 0;
  uint64_t n = std::min<uint64_t>(totals.size(), 100);
  for (uint64_t i = 0; i < n; ++i) expect += totals[i];
  TpchResult r = RunTpch(Opts(18));
  EXPECT_EQ(r.out.rows, n);
  EXPECT_NEAR(r.out.digest, expect, 1e-9 * std::max(1.0, std::abs(expect)));
}

// The columnar-vec answer and warm-run cycles of every query at kScale,
// tuned. The cross-profile check below cannot see a change that moves all
// profiles alike; these exact values can, and `cycles` also moves when the
// column allocation order does.
struct Pinned {
  int query;
  uint64_t rows;
  double digest;
  uint64_t cycles;
};
constexpr Pinned kPinned[] = {
    {1, 4, 59915.407473576437, 3011687},
    {2, 4, 11706.259729524972, 2761037},
    {3, 10, 201529.97650000002, 3160424},
    {4, 5, 1556, 3563695},
    {5, 5, 258670.41639999996, 3092753},
    {6, 1, 118678.68300000002, 234440},
    {7, 4, 250440.6483, 2887274},
    {8, 2, 3991, 3050363},
    {9, 133, 8693.2982700675038, 3012408},
    {10, 20, 577444.23518493818, 3057258},
    {11, 27, 188489286.78578827, 2750411},
    {12, 2, 7938, 3041967},
    {13, 23, 14852, 3902074},
    {14, 1, 18.799442119602329, 90386},
    {15, 1, 143569.83939999997, 2884473},
    {16, 285, 142013, 3090486},
    {17, 1, 713.27857142857135, 3247360},
    {18, 1, 45967.288601999993, 20859573},
    {19, 1, 3383.8449999999998, 250102},
    {20, 0, 0, 5524303},
    {21, 3, 179, 21309921},
    {22, 0, 0, 3396823},
};

TEST(TpchQueries, All22RunOnAllProfiles) {
  for (int q = 1; q <= 22; ++q) {
    TpchResult base = RunTpch(Opts(q, "columnar-vec"));
    const Pinned& pin = kPinned[q - 1];
    ASSERT_EQ(pin.query, q);
    EXPECT_EQ(base.out.rows, pin.rows) << "Q" << q;
    EXPECT_EQ(base.out.digest, pin.digest) << "Q" << q;
    EXPECT_EQ(base.cycles, pin.cycles) << "Q" << q;
    for (const char* prof : {"row-mp", "row-st", "hybrid-par",
                             "hybrid-vec"}) {
      TpchResult r = RunTpch(Opts(q, prof));
      // Same query, same data: identical answers regardless of profile.
      EXPECT_EQ(r.out.rows, base.out.rows) << "Q" << q << " " << prof;
      EXPECT_NEAR(r.out.digest, base.out.digest,
                  1e-6 * std::max(1.0, std::abs(base.out.digest)))
          << "Q" << q << " " << prof;
    }
  }
}

TEST(TpchQueries, DeterministicAcrossRuns) {
  TpchResult a = RunTpch(Opts(5));
  TpchResult b = RunTpch(Opts(5));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.out.digest, b.out.digest);
}

TEST(TpchQueries, DefaultEnvironmentRunsToCompletion) {
  TpchResult r = RunTpch(Opts(3, "columnar-vec", /*tuned=*/false));
  TpchResult t = RunTpch(Opts(3, "columnar-vec", /*tuned=*/true));
  EXPECT_EQ(r.out.rows, t.out.rows);
  EXPECT_NEAR(r.out.digest, t.out.digest,
              1e-6 * std::max(1.0, std::abs(t.out.digest)));
}

TEST(Profiles, WorkerPolicies) {
  const auto& monet = ProfileByName("MonetDB");
  EXPECT_EQ(monet.WorkersFor(1, 16), 16);
  const auto& pg = ProfileByName("PostgreSQL");
  EXPECT_EQ(pg.WorkersFor(1, 16), 4);
  EXPECT_EQ(pg.WorkersFor(17, 16), 1);  // rigid subquery plans
  const auto& mysql = ProfileByName("MySQL");
  EXPECT_EQ(mysql.WorkersFor(1, 16), 1);
}

}  // namespace
}  // namespace minidb
}  // namespace numalab

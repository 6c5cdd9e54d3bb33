#include "src/minidb/tpch_gen.h"

#include <map>
#include <memory>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace minidb {

namespace {

constexpr int kDaysPerMonth[] = {31, 28, 31, 30, 31, 30,
                                 31, 31, 30, 31, 30, 31};

bool IsLeap(int year) {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

}  // namespace

int64_t Date(int year, int month, int day) {
  NUMALAB_CHECK(year >= 1992 && year <= 1999);
  int64_t days = 0;
  for (int y = 1992; y < year; ++y) days += IsLeap(y) ? 366 : 365;
  for (int m = 1; m < month; ++m) {
    days += kDaysPerMonth[m - 1];
    if (m == 2 && IsLeap(year)) ++days;
  }
  return days + day - 1;
}

const HostDb& GenerateTpch(double scale, uint64_t seed) {
  static std::map<std::pair<double, uint64_t>, std::unique_ptr<HostDb>>
      cache;
  auto key = std::make_pair(scale, seed);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto db = std::make_unique<HostDb>();
  HostDb& h = *db;
  Rng rng(seed);

  auto money = [&rng](double lo, double hi) {
    return lo + rng.NextDouble() * (hi - lo);
  };

  // --- region / nation (fixed) ---
  for (int64_t r = 0; r < 5; ++r) {
    h.r_regionkey.push_back(r);
    h.r_name.push_back(r);
  }
  for (int64_t n = 0; n < 25; ++n) {
    h.n_nationkey.push_back(n);
    h.n_name.push_back(n);
    h.n_regionkey.push_back(n % 5);
  }

  // --- supplier: 10,000 x SF ---
  uint64_t suppliers = std::max<uint64_t>(
      static_cast<uint64_t>(10000 * scale), 25);
  for (uint64_t i = 0; i < suppliers; ++i) {
    h.s_suppkey.push_back(static_cast<int64_t>(i + 1));
    h.s_nationkey.push_back(static_cast<int64_t>(rng.Uniform(25)));
    h.s_acctbal.push_back(money(-999.99, 9999.99));
    // Q16's '%Customer%Complaints%' hits ~5 of 10k suppliers.
    h.s_comment_complaints.push_back(rng.Bernoulli(0.0005) ? 1 : 0);
  }

  // --- customer: 150,000 x SF ---
  uint64_t customers = std::max<uint64_t>(
      static_cast<uint64_t>(150000 * scale), 100);
  for (uint64_t i = 0; i < customers; ++i) {
    int64_t nation = static_cast<int64_t>(rng.Uniform(25));
    h.c_custkey.push_back(static_cast<int64_t>(i + 1));
    h.c_nationkey.push_back(nation);
    h.c_acctbal.push_back(money(-999.99, 9999.99));
    h.c_mktsegment.push_back(static_cast<int64_t>(rng.Uniform(5)));
    h.c_cntrycode.push_back(nation + 10);  // leading phone digits
  }

  // --- part: 200,000 x SF ---
  uint64_t parts = std::max<uint64_t>(
      static_cast<uint64_t>(200000 * scale), 200);
  for (uint64_t i = 0; i < parts; ++i) {
    h.p_partkey.push_back(static_cast<int64_t>(i + 1));
    h.p_brand.push_back(static_cast<int64_t>(rng.Uniform(25)));
    h.p_type.push_back(static_cast<int64_t>(rng.Uniform(150)));
    h.p_size.push_back(static_cast<int64_t>(rng.Uniform(50)) + 1);
    h.p_container.push_back(static_cast<int64_t>(rng.Uniform(40)));
    h.p_color.push_back(static_cast<int64_t>(rng.Uniform(92)));
    h.p_retailprice.push_back(
        900.0 + static_cast<double>((i + 1) % 1000) / 10.0 +
        100.0 * static_cast<double>((i + 1) % 10));
  }

  // --- partsupp: 4 suppliers per part ---
  for (uint64_t i = 0; i < parts; ++i) {
    for (int j = 0; j < 4; ++j) {
      h.ps_partkey.push_back(static_cast<int64_t>(i + 1));
      uint64_t s = (i + 1 + static_cast<uint64_t>(j) *
                                (suppliers / 4 + 1)) % suppliers;
      h.ps_suppkey.push_back(static_cast<int64_t>(s + 1));
      h.ps_availqty.push_back(static_cast<int64_t>(rng.Uniform(9999)) + 1);
      h.ps_supplycost.push_back(money(1.0, 1000.0));
    }
  }

  // --- orders: 10 per customer (1,500,000 x SF); lineitem: 1..7 each ---
  uint64_t orders = customers * 10;
  const int64_t kLastOrderDate = Date(1998, 8, 2);
  for (uint64_t i = 0; i < orders; ++i) {
    int64_t okey = static_cast<int64_t>(i + 1);
    int64_t odate = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(kLastOrderDate + 1)));
    h.o_orderkey.push_back(okey);
    h.o_custkey.push_back(
        static_cast<int64_t>(rng.Uniform(customers)) + 1);
    h.o_orderdate.push_back(odate);
    h.o_orderpriority.push_back(static_cast<int64_t>(rng.Uniform(5)));
    h.o_comment_special.push_back(rng.Bernoulli(0.01) ? 1 : 0);

    int nlines = 1 + static_cast<int>(rng.Uniform(7));
    double total = 0.0;
    int finished = 0;
    for (int l = 0; l < nlines; ++l) {
      int64_t pkey = static_cast<int64_t>(rng.Uniform(parts)) + 1;
      // One of the part's four suppliers, as in dbgen.
      int pick = static_cast<int>(rng.Uniform(4));
      int64_t skey =
          h.ps_suppkey[static_cast<size_t>((pkey - 1) * 4 + pick)];
      int64_t qty = static_cast<int64_t>(rng.Uniform(50)) + 1;
      double price =
          h.p_retailprice[static_cast<size_t>(pkey - 1)] *
          static_cast<double>(qty) / 10.0;
      double disc = static_cast<double>(rng.Uniform(11)) / 100.0;  // 0..0.10
      double tax = static_cast<double>(rng.Uniform(9)) / 100.0;    // 0..0.08
      int64_t shipdate = odate + 1 + static_cast<int64_t>(rng.Uniform(121));
      int64_t commitdate =
          odate + 30 + static_cast<int64_t>(rng.Uniform(61));
      int64_t receiptdate =
          shipdate + 1 + static_cast<int64_t>(rng.Uniform(30));

      h.l_orderkey.push_back(okey);
      h.l_partkey.push_back(pkey);
      h.l_suppkey.push_back(skey);
      h.l_quantity.push_back(qty);
      h.l_extendedprice.push_back(price);
      h.l_discount.push_back(disc);
      h.l_tax.push_back(tax);
      // RETURNFLAG: R/A for old (shipped before a 1995 cutoff), N after.
      const int64_t kCutoff = Date(1995, 6, 17);
      int64_t rf;
      if (receiptdate <= kCutoff) {
        rf = rng.Bernoulli(0.5) ? 0 : 1;  // R or A
      } else {
        rf = 2;  // N
      }
      h.l_returnflag.push_back(rf);
      int64_t ls = shipdate > kCutoff ? 1 : 0;  // O vs F, approximately
      h.l_linestatus.push_back(ls);
      if (ls == 0) ++finished;
      h.l_shipdate.push_back(shipdate);
      h.l_commitdate.push_back(commitdate);
      h.l_receiptdate.push_back(receiptdate);
      h.l_shipmode.push_back(static_cast<int64_t>(rng.Uniform(7)));
      h.l_shipinstruct.push_back(static_cast<int64_t>(rng.Uniform(4)));
      total += price * (1.0 - disc) * (1.0 + tax);
    }
    h.o_totalprice.push_back(total);
    // Order status follows its lines: F if all finished, O if none, else P.
    h.o_orderstatus.push_back(finished == nlines ? 0
                              : finished == 0    ? 1
                                                 : 2);
  }

  const HostDb& ref = *db;
  cache[key] = std::move(db);
  return ref;
}

Database LoadTpch(const HostDb& h, workloads::SimContext* ctx) {
  Database db;
#define NUMALAB_LOAD_COLUMN(type, name) \
  t.rows = h.name.size();               \
  t.name = ctx->CopyInput(h.name);
#define NUMALAB_LOAD_TABLE(Type, member, COLUMNS) \
  {                                               \
    Type& t = db.member;                          \
    COLUMNS(NUMALAB_LOAD_COLUMN)                  \
  }
  NUMALAB_TPCH_TABLES(NUMALAB_LOAD_TABLE)
#undef NUMALAB_LOAD_TABLE
#undef NUMALAB_LOAD_COLUMN
  return db;
}

}  // namespace minidb
}  // namespace numalab

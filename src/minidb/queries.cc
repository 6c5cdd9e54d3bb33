#include "src/minidb/queries.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/minidb/tpch_gen.h"

namespace numalab {
namespace minidb {

namespace {

using workloads::Env;

// Dictionary constants (see tpch_gen.h):
constexpr int64_t kSegBuilding = 1;
constexpr int64_t kRegionAsia = 2;
constexpr int64_t kRegionAmerica = 1;
constexpr int64_t kRegionEurope = 3;
constexpr int64_t kNationFrance = 6;
constexpr int64_t kNationGermany = 7;
constexpr int64_t kNationBrazil = 2;
constexpr int64_t kNationCanada = 3;
constexpr int64_t kNationSaudi = 20;
constexpr int64_t kFlagReturned = 0;        // l_returnflag = 'R'
constexpr int64_t kStatusF = 0;             // o_orderstatus = 'F'
constexpr int64_t kModeMail = 2, kModeShip = 5;
constexpr int64_t kModeAir = 0, kModeRegAir = 4;
constexpr int64_t kInstructDeliverInPerson = 1;
constexpr int64_t kColorGreen = 31, kColorForest = 27;
constexpr int64_t kTypeEconomyAnodizedSteel = 103;  // s1=4,s2=0,s3=3

int64_t RegionOfNation(int64_t nation) { return nation % 5; }
int64_t YearOfDay(int64_t day) {
  // Inverse of Date(): good enough for grouping by year.
  if (day < Date(1993, 1, 1)) return 1992;
  if (day < Date(1994, 1, 1)) return 1993;
  if (day < Date(1995, 1, 1)) return 1994;
  if (day < Date(1996, 1, 1)) return 1995;
  if (day < Date(1997, 1, 1)) return 1996;
  if (day < Date(1998, 1, 1)) return 1997;
  return 1998;
}

Phase Serial(std::function<void(QCtx&)> fn) {
  return Phase{0, [fn = std::move(fn)](QCtx& q, uint64_t, uint64_t) {
                 fn(q);
               }};
}

Phase Par(uint64_t rows,
          std::function<void(QCtx&, uint64_t, uint64_t)> body) {
  return Phase{rows, std::move(body)};
}

// This worker's table in `locals`, created on first use.
LocalAgg<AggVal>& Local(std::vector<LocalAgg<AggVal>>& locals, QCtx& q) {
  auto& l = locals[static_cast<size_t>(q.env->worker_index)];
  if (!l.initialized()) l.Init(*q.env, 512);
  return l;
}

// This worker's slot in a per-worker scalar accumulator.
double& Scalar(std::vector<double>& scalars, QCtx& q) {
  return scalars[static_cast<size_t>(q.env->worker_index)];
}

// The sum of all workers' slots, in worker order.
double Sum(const std::vector<double>& scalars) {
  double total = 0;
  for (double s : scalars) total += s;
  return total;
}

// How MergeLocals combines two workers' values of one key.
using Combine = void (*)(AggVal* dst, const AggVal* src);

void AddFields(AggVal* dst, const AggVal* src) {
  for (int i = 0; i < 6; ++i) dst->v[i] += src->v[i];
  for (int i = 0; i < 2; ++i) dst->c[i] += src->c[i];
}

// Merges all per-worker locals into one table with `combine`.
Phase MergeLocals(QueryState& st, Combine combine = AddFields,
                  std::vector<LocalAgg<AggVal>> QueryState::* which =
                      &QueryState::locals,
                  LocalAgg<AggVal> QueryState::* into = &QueryState::global) {
  return Serial([&st, combine, which, into](QCtx& q) {
    auto& dst = st.*into;
    if (!dst.initialized()) dst.Init(*q.env, 1024);
    for (auto& l : st.*which) {
      l.ForEach(*q.env, [&](uint64_t key, AggVal* src) {
        combine(dst.Upsert(*q.env, key), src);
      });
    }
  });
}

// What Fold and TopN take from one table entry; empty leaves it out.
using Value = std::optional<double>;

// Folds the entries of `table` that `term` maps to a value into a query
// answer: rows counts them, digest sums their values in slot order.
template <typename F>
QueryOutput Fold(QCtx& q, LocalAgg<AggVal>& table, F&& term) {
  QueryOutput out;
  table.ForEach(*q.env, [&](uint64_t key, AggVal* a) {
    Value v = term(key, a);
    if (!v.has_value()) return;
    out.digest += *v;
    ++out.rows;
  });
  return out;
}

// The final phase of a query whose answer is st.global folded by `term`.
template <typename F>
Phase FoldGlobal(QueryState& st, F term) {
  return Serial([&st, term](QCtx& q) { st.out = Fold(q, st.global, term); });
}

// (value, key) pairs, ranked by value.
using Ranked = std::vector<std::pair<double, uint64_t>>;

// The `n` largest of the values `rank` gives st.global's entries (entries
// it maps to no value are left out), in descending order. Charges the sort.
template <typename F>
Ranked TopN(QueryState& st, QCtx& q, uint64_t n, F&& rank) {
  Ranked rows;
  st.global.ForEach(*q.env, [&](uint64_t key, AggVal* a) {
    Value v = rank(key, a);
    if (v.has_value()) rows.emplace_back(*v, key);
  });
  ChargeSort(q, rows.size(), 16);
  std::sort(rows.rbegin(), rows.rend());
  rows.resize(std::min<uint64_t>(rows.size(), n));
  return rows;
}

// Creates a shared hash table sized for ~n entries.
Phase MakeHt(QueryState& st,
             std::unique_ptr<index::ConcurrentHashTable<int64_t>>
                 QueryState::* slot,
             uint64_t n) {
  return Serial([&st, slot, n](QCtx& q) {
    (st.*slot) = std::make_unique<index::ConcurrentHashTable<int64_t>>(
        *q.env, std::max<uint64_t>(n, 64));
  });
}

}  // namespace

QueryPlan BuildTpchPlan(int q_num, QueryState* stp) {
  QueryState& st = *stp;
  const Database& db = *st.db;
  const Lineitem& L = db.lineitem;
  const Orders& O = db.orders;
  const Customer& C = db.customer;
  const Part& P = db.part;
  const Supplier& S = db.supplier;
  const PartSupp& PS = db.partsupp;

  QueryPlan plan;
  auto& ph = plan.phases;

  switch (q_num) {
    // ---------------------------------------------------------------- Q1
    case 1: {
      const int64_t cutoff = Date(1998, 9, 2);
      ph.push_back(Par(L.rows, [&st, &L, cutoff](QCtx& q, uint64_t lo,
                                                 uint64_t hi) {
        const auto* ship = L.l_shipdate;
        const auto* rf = L.l_returnflag;
        const auto* ls = L.l_linestatus;
        const auto* qty = L.l_quantity;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* tax = L.l_tax;
        ChargeScan(q, {ship, rf, ls, qty, price, disc, tax}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] > cutoff) continue;
          AggVal* a = local.Upsert(*q.env,
                                   static_cast<uint64_t>(rf[i] * 2 + ls[i]));
          a->v[0] += static_cast<double>(qty[i]);
          a->v[1] += price[i];
          a->v[2] += price[i] * (1 - disc[i]);
          a->v[3] += price[i] * (1 - disc[i]) * (1 + tax[i]);
          a->v[4] += disc[i];
          a->c[0] += 1;
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return static_cast<double>(key + 1) * (a->v[3] / 1e6) +
               static_cast<double>(a->c[0]);
      }));
      break;
    }

    // ---------------------------------------------------------------- Q2
    case 2: {
      ph.push_back(MakeHt(st, &QueryState::ht1, P.rows / 32));
      ph.push_back(Par(P.rows, [&st, &P](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* size = P.p_size;
        const auto* type = P.p_type;
        const auto* key = P.p_partkey;
        ChargeScan(q, {size, type, key}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (size[i] == 15 && type[i] % 5 == 2) {  // '%BRASS'
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), 1);
          }
        }
      }));
      ph.push_back(Par(PS.rows, [&st, &PS, &S](QCtx& q, uint64_t lo,
                                               uint64_t hi) {
        const auto* pk = PS.ps_partkey;
        const auto* sk = PS.ps_suppkey;
        const auto* cost = PS.ps_supplycost;
        const auto* snat = S.s_nationkey;
        ChargeScan(q, {pk, sk, cost}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (st.ht1->Find(*q.env, static_cast<uint64_t>(pk[i])) == nullptr)
            continue;
          q.env->Read(&snat[sk[i] - 1], 8);
          if (RegionOfNation(snat[sk[i] - 1]) != kRegionEurope) continue;
          AggVal* a = local.Upsert(*q.env, static_cast<uint64_t>(pk[i]));
          if (a->c[0] == 0 || cost[i] < a->v[0]) {
            a->v[0] = cost[i];
            a->v[1] = static_cast<double>(sk[i]);
          }
          a->c[0] += 1;
        }
      }));
      // Min across workers, then sum the winning suppliers' balances, in
      // one serial phase.
      Phase min_merge = MergeLocals(st, [](AggVal* d, const AggVal* src) {
        if (d->c[0] == 0 || src->v[0] < d->v[0]) {
          d->v[0] = src->v[0];
          d->v[1] = src->v[1];
        }
        d->c[0] += src->c[0];
      });
      ph.push_back(Serial([&st, &S, min_merge](QCtx& q) {
        min_merge.body(q, 0, 0);
        const auto* bal = S.s_acctbal;
        st.out = Fold(q, st.global, [&](uint64_t, AggVal* a) {
          auto s = static_cast<uint64_t>(a->v[1]);
          q.env->Read(&bal[s - 1], 8);
          return bal[s - 1] + a->v[0];
        });
      }));
      break;
    }

    // ---------------------------------------------------------------- Q3
    case 3: {
      const int64_t cutoff = Date(1995, 3, 15);
      ph.push_back(MakeHt(st, &QueryState::ht1, C.rows / 4));
      ph.push_back(Par(C.rows, [&st, &C](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* seg = C.c_mktsegment;
        const auto* key = C.c_custkey;
        ChargeScan(q, {seg, key}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (seg[i] == kSegBuilding) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), 1);
          }
        }
      }));
      ph.push_back(MakeHt(st, &QueryState::ht2, O.rows / 2));
      ph.push_back(Par(O.rows, [&st, &O, cutoff](QCtx& q, uint64_t lo,
                                                 uint64_t hi) {
        const auto* okey = O.o_orderkey;
        const auto* cust = O.o_custkey;
        const auto* date = O.o_orderdate;
        ChargeScan(q, {okey, cust, date}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (date[i] < cutoff &&
              st.ht1->Find(*q.env, static_cast<uint64_t>(cust[i]))) {
            st.ht2->UpsertSet(*q.env, static_cast<uint64_t>(okey[i]), date[i]);
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L, cutoff](QCtx& q, uint64_t lo,
                                                 uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* ship = L.l_shipdate;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        ChargeScan(q, {okey, ship, price, disc}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] > cutoff &&
              st.ht2->Find(*q.env, static_cast<uint64_t>(okey[i]))) {
            local.Upsert(*q.env, static_cast<uint64_t>(okey[i]))->v[0] +=
                price[i] * (1 - disc[i]);
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st](QCtx& q) {
        Ranked top =
            TopN(st, q, 10, [](uint64_t, AggVal* a) { return a->v[0]; });
        double digest = 0;
        for (const auto& [revenue, okey] : top) digest += revenue;
        st.out = {top.size(), digest};
      }));
      break;
    }

    // ---------------------------------------------------------------- Q4
    case 4: {
      const int64_t lo_d = Date(1993, 7, 1), hi_d = Date(1993, 10, 1);
      ph.push_back(MakeHt(st, &QueryState::ht1, O.rows / 2));
      ph.push_back(Par(L.rows, [&st, &L](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* commit = L.l_commitdate;
        const auto* receipt = L.l_receiptdate;
        ChargeScan(q, {okey, commit, receipt}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (commit[i] < receipt[i]) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(okey[i]), 1);
          }
        }
      }));
      ph.push_back(Par(O.rows, [&st, &O, lo_d, hi_d](QCtx& q, uint64_t lo,
                                                     uint64_t hi) {
        const auto* okey = O.o_orderkey;
        const auto* date = O.o_orderdate;
        const auto* prio = O.o_orderpriority;
        ChargeScan(q, {okey, date, prio}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (date[i] >= lo_d && date[i] < hi_d &&
              st.ht1->Find(*q.env, static_cast<uint64_t>(okey[i]))) {
            local.Upsert(*q.env, static_cast<uint64_t>(prio[i]))->c[0] += 1;
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return static_cast<double>((key + 1) * a->c[0]);
      }));
      break;
    }

    // ---------------------------------------------------------------- Q5
    case 5: {
      const int64_t y94 = Date(1994, 1, 1), y95 = Date(1995, 1, 1);
      ph.push_back(MakeHt(st, &QueryState::ht1, C.rows / 4));
      ph.push_back(Par(C.rows, [&st, &C](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* key = C.c_custkey;
        const auto* nat = C.c_nationkey;
        ChargeScan(q, {key, nat}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (RegionOfNation(nat[i]) == kRegionAsia) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), nat[i]);
          }
        }
      }));
      ph.push_back(MakeHt(st, &QueryState::ht2, O.rows / 8));
      ph.push_back(Par(O.rows, [&st, &O, y94, y95](QCtx& q, uint64_t lo,
                                                   uint64_t hi) {
        const auto* okey = O.o_orderkey;
        const auto* cust = O.o_custkey;
        const auto* date = O.o_orderdate;
        ChargeScan(q, {okey, cust, date}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (date[i] < y94 || date[i] >= y95) continue;
          auto* e = st.ht1->Find(*q.env, static_cast<uint64_t>(cust[i]));
          if (e != nullptr) {
            st.ht2->UpsertSet(*q.env, static_cast<uint64_t>(okey[i]),
                              e->value);  // customer nation
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L, &S](QCtx& q, uint64_t lo,
                                             uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* supp = L.l_suppkey;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* snat = S.s_nationkey;
        ChargeScan(q, {okey, supp, price, disc}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          auto* e = st.ht2->Find(*q.env, static_cast<uint64_t>(okey[i]));
          if (e == nullptr) continue;
          q.env->Read(&snat[supp[i] - 1], 8);
          if (snat[supp[i] - 1] == e->value) {  // local supplier
            local.Upsert(*q.env, static_cast<uint64_t>(e->value))->v[0] +=
                price[i] * (1 - disc[i]);
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return a->v[0] + static_cast<double>(key);
      }));
      break;
    }

    // ---------------------------------------------------------------- Q6
    case 6: {
      const int64_t y94 = Date(1994, 1, 1), y95 = Date(1995, 1, 1);
      ph.push_back(Par(L.rows, [&st, &L, y94, y95](QCtx& q, uint64_t lo,
                                                   uint64_t hi) {
        const auto* ship = L.l_shipdate;
        const auto* qty = L.l_quantity;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        ChargeScan(q, {ship, qty, price, disc}, lo, hi);
        double sum = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] >= y94 && ship[i] < y95 && disc[i] >= 0.049 &&
              disc[i] <= 0.071 && qty[i] < 24) {
            sum += price[i] * disc[i];
          }
        }
        Scalar(st.scalars, q) += sum;
      }));
      ph.push_back(Serial([&st](QCtx&) { st.out = {1, Sum(st.scalars)}; }));
      break;
    }

    // ---------------------------------------------------------------- Q7
    case 7: {
      const int64_t y95 = Date(1995, 1, 1), y97 = Date(1997, 1, 1);
      ph.push_back(MakeHt(st, &QueryState::ht3, O.rows / 8));
      ph.push_back(Par(O.rows, [&st, &O, &C](QCtx& q, uint64_t lo,
                                             uint64_t hi) {
        const auto* okey = O.o_orderkey;
        const auto* cust = O.o_custkey;
        const auto* cnat = C.c_nationkey;
        ChargeScan(q, {okey, cust}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          q.env->Read(&cnat[cust[i] - 1], 8);
          int64_t n = cnat[cust[i] - 1];
          if (n == kNationFrance || n == kNationGermany) {
            st.ht3->UpsertSet(*q.env, static_cast<uint64_t>(okey[i]), n);
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L, &S, y95, y97](
                                     QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* supp = L.l_suppkey;
        const auto* ship = L.l_shipdate;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* snat = S.s_nationkey;
        ChargeScan(q, {okey, supp, ship, price, disc}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] < y95 || ship[i] >= y97) continue;
          auto* e = st.ht3->Find(*q.env, static_cast<uint64_t>(okey[i]));
          if (e == nullptr) continue;
          q.env->Read(&snat[supp[i] - 1], 8);
          int64_t sn = snat[supp[i] - 1];
          int64_t cn = e->value;
          bool pair = (sn == kNationFrance && cn == kNationGermany) ||
                      (sn == kNationGermany && cn == kNationFrance);
          if (!pair) continue;
          uint64_t key = static_cast<uint64_t>(
              (sn * 32 + cn) * 8 + (YearOfDay(ship[i]) - 1992));
          local.Upsert(*q.env, key)->v[0] += price[i] * (1 - disc[i]);
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return a->v[0] + static_cast<double>(key);
      }));
      break;
    }

    // ---------------------------------------------------------------- Q8
    case 8: {
      const int64_t y95 = Date(1995, 1, 1), y97 = Date(1997, 1, 1);
      ph.push_back(MakeHt(st, &QueryState::ht1, P.rows / 64));
      ph.push_back(Par(P.rows, [&st, &P](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* type = P.p_type;
        const auto* key = P.p_partkey;
        ChargeScan(q, {type, key}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (type[i] == kTypeEconomyAnodizedSteel) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), 1);
          }
        }
      }));
      ph.push_back(MakeHt(st, &QueryState::ht3, O.rows / 4));
      ph.push_back(Par(O.rows, [&st, &O, &C, y95, y97](
                                     QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = O.o_orderkey;
        const auto* cust = O.o_custkey;
        const auto* date = O.o_orderdate;
        const auto* cnat = C.c_nationkey;
        ChargeScan(q, {okey, cust, date}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (date[i] < y95 || date[i] >= y97) continue;
          q.env->Read(&cnat[cust[i] - 1], 8);
          if (RegionOfNation(cnat[cust[i] - 1]) == kRegionAmerica) {
            st.ht3->UpsertSet(*q.env, static_cast<uint64_t>(okey[i]),
                              YearOfDay(date[i]));
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L, &S](QCtx& q, uint64_t lo,
                                             uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* part = L.l_partkey;
        const auto* supp = L.l_suppkey;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* snat = S.s_nationkey;
        ChargeScan(q, {okey, part, supp, price, disc}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (st.ht1->Find(*q.env, static_cast<uint64_t>(part[i])) ==
              nullptr)
            continue;
          auto* e = st.ht3->Find(*q.env, static_cast<uint64_t>(okey[i]));
          if (e == nullptr) continue;
          q.env->Read(&snat[supp[i] - 1], 8);
          double vol = price[i] * (1 - disc[i]);
          AggVal* a = local.Upsert(*q.env, static_cast<uint64_t>(e->value));
          a->v[0] += vol;
          if (snat[supp[i] - 1] == kNationBrazil) a->v[1] += vol;
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return (a->v[0] > 0 ? a->v[1] / a->v[0] : 0) +
               static_cast<double>(key);
      }));
      break;
    }

    // ---------------------------------------------------------------- Q9
    case 9: {
      ph.push_back(MakeHt(st, &QueryState::ht1, P.rows / 64));
      ph.push_back(Par(P.rows, [&st, &P](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* color = P.p_color;
        const auto* key = P.p_partkey;
        ChargeScan(q, {color, key}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (color[i] == kColorGreen) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), 1);
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L, &S, &O, &PS](
                                     QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* part = L.l_partkey;
        const auto* supp = L.l_suppkey;
        const auto* qty = L.l_quantity;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* snat = S.s_nationkey;
        const auto* odate = O.o_orderdate;
        const auto* ps_supp = PS.ps_suppkey;
        const auto* ps_cost = PS.ps_supplycost;
        ChargeScan(q, {okey, part, supp, qty, price, disc}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (st.ht1->Find(*q.env, static_cast<uint64_t>(part[i])) ==
              nullptr)
            continue;
          // Positional partsupp lookup: the 4 suppliers of a part are
          // contiguous.
          double cost = 0;
          uint64_t base = static_cast<uint64_t>(part[i] - 1) * 4;
          for (int j = 0; j < 4; ++j) {
            q.env->Read(&ps_supp[base + static_cast<uint64_t>(j)], 8);
            if (ps_supp[base + static_cast<uint64_t>(j)] == supp[i]) {
              q.env->Read(&ps_cost[base + static_cast<uint64_t>(j)], 8);
              cost = ps_cost[base + static_cast<uint64_t>(j)];
              break;
            }
          }
          q.env->Read(&snat[supp[i] - 1], 8);
          q.env->Read(&odate[okey[i] - 1], 8);
          double profit = price[i] * (1 - disc[i]) -
                          cost * static_cast<double>(qty[i]);
          uint64_t key = static_cast<uint64_t>(
              snat[supp[i] - 1] * 8 + (YearOfDay(odate[okey[i] - 1]) - 1992));
          local.Upsert(*q.env, key)->v[0] += profit;
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return a->v[0] / 1e3 + static_cast<double>(key);
      }));
      break;
    }

    // --------------------------------------------------------------- Q10
    case 10: {
      const int64_t lo_d = Date(1993, 10, 1), hi_d = Date(1994, 1, 1);
      ph.push_back(MakeHt(st, &QueryState::ht1, O.rows / 16));
      ph.push_back(Par(O.rows, [&st, &O, lo_d, hi_d](QCtx& q, uint64_t lo,
                                                     uint64_t hi) {
        const auto* okey = O.o_orderkey;
        const auto* cust = O.o_custkey;
        const auto* date = O.o_orderdate;
        ChargeScan(q, {okey, cust, date}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (date[i] >= lo_d && date[i] < hi_d) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(okey[i]), cust[i]);
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* rf = L.l_returnflag;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        ChargeScan(q, {okey, rf, price, disc}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (rf[i] != kFlagReturned) continue;
          auto* e = st.ht1->Find(*q.env, static_cast<uint64_t>(okey[i]));
          if (e != nullptr) {
            local.Upsert(*q.env, static_cast<uint64_t>(e->value))->v[0] +=
                price[i] * (1 - disc[i]);
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st, &C](QCtx& q) {
        Ranked top =
            TopN(st, q, 20, [](uint64_t, AggVal* a) { return a->v[0]; });
        const auto* bal = C.c_acctbal;
        double digest = 0;
        for (const auto& [revenue, cust] : top) {
          q.env->Read(&bal[cust - 1], 8);
          digest += revenue + bal[cust - 1];
        }
        st.out = {top.size(), digest};
      }));
      break;
    }

    // --------------------------------------------------------------- Q11
    case 11: {
      ph.push_back(Par(PS.rows, [&st, &PS, &S](QCtx& q, uint64_t lo,
                                               uint64_t hi) {
        const auto* pk = PS.ps_partkey;
        const auto* sk = PS.ps_suppkey;
        const auto* qty = PS.ps_availqty;
        const auto* cost = PS.ps_supplycost;
        const auto* snat = S.s_nationkey;
        ChargeScan(q, {pk, sk, qty, cost}, lo, hi);
        auto& local = Local(st.locals, q);
        double sum = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          q.env->Read(&snat[sk[i] - 1], 8);
          if (snat[sk[i] - 1] != kNationGermany) continue;
          double value = cost[i] * static_cast<double>(qty[i]);
          local.Upsert(*q.env, static_cast<uint64_t>(pk[i]))->v[0] += value;
          sum += value;
        }
        Scalar(st.scalars, q) += sum;
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st](QCtx& q) {
        double total = Sum(st.scalars);
        // The spec's FRACTION scales inversely with SF.
        double scale = st.db->lineitem.rows > 0
                           ? static_cast<double>(st.db->customer.rows) /
                                 150000.0
                           : 1.0;
        double threshold = total * 0.0001 / std::max(scale, 1e-6);
        st.out = Fold(q, st.global, [threshold](uint64_t, AggVal* a) -> Value {
          if (a->v[0] > threshold) return a->v[0];
          return std::nullopt;
        });
      }));
      break;
    }

    // --------------------------------------------------------------- Q12
    case 12: {
      const int64_t y94 = Date(1994, 1, 1), y95 = Date(1995, 1, 1);
      ph.push_back(Par(L.rows, [&st, &L, &O, y94, y95](
                                     QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* mode = L.l_shipmode;
        const auto* ship = L.l_shipdate;
        const auto* commit = L.l_commitdate;
        const auto* receipt = L.l_receiptdate;
        const auto* prio = O.o_orderpriority;
        ChargeScan(q, {okey, mode, ship, commit, receipt}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if ((mode[i] != kModeMail && mode[i] != kModeShip) ||
              commit[i] >= receipt[i] || ship[i] >= commit[i] ||
              receipt[i] < y94 || receipt[i] >= y95) {
            continue;
          }
          q.env->Read(&prio[okey[i] - 1], 8);
          AggVal* a = local.Upsert(*q.env, static_cast<uint64_t>(mode[i]));
          if (prio[okey[i] - 1] <= 1) {
            a->c[0] += 1;  // high priority
          } else {
            a->c[1] += 1;
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return static_cast<double>(key * 1000 + a->c[0] * 7 + a->c[1]);
      }));
      break;
    }

    // --------------------------------------------------------------- Q13
    case 13: {
      ph.push_back(Par(O.rows, [&st, &O](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* cust = O.o_custkey;
        const auto* special = O.o_comment_special;
        ChargeScan(q, {cust, special}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (special[i] == 0) {
            local.Upsert(*q.env, static_cast<uint64_t>(cust[i]))->c[0] += 1;
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st, &C](QCtx& q) {
        // Distribution: how many customers placed k orders.
        LocalAgg<AggVal> dist;
        dist.Init(*q.env, 64);
        uint64_t with_orders = 0;
        st.global.ForEach(*q.env, [&](uint64_t, AggVal* a) {
          dist.Upsert(*q.env, a->c[0])->c[0] += 1;
          ++with_orders;
        });
        dist.Upsert(*q.env, 0)->c[0] += C.rows - with_orders;
        st.out = Fold(q, dist, [](uint64_t k, AggVal* a) {
          return static_cast<double>(k * a->c[0]);
        });
      }));
      break;
    }

    // --------------------------------------------------------------- Q14
    case 14: {
      const int64_t lo_d = Date(1995, 9, 1), hi_d = Date(1995, 10, 1);
      ph.push_back(Par(L.rows, [&st, &L, &P, lo_d, hi_d](
                                     QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* part = L.l_partkey;
        const auto* ship = L.l_shipdate;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* type = P.p_type;
        ChargeScan(q, {part, ship, price, disc}, lo, hi);
        double promo = 0, total = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] < lo_d || ship[i] >= hi_d) continue;
          double vol = price[i] * (1 - disc[i]);
          total += vol;
          q.env->Read(&type[part[i] - 1], 8);
          if (type[part[i] - 1] / 25 == 5) promo += vol;  // PROMO%
        }
        Scalar(st.scalars, q) += promo;
        Scalar(st.scalars2, q) += total;
      }));
      ph.push_back(Serial([&st](QCtx&) {
        double promo = Sum(st.scalars), total = Sum(st.scalars2);
        st.out = {1, total > 0 ? 100.0 * promo / total : 0.0};
      }));
      break;
    }

    // --------------------------------------------------------------- Q15
    case 15: {
      const int64_t lo_d = Date(1996, 1, 1), hi_d = Date(1996, 4, 1);
      ph.push_back(Par(L.rows, [&st, &L, lo_d, hi_d](QCtx& q, uint64_t lo,
                                                     uint64_t hi) {
        const auto* supp = L.l_suppkey;
        const auto* ship = L.l_shipdate;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        ChargeScan(q, {supp, ship, price, disc}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] >= lo_d && ship[i] < hi_d) {
            local.Upsert(*q.env, static_cast<uint64_t>(supp[i]))->v[0] +=
                price[i] * (1 - disc[i]);
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st](QCtx& q) {
        double best = -1;
        uint64_t best_supp = 0, ties = 0;
        st.global.ForEach(*q.env, [&](uint64_t key, AggVal* a) {
          if (a->v[0] > best) {
            best = a->v[0];
            best_supp = key;
            ties = 1;
          } else if (a->v[0] == best) {
            ++ties;
          }
        });
        st.out = {ties, best + static_cast<double>(best_supp)};
      }));
      break;
    }

    // --------------------------------------------------------------- Q16
    case 16: {
      ph.push_back(MakeHt(st, &QueryState::ht1, 256));
      ph.push_back(Par(S.rows, [&st, &S](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* key = S.s_suppkey;
        const auto* bad = S.s_comment_complaints;
        ChargeScan(q, {key, bad}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (bad[i] != 0) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), 1);
          }
        }
      }));
      ph.push_back(Par(PS.rows, [&st, &PS, &P](QCtx& q, uint64_t lo,
                                               uint64_t hi) {
        const auto* pk = PS.ps_partkey;
        const auto* sk = PS.ps_suppkey;
        const auto* brand = P.p_brand;
        const auto* type = P.p_type;
        const auto* size = P.p_size;
        ChargeScan(q, {pk, sk}, lo, hi);
        auto& local = Local(st.locals, q);
        static constexpr int64_t kSizes[] = {49, 14, 23, 45, 19, 3, 36, 9};
        for (uint64_t i = lo; i < hi; ++i) {
          uint64_t p = static_cast<uint64_t>(pk[i] - 1);
          q.env->Read(&brand[p], 8);
          q.env->Read(&type[p], 8);
          q.env->Read(&size[p], 8);
          if (brand[p] == 10 || type[p] / 25 == 2) continue;
          bool size_ok = false;
          for (int64_t s : kSizes) size_ok |= size[p] == s;
          if (!size_ok) continue;
          if (st.ht1->Find(*q.env, static_cast<uint64_t>(sk[i]))) continue;
          uint64_t combined = static_cast<uint64_t>(
              (brand[p] * 200 + type[p]) * 64 + size[p] % 64);
          // Distinct (group, supplier) pairs.
          local.Upsert(*q.env, combined * 100000 +
                                   static_cast<uint64_t>(sk[i]))->c[0] = 1;
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st](QCtx& q) {
        LocalAgg<AggVal> counts;
        counts.Init(*q.env, 1024);
        st.global.ForEach(*q.env, [&](uint64_t key, AggVal*) {
          counts.Upsert(*q.env, key / 100000)->c[0] += 1;
        });
        st.out = Fold(q, counts, [](uint64_t key, AggVal* a) {
          return static_cast<double>(key % 997) + static_cast<double>(a->c[0]);
        });
      }));
      break;
    }

    // --------------------------------------------------------------- Q17
    case 17: {
      ph.push_back(Par(L.rows, [&st, &L, &P](QCtx& q, uint64_t lo,
                                             uint64_t hi) {
        const auto* part = L.l_partkey;
        const auto* qty = L.l_quantity;
        const auto* brand = P.p_brand;
        const auto* cont = P.p_container;
        ChargeScan(q, {part, qty}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          uint64_t p = static_cast<uint64_t>(part[i] - 1);
          q.env->Read(&brand[p], 8);
          q.env->Read(&cont[p], 8);
          if (brand[p] != 12 || cont[p] != 17) continue;  // Brand#23 MED BOX
          AggVal* a = local.Upsert(*q.env, static_cast<uint64_t>(part[i]));
          a->v[0] += static_cast<double>(qty[i]);
          a->c[0] += 1;
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Par(L.rows, [&st, &L](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* part = L.l_partkey;
        const auto* qty = L.l_quantity;
        const auto* price = L.l_extendedprice;
        ChargeScan(q, {part, qty, price}, lo, hi);
        double sum = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          AggVal* a = st.global.Find(*q.env,
                                     static_cast<uint64_t>(part[i]));
          if (a == nullptr || a->c[0] == 0) continue;
          double avg = a->v[0] / static_cast<double>(a->c[0]);
          if (static_cast<double>(qty[i]) < 0.2 * avg) sum += price[i];
        }
        Scalar(st.scalars, q) += sum;
      }));
      ph.push_back(
          Serial([&st](QCtx&) { st.out = {1, Sum(st.scalars) / 7.0}; }));
      break;
    }

    // --------------------------------------------------------------- Q18
    case 18: {
      ph.push_back(Par(L.rows, [&st, &L](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* qty = L.l_quantity;
        ChargeScan(q, {okey, qty}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          local.Upsert(*q.env, static_cast<uint64_t>(okey[i]))->v[0] +=
              static_cast<double>(qty[i]);
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st, &O](QCtx& q) {
        const auto* total = O.o_totalprice;
        Ranked top = TopN(st, q, 100, [&](uint64_t key, AggVal* a) -> Value {
          if (a->v[0] <= 300.0) return std::nullopt;
          q.env->Read(&total[key - 1], 8);
          return total[key - 1];
        });
        double digest = 0;
        for (const auto& [price, okey] : top) digest += price;
        st.out = {top.size(), digest};
      }));
      break;
    }

    // --------------------------------------------------------------- Q19
    case 19: {
      ph.push_back(Par(L.rows, [&st, &L, &P](QCtx& q, uint64_t lo,
                                             uint64_t hi) {
        const auto* part = L.l_partkey;
        const auto* qty = L.l_quantity;
        const auto* mode = L.l_shipmode;
        const auto* instruct = L.l_shipinstruct;
        const auto* price = L.l_extendedprice;
        const auto* disc = L.l_discount;
        const auto* brand = P.p_brand;
        const auto* cont = P.p_container;
        const auto* size = P.p_size;
        ChargeScan(q, {part, qty, mode, instruct, price, disc}, lo, hi);
        double sum = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          if (instruct[i] != kInstructDeliverInPerson ||
              (mode[i] != kModeAir && mode[i] != kModeRegAir)) {
            continue;
          }
          uint64_t p = static_cast<uint64_t>(part[i] - 1);
          q.env->Read(&brand[p], 8);
          q.env->Read(&cont[p], 8);
          q.env->Read(&size[p], 8);
          bool m1 = brand[p] == 12 && cont[p] < 8 && qty[i] >= 1 &&
                    qty[i] <= 11 && size[p] <= 5;
          bool m2 = brand[p] == 11 && cont[p] >= 8 && cont[p] < 16 &&
                    qty[i] >= 10 && qty[i] <= 20 && size[p] <= 10;
          bool m3 = brand[p] == 17 && cont[p] >= 16 && cont[p] < 24 &&
                    qty[i] >= 20 && qty[i] <= 30 && size[p] <= 15;
          if (m1 || m2 || m3) sum += price[i] * (1 - disc[i]);
        }
        Scalar(st.scalars, q) += sum;
      }));
      ph.push_back(Serial([&st](QCtx&) { st.out = {1, Sum(st.scalars)}; }));
      break;
    }

    // --------------------------------------------------------------- Q20
    case 20: {
      const int64_t y94 = Date(1994, 1, 1), y95 = Date(1995, 1, 1);
      ph.push_back(MakeHt(st, &QueryState::ht1, P.rows / 64));
      ph.push_back(Par(P.rows, [&st, &P](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* color = P.p_color;
        const auto* key = P.p_partkey;
        ChargeScan(q, {color, key}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          if (color[i] == kColorForest) {
            st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(key[i]), 1);
          }
        }
      }));
      ph.push_back(Par(L.rows, [&st, &L, y94, y95](QCtx& q, uint64_t lo,
                                                   uint64_t hi) {
        const auto* part = L.l_partkey;
        const auto* supp = L.l_suppkey;
        const auto* qty = L.l_quantity;
        const auto* ship = L.l_shipdate;
        ChargeScan(q, {part, supp, qty, ship}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (ship[i] < y94 || ship[i] >= y95) continue;
          if (st.ht1->Find(*q.env, static_cast<uint64_t>(part[i])) ==
              nullptr)
            continue;
          uint64_t key = (static_cast<uint64_t>(part[i]) << 20) |
                         static_cast<uint64_t>(supp[i]);
          local.Upsert(*q.env, key)->v[0] += static_cast<double>(qty[i]);
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Par(PS.rows, [&st, &PS](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* pk = PS.ps_partkey;
        const auto* sk = PS.ps_suppkey;
        const auto* avail = PS.ps_availqty;
        ChargeScan(q, {pk, sk, avail}, lo, hi);
        auto& local2 = Local(st.locals2, q);
        for (uint64_t i = lo; i < hi; ++i) {
          uint64_t key = (static_cast<uint64_t>(pk[i]) << 20) |
                         static_cast<uint64_t>(sk[i]);
          AggVal* shipped = st.global.Find(*q.env, key);
          if (shipped != nullptr &&
              static_cast<double>(avail[i]) > 0.5 * shipped->v[0]) {
            local2.Upsert(*q.env, static_cast<uint64_t>(sk[i]))->c[0] = 1;
          }
        }
      }));
      ph.push_back(MergeLocals(st, AddFields, &QueryState::locals2,
                               &QueryState::global2));
      ph.push_back(Serial([&st, &S](QCtx& q) {
        const auto* snat = S.s_nationkey;
        st.out = Fold(q, st.global2, [&](uint64_t supp, AggVal*) -> Value {
          q.env->Read(&snat[supp - 1], 8);
          if (snat[supp - 1] != kNationCanada) return std::nullopt;
          return static_cast<double>(supp);
        });
      }));
      break;
    }

    // --------------------------------------------------------------- Q21
    case 21: {
      ph.push_back(Par(L.rows, [&st, &L, &S](QCtx& q, uint64_t lo,
                                             uint64_t hi) {
        const auto* okey = L.l_orderkey;
        const auto* supp = L.l_suppkey;
        const auto* commit = L.l_commitdate;
        const auto* receipt = L.l_receiptdate;
        const auto* snat = S.s_nationkey;
        ChargeScan(q, {okey, supp, commit, receipt}, lo, hi);
        ChargeScratch(q, hi - lo);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          AggVal* a = local.Upsert(*q.env, static_cast<uint64_t>(okey[i]));
          // v[0]: first supplier seen; c[0]: multi-supplier flag bits.
          if (a->c[0] == 0) {
            a->v[0] = static_cast<double>(supp[i]);
            a->c[0] = 1;
          } else if (static_cast<int64_t>(a->v[0]) != supp[i]) {
            a->c[0] |= 2;  // more than one supplier participates
          }
          if (receipt[i] > commit[i]) {
            q.env->Read(&snat[supp[i] - 1], 8);
            if (snat[supp[i] - 1] == kNationSaudi) {
              a->c[1] |= 1;  // target-nation supplier was late
              a->v[1] = static_cast<double>(supp[i]);
            } else {
              a->c[1] |= 2;  // somebody else was late too
            }
          }
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(Serial([&st, &O](QCtx& q) {
        const auto* status = O.o_orderstatus;
        LocalAgg<AggVal> per_supp;
        per_supp.Init(*q.env, 256);
        st.global.ForEach(*q.env, [&](uint64_t okey, AggVal* a) {
          q.env->Read(&status[okey - 1], 8);
          if (status[okey - 1] != kStatusF) return;
          bool multi = (a->c[0] & 2) != 0;
          bool target_late = (a->c[1] & 1) != 0;
          bool other_late = (a->c[1] & 2) != 0;
          if (multi && target_late && !other_late) {
            per_supp.Upsert(*q.env,
                            static_cast<uint64_t>(a->v[1]))->c[0] += 1;
          }
        });
        st.out = Fold(q, per_supp, [](uint64_t supp, AggVal* a) {
          return static_cast<double>(supp % 997 + a->c[0]);
        });
      }));
      break;
    }

    // --------------------------------------------------------------- Q22
    case 22: {
      auto in_set = [](int64_t code) {
        switch (code) {
          case 13: case 17: case 18: case 23: case 29: case 30: case 31:
            return true;
          default:
            return false;
        }
      };
      ph.push_back(Par(C.rows, [&st, &C, in_set](QCtx& q, uint64_t lo,
                                                 uint64_t hi) {
        const auto* code = C.c_cntrycode;
        const auto* bal = C.c_acctbal;
        ChargeScan(q, {code, bal}, lo, hi);
        double sum = 0, cnt = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          if (in_set(code[i]) && bal[i] > 0) {
            sum += bal[i];
            cnt += 1;
          }
        }
        Scalar(st.scalars, q) += sum;
        Scalar(st.scalars2, q) += cnt;
      }));
      ph.push_back(MakeHt(st, &QueryState::ht1, C.rows / 2));
      ph.push_back(Par(O.rows, [&st, &O](QCtx& q, uint64_t lo, uint64_t hi) {
        const auto* cust = O.o_custkey;
        ChargeScan(q, {cust}, lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          st.ht1->UpsertSet(*q.env, static_cast<uint64_t>(cust[i]), 1);
        }
      }));
      ph.push_back(Serial([&st](QCtx&) {
        double sum = Sum(st.scalars), cnt = Sum(st.scalars2);
        st.shared_scalar = cnt > 0 ? sum / cnt : 0.0;
      }));
      ph.push_back(Par(C.rows, [&st, &C, in_set](QCtx& q, uint64_t lo,
                                                 uint64_t hi) {
        const auto* key = C.c_custkey;
        const auto* code = C.c_cntrycode;
        const auto* bal = C.c_acctbal;
        ChargeScan(q, {key, code, bal}, lo, hi);
        auto& local = Local(st.locals, q);
        for (uint64_t i = lo; i < hi; ++i) {
          if (!in_set(code[i]) || bal[i] <= st.shared_scalar) continue;
          if (st.ht1->Find(*q.env, static_cast<uint64_t>(key[i]))) continue;
          AggVal* a = local.Upsert(*q.env, static_cast<uint64_t>(code[i]));
          a->c[0] += 1;
          a->v[0] += bal[i];
        }
      }));
      ph.push_back(MergeLocals(st));
      ph.push_back(FoldGlobal(st, [](uint64_t key, AggVal* a) {
        return static_cast<double>(key * a->c[0]) + a->v[0];
      }));
      break;
    }

    default:
      NUMALAB_CHECK(false && "query number must be 1..22");
  }

  return plan;
}

}  // namespace minidb
}  // namespace numalab

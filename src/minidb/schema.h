// The TPC-H schema of minidb, the in-memory analytical engine behind the
// W5 (TPC-H) experiments, written once.
//
// Every column is a fixed-width 8-byte value: int64 (keys, quantities,
// dates as day numbers, dictionary codes) or double (prices, rates).
// Strings are dictionary-coded at generation time; predicates that would
// match substrings (LIKE) are evaluated against generator-provided code
// ranges/flags (see tpch_gen.h for the documented simplifications).
//
// NUMALAB_TPCH_TABLES lists the tables as TABLE(Type, member, COLUMNS),
// and each table's COLUMNS list names its columns as COL(type, name). The
// lists generate the host dataset (HostDb in tpch_gen.h), the simulated
// Database below and LoadTpch's copy loop. Their order is the load order,
// and the load order is the simulated allocation order: moving an entry
// moves every later column in simulated memory.

#ifndef NUMALAB_MINIDB_SCHEMA_H_
#define NUMALAB_MINIDB_SCHEMA_H_

#include <cstdint>

#define NUMALAB_TPCH_REGION(COL) \
  COL(int64_t, r_regionkey)      \
  COL(int64_t, r_name)

#define NUMALAB_TPCH_NATION(COL) \
  COL(int64_t, n_nationkey)      \
  COL(int64_t, n_name)           \
  COL(int64_t, n_regionkey)

#define NUMALAB_TPCH_SUPPLIER(COL) \
  COL(int64_t, s_suppkey)          \
  COL(int64_t, s_nationkey)        \
  COL(double, s_acctbal)           \
  COL(int64_t, s_comment_complaints)

#define NUMALAB_TPCH_CUSTOMER(COL) \
  COL(int64_t, c_custkey)          \
  COL(int64_t, c_nationkey)        \
  COL(double, c_acctbal)           \
  COL(int64_t, c_mktsegment)       \
  COL(int64_t, c_cntrycode)

#define NUMALAB_TPCH_PART(COL) \
  COL(int64_t, p_partkey)      \
  COL(int64_t, p_brand)        \
  COL(int64_t, p_type)         \
  COL(int64_t, p_size)         \
  COL(int64_t, p_container)    \
  COL(int64_t, p_color)        \
  COL(double, p_retailprice)

#define NUMALAB_TPCH_PARTSUPP(COL) \
  COL(int64_t, ps_partkey)         \
  COL(int64_t, ps_suppkey)         \
  COL(int64_t, ps_availqty)        \
  COL(double, ps_supplycost)

#define NUMALAB_TPCH_ORDERS(COL)  \
  COL(int64_t, o_orderkey)        \
  COL(int64_t, o_custkey)         \
  COL(int64_t, o_orderdate)       \
  COL(int64_t, o_orderpriority)   \
  COL(int64_t, o_orderstatus)     \
  COL(int64_t, o_comment_special) \
  COL(double, o_totalprice)

#define NUMALAB_TPCH_LINEITEM(COL) \
  COL(int64_t, l_orderkey)         \
  COL(int64_t, l_partkey)          \
  COL(int64_t, l_suppkey)          \
  COL(int64_t, l_quantity)         \
  COL(int64_t, l_returnflag)       \
  COL(int64_t, l_linestatus)       \
  COL(int64_t, l_shipdate)         \
  COL(int64_t, l_commitdate)       \
  COL(int64_t, l_receiptdate)      \
  COL(int64_t, l_shipmode)         \
  COL(int64_t, l_shipinstruct)     \
  COL(double, l_extendedprice)     \
  COL(double, l_discount)          \
  COL(double, l_tax)

#define NUMALAB_TPCH_TABLES(TABLE)                 \
  TABLE(Region, region, NUMALAB_TPCH_REGION)       \
  TABLE(Nation, nation, NUMALAB_TPCH_NATION)       \
  TABLE(Supplier, supplier, NUMALAB_TPCH_SUPPLIER) \
  TABLE(Customer, customer, NUMALAB_TPCH_CUSTOMER) \
  TABLE(Part, part, NUMALAB_TPCH_PART)             \
  TABLE(PartSupp, partsupp, NUMALAB_TPCH_PARTSUPP) \
  TABLE(Orders, orders, NUMALAB_TPCH_ORDERS)       \
  TABLE(Lineitem, lineitem, NUMALAB_TPCH_LINEITEM)

namespace numalab {
namespace minidb {

// One struct per table: its row count and one pointer per column into
// simulated memory (allocated through the run's SimAllocator, so the
// placement policy, allocator and topology govern every scan). The
// columns live until the run's simulated memory is torn down.
#define NUMALAB_SIM_COLUMN(type, name) const type* name = nullptr;
#define NUMALAB_SIM_TABLE(Type, member, COLUMNS) \
  struct Type {                                  \
    uint64_t rows = 0;                           \
    COLUMNS(NUMALAB_SIM_COLUMN)                  \
  };
NUMALAB_TPCH_TABLES(NUMALAB_SIM_TABLE)
#undef NUMALAB_SIM_TABLE
#undef NUMALAB_SIM_COLUMN

/// \brief The eight TPC-H tables in simulated memory.
struct Database {
#define NUMALAB_SIM_MEMBER(Type, member, COLUMNS) Type member;
  NUMALAB_TPCH_TABLES(NUMALAB_SIM_MEMBER)
#undef NUMALAB_SIM_MEMBER
};

}  // namespace minidb
}  // namespace numalab

#endif  // NUMALAB_MINIDB_SCHEMA_H_

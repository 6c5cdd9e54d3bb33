// TPC-H dataset generator (dbgen substitute) for minidb.
//
// Generates all eight tables at a given scale factor with the spec's
// cardinalities (scaled), key relationships, value ranges and date rules.
// Strings are dictionary-coded; where a query needs a substring predicate
// (LIKE) the generator emits an equivalent dictionary code or boolean flag
// with the spec's selectivity:
//   * p_type / p_container / p_brand: full dictionaries (150/40/25 codes).
//   * p_color: the first word of P_NAME (92 colors) — used by Q9's
//     "%green%" filter.
//   * o_comment_special: 1 iff the comment would match Q13's
//     '%special%requests%' (~1% of orders, per the spec's comment grammar).
//   * s_comment_complaints: 1 iff it would match Q16's
//     '%Customer%Complaints%' (~0.05%).
//   * c_cntrycode: the two leading phone digits (nationkey + 10), used by
//     Q22's substring().
//
// Generation is host-side and cached per (scale, seed); loading copies the
// columns into simulated memory through the run's allocator, then marks the
// pages as first-touched by the loader thread (node 0) — matching a real
// single-process bulk load, whose placement the paper's W5 experiments
// inherit.

#ifndef NUMALAB_MINIDB_TPCH_GEN_H_
#define NUMALAB_MINIDB_TPCH_GEN_H_

#include <cstdint>
#include <vector>

#include "src/minidb/schema.h"

namespace numalab {
namespace workloads {
class SimContext;
}  // namespace workloads

namespace minidb {

/// Day number (days since 1992-01-01) for a calendar date; supports the
/// TPC-H range 1992..1998 with its leap years.
int64_t Date(int year, int month, int day);

/// \brief Host-side (unsimulated) generated dataset: one vector per
/// schema column (schema.h).
struct HostDb {
#define NUMALAB_HOST_COLUMN(type, name) std::vector<type> name;
#define NUMALAB_HOST_TABLE(Type, member, COLUMNS) COLUMNS(NUMALAB_HOST_COLUMN)
  NUMALAB_TPCH_TABLES(NUMALAB_HOST_TABLE)
#undef NUMALAB_HOST_TABLE
#undef NUMALAB_HOST_COLUMN
};

/// Generates (or returns the cached) host dataset for `scale`.
const HostDb& GenerateTpch(double scale, uint64_t seed = 19920101);

/// Copies the host dataset into the run's simulated memory, column by
/// column in schema order, each pretouched as loaded by node 0.
Database LoadTpch(const HostDb& host, workloads::SimContext* ctx);

}  // namespace minidb
}  // namespace numalab

#endif  // NUMALAB_MINIDB_TPCH_GEN_H_

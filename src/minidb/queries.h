// Hand-written physical plans for TPC-H Q1..Q22 against minidb's columnar
// storage, expressed as barrier-delimited morsel-parallel phases (exec.h).
//
// Query semantics follow the TPC-H 2.18 specification with the generator's
// documented dictionary encodings (tpch_gen.h). Dense surrogate keys allow
// positional foreign-key reads (okey -> orders row okey-1); selective
// filters and aggregations run through simulated-memory hash tables so all
// NUMA/allocator effects apply.

#ifndef NUMALAB_MINIDB_QUERIES_H_
#define NUMALAB_MINIDB_QUERIES_H_

#include <memory>
#include <vector>

#include "src/index/hash_table.h"
#include "src/minidb/exec.h"
#include "src/minidb/schema.h"

namespace numalab {
namespace minidb {

/// \brief Generic aggregate payload (enough slots for any of the 22).
struct AggVal {
  double v[6] = {0, 0, 0, 0, 0, 0};
  uint64_t c[2] = {0, 0};
};

struct QueryOutput {
  uint64_t rows = 0;    ///< result-set cardinality
  double digest = 0.0;  ///< order-independent checksum of the result
};

/// \brief Shared state for one query execution; outlives the plan.
struct QueryState {
  const Database* db = nullptr;
  int nworkers = 1;

  std::vector<LocalAgg<AggVal>> locals;   // per-worker primary aggregation
  std::vector<LocalAgg<AggVal>> locals2;  // per-worker secondary
  LocalAgg<AggVal> global;
  LocalAgg<AggVal> global2;
  std::unique_ptr<index::ConcurrentHashTable<int64_t>> ht1, ht2, ht3;
  std::vector<double> scalars;   // per-worker scalar accumulators
  std::vector<double> scalars2;
  double shared_scalar = 0.0;    // set in a serial phase, read afterwards
  QueryOutput out;

  void Prepare(const Database* database, int workers) {
    db = database;
    nworkers = workers;
    locals.resize(static_cast<size_t>(workers));
    locals2.resize(static_cast<size_t>(workers));
    scalars.assign(static_cast<size_t>(workers), 0.0);
    scalars2.assign(static_cast<size_t>(workers), 0.0);
  }
};

/// Builds the plan for TPC-H query `q` (1..22). The final phase writes
/// QueryState::out.
QueryPlan BuildTpchPlan(int q, QueryState* st);

}  // namespace minidb
}  // namespace numalab

#endif  // NUMALAB_MINIDB_QUERIES_H_

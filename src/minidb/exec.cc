#include "src/minidb/exec.h"

#include <cmath>

#include "src/common/logging.h"

namespace numalab {
namespace minidb {

int SystemProfile::WorkersFor(int query, int hw) const {
  switch (parallel_kind) {
    case 0:
      return hw;
    case 1: {
      // Rigid multiprocess planning: subquery-heavy statements fall back to
      // one worker (the paper's PostgreSQL observation).
      switch (query) {
        case 2: case 4: case 15: case 17: case 20: case 21: case 22:
          return 1;
        default:
          return std::max(1, hw / 4);
      }
    }
    case 2:
      return 1;  // no intra-query parallelism
  }
  return 1;
}

const std::vector<SystemProfile>& AllProfiles() {
  static const std::vector<SystemProfile> kProfiles = {
      {"columnar-vec", "MonetDB",
       /*per_tuple_cycles=*/14, /*scratch_per_row=*/144,
       /*thp_stays_on=*/false, /*parallel_kind=*/0},
      {"row-mp", "PostgreSQL",
       /*per_tuple_cycles=*/30, /*scratch_per_row=*/8,
       /*thp_stays_on=*/false, /*parallel_kind=*/1},
      {"row-st", "MySQL",
       /*per_tuple_cycles=*/40, /*scratch_per_row=*/8,
       /*thp_stays_on=*/false, /*parallel_kind=*/2},
      {"hybrid-par", "DBMSx",
       /*per_tuple_cycles=*/8, /*scratch_per_row=*/96,
       /*thp_stays_on=*/true, /*parallel_kind=*/0},
      {"hybrid-vec", "Quickstep",
       /*per_tuple_cycles=*/22, /*scratch_per_row=*/16,
       /*thp_stays_on=*/false, /*parallel_kind=*/0},
  };
  return kProfiles;
}

const SystemProfile& ProfileByName(const std::string& name) {
  for (const auto& p : AllProfiles()) {
    if (p.name == name || p.models == name) return p;
  }
  NUMALAB_CHECK(false && "unknown system profile");
  return AllProfiles()[0];
}

void ChargeScan(QCtx& q, std::initializer_list<const void*> cols,
                uint64_t lo, uint64_t hi) {
  if (hi <= lo) return;
  uint64_t rows = hi - lo;
  for (const void* col : cols) {
    const char* base = static_cast<const char*>(col);
    q.env->ReadSpan(base + lo * 8, rows * 8);
  }
  q.env->Compute(rows * q.prof->per_tuple_cycles);
}

void ChargeScratch(QCtx& q, uint64_t rows) {
  uint64_t bytes = rows * q.prof->scratch_per_row;
  if (bytes == 0) return;
  void* p = q.env->Alloc(bytes);
  q.env->WriteSpan(p, std::min<uint64_t>(bytes, 4096));
  q.env->Free(p);
}

void ChargeSort(QCtx& q, uint64_t n, uint64_t width) {
  if (n < 2) return;
  double logn = std::log2(static_cast<double>(n));
  q.env->Compute(static_cast<uint64_t>(static_cast<double>(n) * logn * 4.0));
  q.env->Compute(n * width / mem::kCacheLineBytes * 24);
}

}  // namespace minidb
}  // namespace numalab

// Fixture: order-sensitive floating-point accumulation detlint must flag.
// NOT part of any build — scanned by detlint_test and check.sh stage 8.

#include <cstdint>
#include <string>
#include <unordered_map>

namespace fixture {

// flagged: double field in a *Counter* struct
struct LatencyCounters {
  uint64_t requests = 0;
  double total_ms = 0.0;  // flagged: float-accum (counters are integral)
};

double SumValues(const std::unordered_map<std::string, double>& table) {
  double total = 0.0;
  for (const auto& [key, value] : table) {  // flagged: unordered-iter
    total += value;  // flagged: float-accum inside unordered iteration
  }
  return total;
}

}  // namespace fixture

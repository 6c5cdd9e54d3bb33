// Fixture: every wall-clock access pattern detlint must flag.
// NOT part of any build — scanned by detlint_test and check.sh stage 8.

#include <chrono>  // flagged: hazard header
#include <ctime>   // flagged: hazard header

#include <cstdint>

namespace fixture {

uint64_t NowNanos() {
  auto t = std::chrono::steady_clock::now();  // flagged: chrono + clock type
  return static_cast<uint64_t>(t.time_since_epoch().count());
}

long Epoch() {
  return time(nullptr);  // flagged: bare time() call
}

double Elapsed() {
  return static_cast<double>(clock());  // flagged: bare clock() call
}

}  // namespace fixture

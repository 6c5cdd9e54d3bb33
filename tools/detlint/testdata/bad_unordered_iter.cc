// Fixture: unordered-container iteration patterns detlint must flag.
// NOT part of any build — scanned by detlint_test and detlint_rejects_*.

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

void DumpCounts(const std::unordered_map<std::string, uint64_t>& counts) {
  for (const auto& [key, value] : counts) {  // flagged: range-for
    std::printf("%s %llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  }
}

uint64_t FirstElement(std::unordered_set<uint64_t>& seen) {
  auto it = seen.begin();  // flagged: begin() on unordered container
  return it == seen.end() ? 0 : *it;
}

}  // namespace fixture

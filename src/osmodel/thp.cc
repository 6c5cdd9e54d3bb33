#include "src/osmodel/thp.h"

#include "src/mem/cost_model.h"

namespace numalab {
namespace osmodel {

bool ThpDaemon::Tick(uint64_t now) {
  if (engine_->live_threads() == 0) return false;

  mem::SimOS* os = memsys_->os();
  int collapsed = 0;

  // Round-robin over regions, starting after the last visited base.
  const auto& regions = os->regions();
  if (!regions.empty()) {
    auto it = regions.upper_bound(region_cursor_);
    size_t visited = 0;
    while (visited < regions.size() && collapsed < kMaxCollapsesPerScan) {
      if (it == regions.end()) it = regions.begin();
      mem::Region* r = it->second;
      if (r->thp_eligible) {
        size_t runs = r->pages.size() / mem::kSmallPagesPerHuge;
        for (size_t run = 0; run < runs && collapsed < kMaxCollapsesPerScan;
             ++run) {
          if (os->TryCollapseHuge(r, run * mem::kSmallPagesPerHuge, now)) {
            ++collapsed;
          }
        }
      }
      region_cursor_ = r->base;
      ++it;
      ++visited;
    }
  }
  return true;
}

}  // namespace osmodel
}  // namespace numalab

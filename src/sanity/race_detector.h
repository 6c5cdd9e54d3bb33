// numalab::sanity — a FastTrack-style happens-before data-race detector for
// *simulated* threads.
//
// Host-side TSan cannot see races between VThreads: they are coroutines
// multiplexed on one host thread, so every conflicting pair of simulated
// accesses is separated by a perfectly ordered host-level context switch.
// What host tools see as a clean sequential program can still be a racy
// *simulated* program — two VThreads touching one cache line with no
// SimBarrier/VirtualLock edge between them would be a genuine data
// race on the real machine the simulation stands in for, and would
// invalidate every knob comparison the harness produces.
//
// The detector therefore re-implements happens-before at the simulation
// layer:
//  * every VThread (plus the setup/root context, tid -1) carries a vector
//    clock; Engine::Spawn forks it, thread completion joins it back;
//  * SimBarrier arrive/release and VirtualLock critical sections (via
//    Env::Lock/LockReleased) are the release/acquire edges;
//  * every simulated memory touch funnels through MemSystem::Access /
//    AccessSpan, which forward (thread, sim address range, is-write) here.
//
// Shadow state is keyed per simulated cache line and follows FastTrack
// (Flanagan & Freund, PLDI'09): the common case stores one *epoch*
// (thread id + its scalar clock) for the last write and the last read, and
// only promotes the read side to a full vector clock when concurrent
// readers appear. A second refinement layer handles false sharing: a line
// record starts at line granularity with an 8-bit word mask per side, and
// an epoch conflict whose word masks do NOT overlap promotes the line to
// eight per-word shadow records instead of reporting — so two threads
// writing disjoint words of one line (false sharing, not a race) stay
// clean, while overlapping words still report.
//
// The detector is allocation-aware: Env::Alloc clears the shadow of the
// returned block (allocator reuse is not a happens-before edge in the
// simulation, exactly as malloc is handled by TSan) and records the
// allocating site so reports can name it.
//
// Everything here is pure bookkeeping: no virtual cycles are charged and no
// simulator state is touched, so enabling the detector never changes
// simulated results, and a disabled detector is a single null-pointer
// branch at each hook site.

#ifndef NUMALAB_SANITY_RACE_DETECTOR_H_
#define NUMALAB_SANITY_RACE_DETECTOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace numalab {
namespace sanity {

/// Shadow granularities. The line size must match the memory model's cache
/// line (static_asserted in mem_system.cc); the word is the refinement unit
/// under which accesses are considered "the same location".
inline constexpr uint64_t kShadowLineBytes = 64;
inline constexpr uint64_t kShadowWordBytes = 8;
inline constexpr int kWordsPerLine =
    static_cast<int>(kShadowLineBytes / kShadowWordBytes);

class RaceDetector {
 public:
  /// One detected racy pair. `text` is the full human-readable report; the
  /// structured fields exist so tests can assert without string-parsing.
  struct Report {
    std::string text;
    uint64_t line = 0;     ///< simulated (slab-relative) line index
    int word = -1;         ///< refined word within the line, -1 at line level
    int tid = -1;          ///< current accessor (simulated vthread id)
    int prior_tid = -1;    ///< earlier accessor it races with
    uint64_t vclock = 0;       ///< current accessor's virtual clock
    uint64_t prior_vclock = 0; ///< earlier accessor's virtual clock
    bool is_write = false;
    bool prior_is_write = false;
  };

  RaceDetector();
  ~RaceDetector();

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  /// Installs the callback that renders "node/page/region" detail for a
  /// simulated address in reports (provided by MemSystem, which can consult
  /// the simulated page table). Optional; reports degrade gracefully.
  void SetAddrResolver(std::function<std::string(uint64_t)> fn) {
    resolver_ = std::move(fn);
  }

  // -- thread lifecycle ----------------------------------------------------
  /// Fork edge: everything `parent_tid` did so far happens-before the new
  /// thread. tid -1 denotes the setup/root context (host code outside any
  /// coroutine), which is where SimContext builds inputs and tables.
  void OnThreadStart(int tid, const std::string& name, int parent_tid);
  /// Join edge back into the root context (Engine::Run observes completion;
  /// everything after Run() happens-after every thread).
  void OnThreadFinish(int tid);

  // -- synchronization edges -----------------------------------------------
  /// Acquire: the caller's clock joins the sync object's. Used by
  /// Env::Lock (VirtualLock critical sections).
  void OnAcquire(int tid, const void* sync);
  /// Release: the sync object's clock becomes the caller's; the caller's
  /// own component is bumped so later work is concurrent with the release.
  void OnRelease(int tid, const void* sync);
  /// Barrier: all listed threads' clocks are joined and redistributed —
  /// everything before any arrival happens-before everything after release.
  void OnBarrier(const void* barrier, const std::vector<int>& tids);

  // -- allocator -----------------------------------------------------------
  /// A (re)allocated block carries no history: clears its shadow and
  /// records the allocating site for reports. `sim_addr` is slab-relative.
  void OnAlloc(int tid, uint64_t sim_addr, uint64_t bytes, uint64_t vclock);

  // -- memory accesses -----------------------------------------------------
  /// One simulated access (or a batched span — spans tile their whole byte
  /// range) of [sim_addr, sim_addr + bytes). `vclock` is the accessor's
  /// virtual-cycle clock at the call, recorded for reports only.
  void OnAccess(int tid, uint64_t sim_addr, uint64_t bytes, bool write,
                uint64_t vclock);

  const std::vector<Report>& reports() const { return reports_; }
  bool clean() const { return reports_.empty(); }
  /// Total races observed, including ones suppressed by dedup/cap.
  uint64_t races_observed() const { return races_observed_; }

 private:
  using VC = std::vector<uint32_t>;
  /// Epoch: (shifted thread id + 1) << 32 | scalar clock. 0 means "empty".
  using Epoch = uint64_t;

  /// FastTrack per-granule state: last write epoch, last read epoch (or a
  /// full read vector clock once concurrent readers appear), plus the
  /// accessors' virtual clocks for reporting.
  struct AccessState {
    Epoch w_epoch = 0;
    Epoch r_epoch = 0;
    uint64_t w_vclock = 0;
    uint64_t r_vclock = 0;
    std::unique_ptr<VC> r_vc;  ///< read-shared promotion (rare)
  };

  /// Per-line shadow: starts in line mode (one AccessState + word masks);
  /// an epoch conflict with disjoint masks promotes to per-word states.
  struct LineShadow {
    AccessState line;
    uint8_t w_mask = 0;
    uint8_t r_mask = 0;
    std::unique_ptr<std::array<AccessState, kWordsPerLine>> words;
  };

  struct AllocInfo {
    uint64_t bytes = 0;
    int tid = -1;
    uint64_t vclock = 0;
  };

  static constexpr size_t kMaxReports = 32;

  /// Shifted id: slot 0 is the root context (tid -1), workers at tid + 1.
  static size_t Sid(int tid) { return static_cast<size_t>(tid + 1); }
  static Epoch MakeEpoch(size_t sid, uint32_t clk) {
    return ((static_cast<uint64_t>(sid) + 1) << 32) | clk;
  }
  static size_t EpochSid(Epoch e) {
    return static_cast<size_t>((e >> 32) - 1);
  }
  static uint32_t EpochClk(Epoch e) { return static_cast<uint32_t>(e); }

  VC& ClockOf(size_t sid);
  Epoch CurrentEpoch(size_t sid);
  bool EpochLeq(Epoch e, const VC& c) const;
  static void Join(VC* into, const VC& from);

  /// Runs the FastTrack state machine on one granule. `word` is -1 at line
  /// granularity. Returns false when a line-level conflict had disjoint
  /// masks and the caller must refine to words instead.
  bool CheckGranule(AccessState* st, uint8_t* w_mask, uint8_t* r_mask,
                    uint64_t line, int word, size_t sid, uint8_t mask,
                    bool write, uint64_t vclock);
  void Promote(LineShadow* ls);
  void ReportRace(uint64_t line, int word, size_t sid, bool write,
                  uint64_t vclock, Epoch prior, bool prior_is_write,
                  uint64_t prior_vclock);
  std::string DescribeThread(size_t sid) const;
  std::string DescribeAlloc(uint64_t sim_addr) const;
  void ClearRange(uint64_t sim_addr, uint64_t bytes);

  std::vector<VC> clocks_;                       // indexed by sid
  std::vector<std::string> names_;               // indexed by sid
  std::unordered_map<const void*, VC> sync_vc_;  // locks and barriers
  std::unordered_map<uint64_t, LineShadow> shadow_;  // keyed by line index
  std::map<uint64_t, AllocInfo> allocs_;         // keyed by block base
  std::unordered_set<uint64_t> reported_lines_;  // dedup: one report per line
  std::vector<Report> reports_;
  uint64_t races_observed_ = 0;
  std::function<std::string(uint64_t)> resolver_;
};

}  // namespace sanity
}  // namespace numalab

#endif  // NUMALAB_SANITY_RACE_DETECTOR_H_

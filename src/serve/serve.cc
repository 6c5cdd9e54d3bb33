// numalab::serve implementation. See serve.h for the model.
//
// Determinism notes: every random draw (request payloads, arrival gaps,
// retry jitter — there is none) comes from one host-side Rng seeded from
// (rc.seed, run_index); arrival events are scheduled through the engine's
// deterministic event queue; and all shared mutable state (the node
// queues) is only touched from worker coroutines under a VirtualLock or
// from events, both of which the single-host-thread engine serializes in
// virtual-time order. Two same-seed runs are therefore bit-identical,
// which scripts/check.sh's same-seed merged-JSON diff enforces.

#include "src/serve/serve.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/faultlab/faultlab.h"
#include "src/index/hash_table.h"
#include "src/minidb/queries.h"
#include "src/minidb/tpch_gen.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace serve {
namespace {

using workloads::Env;
using workloads::SimContext;
using workloads::WorkerSlice;

// Server-side cost constants (virtual cycles). Dispatch covers request
// parse + route + response marshalling; it is paid once per *batch*, which
// together with the single queue-lock acquire is the amortization the
// dynamic batcher wins on.
constexpr uint64_t kDispatchCycles = 150;
constexpr uint64_t kQueueOpCycles = 30;    // lock hold per dispatch
constexpr uint64_t kPointCycles = 50;      // per point lookup
constexpr uint64_t kRangePerRowCycles = 4;
constexpr uint64_t kProbeCycles = 40;
constexpr uint64_t kUpsertCycles = 40;
constexpr uint64_t kBatchSortCycles = 12;  // per batched request
constexpr uint64_t kIdlePollCycles = 400;  // empty-queue poll
constexpr uint64_t kBatchPollCycles = 120; // batch-window poll
constexpr int kTpchQuery = 6;              // RequestType::kTpch runs Q6

struct Request {
  RequestType type = RequestType::kPointGet;
  uint64_t key = 0;        // point/probe/upsert key; range start; tpch salt
  uint32_t rows = 0;       // kRangeAgg only
  int target_node = -1;    // set by routing on (each) admission attempt
  int attempts = 0;
  int session = -1;        // closed-loop session id, -1 for open loop
  uint64_t arrival = 0;    // first submission cycle
};

/// Bounded per-node request ring. The slot array lives in simulated memory
/// on its node, so draining a remote queue pays remote DRAM. Producers are
/// arrival *events* (exogenous clients; their writes model NIC DMA and are
/// not charged to any server thread); consumers are worker coroutines that
/// serialize on the VirtualLock and charge their slot reads/writes.
///
/// Lock contract: `lock` guards the consumer side — a worker may pop
/// (advance `head`, read `slots`) only between Env::Lock(&lock, hold)
/// and Env::LockReleased(&lock), which clang's thread-safety analysis
/// checks for balance (see src/common/thread_annotations.h). Two accesses
/// are intentionally outside the lock and are sound only because the
/// engine serializes everything on one host thread in virtual-time order:
///  * the producer SubmitRequest writes `slots`/`tail` from event context
///    (exogenous NIC-DMA model; events never interleave with a worker's
///    critical section), and
///  * depth() and the batch-window head peek are unlocked reads used as a
///    scheduling hint; the pop that follows re-reads under the lock.
struct NodeQueue {
  uint32_t* slots = nullptr;
  uint64_t head = 0;
  uint64_t tail = 0;
  uint64_t cap = 0;
  sim::VirtualLock lock;

  uint64_t depth() const { return tail - head; }
};

struct ClosedSession {
  uint32_t next = 0;  // next request id in this session's block
  uint32_t end = 0;
};

using ProbeTable = index::ConcurrentHashTable<uint64_t>;

struct ServeState {
  const ServeConfig* sc = nullptr;
  SimContext* ctx = nullptr;
  int nodes = 1;

  // Data plane.
  std::vector<datagen::Record*> parts;  // per-node partition base
  uint64_t keys_per_node = 1;
  datagen::JoinTuple* build = nullptr;  // probe-table build side (sim mem)
  uint64_t build_rows = 0;
  ProbeTable* probe_table = nullptr;
  std::unique_ptr<minidb::Database> db;  // null when the mix has no TPC-H
  const minidb::SystemProfile* prof = nullptr;
  storage::StorageEngine* store = nullptr;  // null unless storage.enabled

  // Request plane.
  std::vector<Request> reqs;
  std::vector<NodeQueue> queues;
  std::vector<ClosedSession> sessions;
  std::vector<uint64_t> open_offsets;  // open-loop arrival offsets
  uint64_t arrival_base = 0;  // serving-open cycle the offsets count from
  uint64_t arrival_seq = 0;   // event seq reserved for arrival 0
  uint64_t peak_pending_events = 0;  // see ServeResult
  uint64_t outstanding = 0;  // submitted-or-pending requests not yet resolved
  bool serving_open = false;

  // Measurements (host-side bookkeeping; never read by simulated code).
  ServingStats st;
  std::vector<uint64_t> lat[kNumRequestTypes];  // sojourns per type
  std::vector<Histogram> worker_hist;           // merged at Finish
};

// ---------------------------------------------------------------------------
// Admission control.

/// Routes a request to the node owning its data, falling back per the
/// active MemPolicy when ownership is ill-defined: kPreferred binds all
/// traffic to the preferred node, kInterleave has no owner (pages are
/// round-robined) so requests hash-spread instead.
int RouteNode(const ServeState& s, const Request& r) {
  if (s.sc->spread_reads && (r.type == RequestType::kPointGet ||
                             r.type == RequestType::kRangeAgg)) {
    return static_cast<int>((index::HashKey(r.key) >> 32) %
                            static_cast<uint64_t>(s.nodes));
  }
  switch (s.ctx->config().policy) {
    case mem::MemPolicy::kPreferred:
      return s.ctx->config().preferred_node % s.nodes;
    case mem::MemPolicy::kInterleave:
      return static_cast<int>((index::HashKey(r.key) >> 32) %
                              static_cast<uint64_t>(s.nodes));
    default:
      break;
  }
  switch (r.type) {
    case RequestType::kPointGet:
    case RequestType::kRangeAgg:
      return static_cast<int>(
          std::min<uint64_t>(r.key / s.keys_per_node,
                             static_cast<uint64_t>(s.nodes) - 1));
    default:
      // Probe/upsert targets and TPC-H queries hash-spread: the shared
      // table's stripes live everywhere, and a serial analytic query only
      // needs *a* server, not a particular one.
      return static_cast<int>((index::HashKey(r.key) >> 32) %
                              static_cast<uint64_t>(s.nodes));
  }
}

/// Queue bound for this admission decision. Under faultlab memory pressure
/// (spilled or last-resort pages observed so far) the bound halves: a
/// degrading node should shed earlier, not queue deeper.
uint64_t EffectiveCap(const ServeState& s) {
  const perf::SystemCounters* sys = s.ctx->memsys()->sys();
  uint64_t pressure = sys->pages_spilled + sys->oom_last_resort_pages;
  uint64_t cap = s.sc->queue_cap;
  if (pressure > 0) cap = std::max<uint64_t>(1, cap / 2);
  return cap;
}

void SubmitRequest(ServeState& s, uint32_t id, uint64_t now);

void ResolveForSession(ServeState& s, const Request& r, uint64_t now) {
  if (r.session < 0) return;
  ClosedSession& sess = s.sessions[static_cast<size_t>(r.session)];
  if (sess.next >= sess.end) return;
  uint32_t next_id = sess.next++;
  s.ctx->engine()->ScheduleEvent(now + s.sc->think_cycles,
                                 [&s, next_id, now] {
                                   SubmitRequest(s, next_id,
                                                 now + s.sc->think_cycles);
                                 });
}

/// One admission attempt. Runs in event context (arrivals, retries), so it
/// charges no server cycles — the server pays on dispatch. Rejections
/// schedule a retry-after (exponential backoff) until the budget is spent,
/// then the request is dropped.
void SubmitRequest(ServeState& s, uint32_t id, uint64_t now) {
  Request& r = s.reqs[id];
  if (r.attempts == 0) {
    r.arrival = now;
    if (s.st.offered == 0 || now < s.st.first_arrival_cycle) {
      s.st.first_arrival_cycle = now;
    }
    ++s.st.offered;
  }

  int node = RouteNode(s, r);
  if (faultlab::FaultLab* fl = s.ctx->faults()) {
    // A withdrawn node still serves its resident data in the memory model,
    // but the serving layer stops *dispatching* to it: reroute to the next
    // online node, deterministically.
    int probe = node;
    bool found = false;
    for (int i = 0; i < s.nodes; ++i) {
      int cand = (node + i) % s.nodes;
      if (fl->NodeOnline(cand, now)) {
        probe = cand;
        found = true;
        break;
      }
    }
    if (found && probe != node) {
      ++s.st.nodes[static_cast<size_t>(node)].redirected_offline;
      node = probe;
    } else if (!found) {
      node = -1;  // nothing online: treat as a full-system rejection
    }
  }

  NodeQueue* q = node >= 0 ? &s.queues[static_cast<size_t>(node)] : nullptr;
  if (q == nullptr || q->depth() >= EffectiveCap(s)) {
    ++s.st.rejected;
    if (node >= 0) ++s.st.nodes[static_cast<size_t>(node)].rejected;
    ++r.attempts;
    if (r.attempts <= s.sc->max_retries) {
      // Retry-after: the client backs off 1x, 2x, 4x... the base interval.
      uint64_t backoff = s.sc->retry_backoff_cycles
                         << (r.attempts - 1 < 8 ? r.attempts - 1 : 8);
      ++s.st.retries;
      s.ctx->engine()->ScheduleEvent(
          now + backoff,
          [&s, id, now, backoff] { SubmitRequest(s, id, now + backoff); });
    } else {
      ++s.st.dropped;
      --s.outstanding;
      ResolveForSession(s, r, now);
    }
    return;
  }

  r.target_node = node;
  q->slots[q->tail % q->cap] = id;
  ++q->tail;
  ++s.st.admitted;
  NodeStats& ns = s.st.nodes[static_cast<size_t>(node)];
  ++ns.enqueued;
  ns.max_depth = std::max(ns.max_depth, q->depth());
  s.st.max_queue_depth = std::max(s.st.max_queue_depth, q->depth());
}

// ---------------------------------------------------------------------------
// Request generation (host-side, before the simulation starts).

struct MixCdf {
  double cum[kNumRequestTypes];
};

MixCdf BuildMix(const ServeConfig& sc) {
  double w[kNumRequestTypes] = {sc.mix_point, sc.mix_range, sc.mix_probe,
                                sc.mix_upsert, sc.mix_tpch};
  double total = 0;
  for (double x : w) total += x < 0 ? 0 : x;
  NUMALAB_CHECK(total > 0);
  MixCdf m;
  double run = 0;
  for (int i = 0; i < kNumRequestTypes; ++i) {
    run += (w[i] < 0 ? 0 : w[i]) / total;
    m.cum[i] = run;
  }
  m.cum[kNumRequestTypes - 1] = 1.0;
  return m;
}

void GenerateRequests(ServeState& s, Rng& rng) {
  const ServeConfig& sc = *s.sc;
  MixCdf mix = BuildMix(sc);
  uint64_t cursor = rng.Uniform(sc.kv_keys);  // point-locality scan cursor
  s.reqs.resize(sc.requests);
  for (uint64_t i = 0; i < sc.requests; ++i) {
    Request& r = s.reqs[i];
    double u = rng.NextDouble();
    int t = 0;
    while (t < kNumRequestTypes - 1 && u >= mix.cum[t]) ++t;
    r.type = static_cast<RequestType>(t);
    switch (r.type) {
      case RequestType::kPointGet:
        // Hot-set draw first (short-circuit keeps the stream bit-identical
        // when the skew is off); hot hits leave the scan cursor alone.
        if (sc.hot_fraction > 0 && sc.hot_keys > 0 &&
            rng.Bernoulli(sc.hot_fraction)) {
          r.key = rng.Uniform(sc.hot_keys);
          break;
        }
        if (rng.Bernoulli(sc.point_locality)) {
          cursor = (cursor + 1) % sc.kv_keys;
        } else {
          cursor = rng.Uniform(sc.kv_keys);
        }
        r.key = cursor;
        break;
      case RequestType::kRangeAgg: {
        uint64_t span = sc.kv_keys > sc.range_rows
                            ? sc.kv_keys - sc.range_rows
                            : 1;
        if (sc.hot_fraction > 0 && sc.hot_keys > 0 &&
            rng.Bernoulli(sc.hot_fraction)) {
          span = sc.hot_keys > sc.range_rows ? sc.hot_keys - sc.range_rows
                                             : 1;
        }
        r.key = rng.Uniform(span);
        r.rows = static_cast<uint32_t>(sc.range_rows);
        break;
      }
      case RequestType::kProbe:
        // ~80% hits: probe keys drawn from [0, 1.25 * build_rows).
        r.key = rng.Uniform(s.build_rows + s.build_rows / 4 + 1);
        break;
      case RequestType::kUpsert:
        r.key = rng.Uniform(s.build_rows * 2 + 1);
        break;
      case RequestType::kTpch:
        r.key = rng.Next();  // routing salt only
        break;
    }
  }

  if (sc.arrival == Arrival::kClosed) {
    int nsess = std::max(1, sc.sessions);
    uint64_t per = sc.requests / static_cast<uint64_t>(nsess);
    s.sessions.resize(static_cast<size_t>(nsess));
    uint64_t next = 0;
    for (int i = 0; i < nsess; ++i) {
      uint64_t end = i == nsess - 1 ? sc.requests : next + per;
      s.sessions[static_cast<size_t>(i)] = {
          static_cast<uint32_t>(next), static_cast<uint32_t>(end)};
      for (uint64_t j = next; j < end; ++j) s.reqs[j].session = i;
      next = end;
    }
    return;
  }

  s.open_offsets.resize(sc.requests);
  uint64_t gap = std::max<uint64_t>(1, sc.mean_gap_cycles);
  switch (sc.arrival) {
    case Arrival::kFixed:
      for (uint64_t i = 0; i < sc.requests; ++i) s.open_offsets[i] = i * gap;
      break;
    case Arrival::kPoisson: {
      uint64_t t = 0;
      for (uint64_t i = 0; i < sc.requests; ++i) {
        double e = -std::log(1.0 - rng.NextDouble()) *
                   static_cast<double>(gap);
        t += std::max<uint64_t>(1, static_cast<uint64_t>(e));
        s.open_offsets[i] = t;
      }
      break;
    }
    case Arrival::kBurst: {
      uint64_t b = std::max<uint64_t>(1, sc.burst_size);
      for (uint64_t i = 0; i < sc.requests; ++i) {
        s.open_offsets[i] = (i / b) * b * gap;
      }
      break;
    }
    case Arrival::kClosed:
      break;  // handled above
  }
}

/// Schedules open-loop arrival `i` on its reserved seq. Each arrival
/// schedules its successor before it submits, so the event heap holds one
/// pending arrival rather than the whole stream. The offsets are
/// non-decreasing and the seqs increasing, so arrival i+1 is always pushed
/// before it can be due, and (when, seq) order makes it pop exactly where
/// it would have popped had the whole stream been scheduled up front
/// (DESIGN.md §14).
void ScheduleArrival(ServeState& s, uint32_t i) {
  sim::Engine* eng = s.ctx->engine();
  uint64_t at = s.arrival_base + 1 + s.open_offsets[i];
  eng->ScheduleEvent(at, s.arrival_seq + i, [&s, i, at] {
    if (i + 1 < s.open_offsets.size()) ScheduleArrival(s, i + 1);
    SubmitRequest(s, i, at);
  });
  s.peak_pending_events =
      std::max<uint64_t>(s.peak_pending_events, eng->pending_events());
}

/// Starts the client side. Runs once, from worker 0, right after the
/// warmup barrier, so serving opens only when the data plane is built.
void StartClients(ServeState& s, uint64_t base) {
  sim::Engine* eng = s.ctx->engine();
  if (s.sc->arrival == Arrival::kClosed) {
    for (size_t i = 0; i < s.sessions.size(); ++i) {
      ClosedSession& sess = s.sessions[i];
      if (sess.next >= sess.end) continue;
      uint32_t id = sess.next++;
      // Stagger session starts so the initial wave is not one burst.
      uint64_t at = base + (static_cast<uint64_t>(i) + 1) *
                               std::max<uint64_t>(1, s.sc->think_cycles /
                                                         (s.sessions.size() +
                                                          1));
      eng->ScheduleEvent(at, [&s, id, at] { SubmitRequest(s, id, at); });
    }
    return;
  }
  if (s.open_offsets.empty()) return;
  s.arrival_base = base;
  s.arrival_seq = eng->ReserveEventSeqs(s.open_offsets.size());
  ScheduleArrival(s, 0);
}

// ---------------------------------------------------------------------------
// Dispatch + execution.

/// Records a completion: sojourn into the exact per-type vector and the
/// worker's mergeable histogram, response digest into the order-independent
/// checksum, and (closed loop) the session's next submission.
void OnCompleted(ServeState& s, Env& env, const Request& r,
                 uint64_t response) {
  uint64_t now = env.self->clock;
  uint64_t sojourn = now > r.arrival ? now - r.arrival : 0;
  ++s.st.completed;
  s.st.last_completion_cycle = std::max(s.st.last_completion_cycle, now);
  s.lat[static_cast<int>(r.type)].push_back(sojourn);
  s.worker_hist[static_cast<size_t>(env.worker_index)].Add(sojourn);
  s.st.checksum += response + index::HashKey(r.key);
  --s.outstanding;
  ResolveForSession(s, r, now);
}

uint64_t PointValue(uint64_t key) {
  return key * 0x9e3779b97f4a7c15ULL ^ (key >> 7);
}

/// The server worker: warm up the shared data plane, then drain queues
/// (home node first, then work-steal in deterministic order) until every
/// offered request has been completed or dropped.
sim::Task ServeWorker(Env& env, ServeState& s) {
  trace::ScopedSpan worker_span(env.self, "worker");
  const ServeConfig& sc = *s.sc;

  // --- Warmup: stripe the probe-table build across workers (UpsertSet
  // under the stripe lock, exactly the W3 build idiom). ---
  {
    trace::ScopedSpan warm_span(env.self, "warmup");
    auto [lo, hi] =
        WorkerSlice(s.build_rows, env.num_workers, env.worker_index);
    for (uint64_t i = lo; i < hi && !env.Failed(); ++i) {
      env.Read(&s.build[i], sizeof(datagen::JoinTuple));
      s.probe_table->UpsertSet(env, s.build[i].key, s.build[i].payload);
      co_await env.Checkpoint();
    }
    co_await s.ctx->barrier()->Arrive();
  }

  if (env.worker_index == 0 && !env.Failed()) {
    StartClients(s, env.self->clock);
    s.serving_open = true;
  }

  trace::ScopedSpan serve_span(env.self, "serve");
  int home = env.worker_index % s.nodes;
  uint32_t batch[256];
  const uint64_t batch_max =
      std::min<uint64_t>(std::max<uint64_t>(1, sc.batch_max), 256);

  while (s.outstanding > 0 && !env.Failed()) {
    // Pick the first non-empty queue, home node first. Scanning queue
    // depths is host-side (the real signal would be a futex/doorbell);
    // the pop itself is charged below.
    int node = -1;
    for (int i = 0; i < s.nodes; ++i) {
      int cand = (home + i) % s.nodes;
      if (s.queues[static_cast<size_t>(cand)].depth() > 0) {
        node = cand;
        break;
      }
    }
    if (node < 0) {
      // Nothing to pop until an arrival event or another worker fills a
      // queue, and neither runs before this worker suspends: poll out the
      // rest of the quantum in one charge.
      env.IdlePoll(kIdlePollCycles, UINT64_MAX);
      co_await env.Checkpoint();
      continue;
    }

    NodeQueue& q = s.queues[static_cast<size_t>(node)];
    uint64_t nbatch = 0;

    // Pop one dispatch under the queue lock: the head request, plus — if it
    // is a point lookup — every immediately-following point lookup up to
    // batch_max.
    auto drain = [&](Env& e) {
      e.Lock(&q.lock, kQueueOpCycles);
      while (q.depth() > 0 && nbatch < batch_max) {
        uint32_t id = q.slots[q.head % q.cap];
        e.Read(&q.slots[q.head % q.cap], sizeof(uint32_t));
        if (nbatch > 0 &&
            s.reqs[id].type != RequestType::kPointGet) {
          break;  // only point lookups coalesce
        }
        e.Write(&q.slots[q.head % q.cap], sizeof(uint32_t));
        ++q.head;
        batch[nbatch++] = id;
        if (s.reqs[id].type != RequestType::kPointGet) break;
      }
      e.LockReleased(&q.lock);
    };
    drain(env);
    if (nbatch == 0) continue;  // raced with another worker's pop

    // Dynamic batching: a non-full point batch may wait a bounded window
    // for more coalescible arrivals — trading a little latency for the
    // amortized dispatch the throughput numbers show.
    if (s.reqs[batch[0]].type == RequestType::kPointGet &&
        nbatch < batch_max && sc.batch_window_cycles > 0 && batch_max > 1) {
      // The drain above left the queue empty or headed by a non-point
      // request, and only events or other workers change that: poll up to
      // the deadline or the quantum end, whichever comes first.
      uint64_t deadline = env.self->clock + sc.batch_window_cycles;
      while (nbatch < batch_max && env.self->clock < deadline &&
             s.outstanding > nbatch) {
        env.IdlePoll(kBatchPollCycles, deadline);
        co_await env.Checkpoint();
        if (q.depth() > 0 &&
            s.reqs[q.slots[q.head % q.cap]].type == RequestType::kPointGet) {
          drain(env);
        }
      }
    }

    env.Compute(kDispatchCycles);
    ++s.st.batches;
    s.st.max_batch = std::max<uint64_t>(s.st.max_batch, nbatch);

    if (s.reqs[batch[0]].type == RequestType::kPointGet) {
      if (nbatch > 1) {
        s.st.batched_requests += nbatch;
        // Sort by key so adjacent keys become contiguous record runs.
        env.Compute(nbatch * kBatchSortCycles);
        std::sort(batch, batch + nbatch, [&](uint32_t a, uint32_t b) {
          return s.reqs[a].key < s.reqs[b].key;
        });
      }
      if (s.store != nullptr) {
        // Storage mode: the batch still amortizes dispatch + queue lock,
        // and the key sort turns adjacent keys into same-page hits in the
        // buffer pool (the paged analogue of the span coalescing below).
        for (uint64_t x = 0; x < nbatch; ++x) {
          const Request& pr = s.reqs[batch[x]];
          uint64_t v = 0;
          s.store->Get(env, pr.key % sc.kv_keys, &v);
          env.Compute(kPointCycles);
          OnCompleted(s, env, pr, v);
        }
        co_await env.Checkpoint();
        continue;
      }
      uint64_t i = 0;
      while (i < nbatch) {
        // Coalesce a run of consecutive keys into one span access — the
        // PR-1 AccessSpan fast path. Keys outside this node's partition
        // (policy-fallback routing) read their owning partition instead.
        uint64_t k0 = s.reqs[batch[i]].key;
        uint64_t j = i + 1;
        while (j < nbatch && s.reqs[batch[j]].key == k0 + (j - i)) ++j;
        uint64_t owner = std::min<uint64_t>(
            k0 / s.keys_per_node, static_cast<uint64_t>(s.nodes) - 1);
        datagen::Record* arr = s.parts[static_cast<size_t>(owner)];
        uint64_t local = k0 - owner * s.keys_per_node;
        uint64_t run = std::min(j - i, s.keys_per_node - local);
        env.ReadSpan(&arr[local], run * sizeof(datagen::Record),
                     sizeof(datagen::Record));
        env.Compute((j - i) * kPointCycles);
        for (uint64_t x = i; x < j; ++x) {
          OnCompleted(s, env, s.reqs[batch[x]],
                      PointValue(s.reqs[batch[x]].key));
        }
        i = j;
      }
      co_await env.Checkpoint();
      continue;
    }

    // Non-batched types execute singly (nbatch == 1).
    const Request& r = s.reqs[batch[0]];
    switch (r.type) {
      case RequestType::kRangeAgg: {
        if (s.store != nullptr) {
          uint64_t sum = s.store->ScanSum(env, r.key % sc.kv_keys, r.rows);
          env.Compute(static_cast<uint64_t>(r.rows) * kRangePerRowCycles);
          OnCompleted(s, env, r, sum);
          break;
        }
        uint64_t owner = std::min<uint64_t>(
            r.key / s.keys_per_node, static_cast<uint64_t>(s.nodes) - 1);
        datagen::Record* arr = s.parts[static_cast<size_t>(owner)];
        uint64_t local = r.key - owner * s.keys_per_node;
        uint64_t rows = std::min<uint64_t>(r.rows,
                                           s.keys_per_node - local);
        env.ReadSpan(&arr[local], rows * sizeof(datagen::Record),
                     sizeof(datagen::Record));
        env.Compute(rows * kRangePerRowCycles);
        uint64_t sum = 0;
        for (uint64_t x = 0; x < rows; ++x) {
          sum += static_cast<uint64_t>(arr[local + x].val);
        }
        OnCompleted(s, env, r, sum);
        break;
      }
      case RequestType::kProbe: {
        ProbeTable::Entry* e = s.probe_table->Find(env, r.key);
        env.Compute(kProbeCycles);
        OnCompleted(s, env, r, e != nullptr ? e->value : 0);
        break;
      }
      case RequestType::kUpsert: {
        uint64_t v = PointValue(r.key);
        if (s.store != nullptr) {
          // Durable write: WAL append (group commit), then the in-frame
          // slot update. A false return means the buffer pool could not
          // materialize the page (allocation chain exhausted).
          if (!s.store->Upsert(env, r.key % sc.kv_keys, v)) v = 0;
        } else if (s.probe_table->UpsertSet(env, r.key, v) == nullptr) {
          // Injected allocation failure: the table entry could not be
          // created; the request still completes (as a failed write).
          v = 0;
        }
        env.Compute(kUpsertCycles);
        OnCompleted(s, env, r, v);
        break;
      }
      case RequestType::kTpch: {
        // One analytic query executed serially by this server: nworkers=1
        // morsel loop with checkpoints, serial phases inline. The shadow
        // Env pins worker_index to 0 because phase bodies index per-worker
        // state (QueryState::locals) by it.
        Env tenv = env;
        tenv.worker_index = 0;
        tenv.num_workers = 1;
        minidb::QCtx qc{&tenv, s.prof};
        minidb::QueryState qs;
        qs.Prepare(s.db.get(), 1);
        minidb::QueryPlan plan = minidb::BuildTpchPlan(kTpchQuery, &qs);
        for (const minidb::Phase& phase : plan.phases) {
          if (env.Failed()) break;
          if (phase.rows == 0) {
            phase.body(qc, 0, 0);
          } else {
            for (uint64_t m = 0; m < phase.rows; m += minidb::kMorselRows) {
              phase.body(qc, m,
                         std::min(m + minidb::kMorselRows, phase.rows));
              co_await env.Checkpoint();
            }
          }
          co_await env.Checkpoint();
        }
        OnCompleted(s, env, r,
                    qs.out.rows +
                        static_cast<uint64_t>(std::llround(qs.out.digest)));
        break;
      }
      case RequestType::kPointGet:
        break;  // handled above
    }
    co_await env.Checkpoint();
  }
}

using trace::Appendf;

}  // namespace

const char* ArrivalName(Arrival a) {
  switch (a) {
    case Arrival::kFixed: return "fixed";
    case Arrival::kPoisson: return "poisson";
    case Arrival::kBurst: return "burst";
    case Arrival::kClosed: return "closed";
  }
  return "?";
}

bool ArrivalFromName(const std::string& name, Arrival* out) {
  for (Arrival a : {Arrival::kFixed, Arrival::kPoisson, Arrival::kBurst,
                    Arrival::kClosed}) {
    if (name == ArrivalName(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

const char* RequestTypeName(RequestType t) {
  switch (t) {
    case RequestType::kPointGet: return "point";
    case RequestType::kRangeAgg: return "range";
    case RequestType::kProbe: return "probe";
    case RequestType::kUpsert: return "upsert";
    case RequestType::kTpch: return "tpch";
  }
  return "?";
}

ServeResult RunServing(const workloads::RunConfig& rc,
                       const ServeConfig& sc) {
  // Hot keys index the partitions directly; past kv_keys they would read
  // beyond the last one.
  NUMALAB_CHECK(sc.hot_keys <= sc.kv_keys);
  SimContext ctx(rc);
  ServeState s;
  s.sc = &sc;
  s.ctx = &ctx;
  s.nodes = ctx.machine().num_nodes();
  s.st.nodes.resize(static_cast<size_t>(s.nodes));
  s.worker_hist.resize(static_cast<size_t>(rc.threads));

  // --- Data plane. ---
  // Range-partitioned record store, one slab per node, first-touched on its
  // owner so NUMA-aware routing actually buys locality.
  s.keys_per_node = std::max<uint64_t>(1, sc.kv_keys /
                                              static_cast<uint64_t>(s.nodes));
  s.parts.resize(static_cast<size_t>(s.nodes));
  for (int n = 0; n < s.nodes; ++n) {
    uint64_t count = n == s.nodes - 1
                         ? sc.kv_keys - s.keys_per_node *
                                            static_cast<uint64_t>(s.nodes - 1)
                         : s.keys_per_node;
    count = std::max<uint64_t>(count, s.keys_per_node);
    auto* part = ctx.AllocInput<datagen::Record>(count);
    uint64_t base = static_cast<uint64_t>(n) * s.keys_per_node;
    for (uint64_t i = 0; i < count; ++i) {
      part[i].key = base + i;
      part[i].val = static_cast<int64_t>(PointValue(base + i) >> 32);
    }
    workloads::PretouchAsNode(ctx.memsys(), part,
                              count * sizeof(datagen::Record), n);
    s.parts[static_cast<size_t>(n)] = part;
  }

  // Probe-table build side (warmup inserts it through the stripe locks).
  s.build_rows = std::max<uint64_t>(1, sc.probe_build_rows);
  {
    std::vector<datagen::JoinTuple> host_build, host_probe;
    datagen::MakeJoinInput(s.build_rows, /*probe_rows=*/1, rc.seed,
                           &host_build, &host_probe);
    s.build = ctx.CopyInput(host_build);
  }
  Env setup = ctx.MakeEnv();
  ProbeTable probe_table(setup, s.build_rows * 2);
  s.probe_table = &probe_table;

  // minidb database for the analytic slice of the mix.
  if (sc.mix_tpch > 0) {
    const minidb::HostDb& host = minidb::GenerateTpch(sc.tpch_scale, rc.seed);
    s.db = minidb::LoadTpch(host, ctx.allocator(), ctx.memsys());
    s.prof = &minidb::ProfileByName("columnar-vec");
  }

  // Per-node bounded queues; slot rings live in simulated memory on their
  // node so remote draining (work stealing) pays remote DRAM.
  s.queues.resize(static_cast<size_t>(s.nodes));
  for (int n = 0; n < s.nodes; ++n) {
    NodeQueue& q = s.queues[static_cast<size_t>(n)];
    q.cap = std::max<uint64_t>(1, sc.queue_cap);
    q.slots = ctx.AllocInput<uint32_t>(q.cap);
    workloads::PretouchAsNode(ctx.memsys(), q.slots,
                              q.cap * sizeof(uint32_t), n);
  }

  // WAL-backed storage engine under the request stream (storage.enabled). The
  // engine's disk preload is host-side; its frames are allocated lazily by
  // the workers through the fallible chain, so faultlab pressure applies.
  std::unique_ptr<storage::StorageEngine> store;
  if (sc.storage.enabled) {
    storage::StorageConfig scfg = sc.storage;
    scfg.rows = sc.kv_keys;
    store = std::make_unique<storage::StorageEngine>(
        scfg, s.nodes, rc.seed + static_cast<uint64_t>(rc.run_index),
        ctx.faults());
    s.store = store.get();
  }

  // --- Request plane (all randomness drawn here, before the run). ---
  Rng rng(rc.seed * 0x9e3779b97f4a7c15ULL + 0x5e57e5e57e5e57eULL +
          rc.run_index);
  GenerateRequests(s, rng);
  s.outstanding = sc.requests;

  ctx.SpawnWorkers([&](Env& env) { return ServeWorker(env, s); });

  ServeResult out;
  ctx.Finish(&out.run);

  // --- Post-run reduction. ---
  ServingStats& st = s.st;
  for (const Histogram& h : s.worker_hist) st.latency.Merge(h);
  // One sort per type; the all-types order is their linear merge.
  std::vector<uint64_t> all, merged;
  for (int t = 0; t < kNumRequestTypes; ++t) {
    std::vector<uint64_t>& lat = s.lat[t];
    std::sort(lat.begin(), lat.end());
    TypeStats& ts = st.types[t];
    ts.completed = lat.size();
    ts.p50 = PercentileSorted(lat, 50);
    ts.p95 = PercentileSorted(lat, 95);
    ts.p99 = PercentileSorted(lat, 99);
    merged.resize(all.size() + lat.size());
    std::merge(all.begin(), all.end(), lat.begin(), lat.end(),
               merged.begin());
    all.swap(merged);
  }
  st.p50 = PercentileSorted(all, 50);
  st.p95 = PercentileSorted(all, 95);
  st.p99 = PercentileSorted(all, 99);
  st.max = all.empty() ? 0 : all.back();
  st.makespan_cycles =
      st.last_completion_cycle > st.first_arrival_cycle
          ? st.last_completion_cycle - st.first_arrival_cycle
          : 0;
  out.stats = st;
  if (s.store != nullptr) out.storage = s.store->stats();
  out.peak_pending_events = s.peak_pending_events;

  if (trace::CollectEnabled()) {
    std::vector<trace::Section> sections = {
        {"serving", ServingJson(sc, out.stats)}};
    if (s.store != nullptr) {
      sections.push_back(
          {"storage", storage::StorageJson(s.store->config(), out.storage)});
    }
    trace::CollectRun(std::string("serve-") + ArrivalName(sc.arrival), rc,
                      out.run, std::move(sections));
  }
  return out;
}

std::string ServingJson(const ServeConfig& sc, const ServingStats& st) {
  std::string out;
  Appendf(&out, "{\"arrival\":\"%s\",\"requests\":%" PRIu64,
          ArrivalName(sc.arrival), sc.requests);
  Appendf(&out,
          ",\"offered\":%" PRIu64 ",\"admitted\":%" PRIu64
          ",\"completed\":%" PRIu64 ",\"rejected\":%" PRIu64
          ",\"retries\":%" PRIu64 ",\"dropped\":%" PRIu64,
          st.offered, st.admitted, st.completed, st.rejected, st.retries,
          st.dropped);
  Appendf(&out,
          ",\"batches\":%" PRIu64 ",\"batched_requests\":%" PRIu64
          ",\"max_batch\":%" PRIu64 ",\"max_queue_depth\":%" PRIu64,
          st.batches, st.batched_requests, st.max_batch,
          st.max_queue_depth);
  Appendf(&out,
          ",\"makespan_cycles\":%" PRIu64 ",\"cycles_per_query\":%.6g",
          st.makespan_cycles, st.CyclesPerQuery());
  Appendf(&out,
          ",\"latency\":{\"p50\":%" PRIu64 ",\"p95\":%" PRIu64
          ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64 "}",
          st.p50, st.p95, st.p99, st.max);
  out.append(",\"types\":[");
  for (int t = 0; t < kNumRequestTypes; ++t) {
    const TypeStats& ts = st.types[t];
    Appendf(&out,
            "%s{\"type\":\"%s\",\"completed\":%" PRIu64 ",\"p50\":%" PRIu64
            ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
            t == 0 ? "" : ",", RequestTypeName(static_cast<RequestType>(t)),
            ts.completed, ts.p50, ts.p95, ts.p99);
  }
  out.append("],\"nodes\":[");
  for (size_t n = 0; n < st.nodes.size(); ++n) {
    const NodeStats& ns = st.nodes[n];
    Appendf(&out,
            "%s{\"node\":%zu,\"enqueued\":%" PRIu64 ",\"rejected\":%" PRIu64
            ",\"redirected_offline\":%" PRIu64 ",\"max_depth\":%" PRIu64 "}",
            n == 0 ? "" : ",", n, ns.enqueued, ns.rejected,
            ns.redirected_offline, ns.max_depth);
  }
  out.append("],\"hist\":[");
  bool first = true;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (st.latency.count(b) == 0) continue;
    Appendf(&out, "%s[%d,%" PRIu64 "]", first ? "" : ",", b,
            st.latency.count(b));
    first = false;
  }
  out.append("]}");
  return out;
}

}  // namespace serve
}  // namespace numalab

#include "src/trace/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace numalab {
namespace trace {

namespace {

bool g_collect = false;

std::vector<CollectedRun>& MutableRuns() {
  static std::vector<CollectedRun> runs;
  return runs;
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          Appendf(out, "\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendCounters(std::string* out, const perf::ThreadCounters& c) {
  Appendf(out,
          "{\"cycles\":%" PRIu64 ",\"thread_migrations\":%" PRIu64
          ",\"mem_accesses\":%" PRIu64 ",\"private_hits\":%" PRIu64
          ",\"llc_hits\":%" PRIu64 ",\"llc_misses\":%" PRIu64,
          c.cycles, c.thread_migrations, c.mem_accesses, c.private_hits,
          c.llc_hits, c.llc_misses);
  Appendf(out,
          ",\"local_dram\":%" PRIu64 ",\"remote_dram\":%" PRIu64
          ",\"tlb_hits\":%" PRIu64 ",\"tlb_misses\":%" PRIu64
          ",\"hinting_faults\":%" PRIu64,
          c.local_dram, c.remote_dram, c.tlb_hits, c.tlb_misses,
          c.hinting_faults);
  Appendf(out,
          ",\"alloc_calls\":%" PRIu64 ",\"free_calls\":%" PRIu64
          ",\"alloc_cycles\":%" PRIu64 ",\"lock_wait_cycles\":%" PRIu64
          ",\"queue_delay_cycles\":%" PRIu64 "}",
          c.alloc_calls, c.free_calls, c.alloc_cycles, c.lock_wait_cycles,
          c.queue_delay_cycles);
}

bool HasSection(const CollectedRun& run, const char* key) {
  for (const Section& sec : run.sections) {
    if (sec.key == key) return true;
  }
  return false;
}

// `storage` is not a RunConfig field: the flag records whether the run
// carries a "storage" section, so the two can never disagree.
void AppendConfig(std::string* out, const workloads::RunConfig& c,
                  bool storage) {
  out->append("{\"machine\":");
  AppendQuoted(out, c.machine);
  Appendf(out, ",\"threads\":%d,\"affinity\":\"%s\",\"policy\":\"%s\"",
          c.threads, osmodel::AffinityName(c.affinity),
          mem::MemPolicyName(c.policy));
  Appendf(out, ",\"preferred_node\":%d,\"allocator\":", c.preferred_node);
  AppendQuoted(out, c.allocator);
  Appendf(out, ",\"autonuma\":%s,\"thp\":%s,\"dataset\":\"%s\"",
          c.autonuma ? "true" : "false", c.thp ? "true" : "false",
          workloads::DatasetName(c.dataset));
  Appendf(out,
          ",\"num_records\":%" PRIu64 ",\"cardinality\":%" PRIu64
          ",\"build_rows\":%" PRIu64 ",\"probe_rows\":%" PRIu64,
          c.num_records, c.cardinality, c.build_rows, c.probe_rows);
  Appendf(out,
          ",\"seed\":%" PRIu64 ",\"run_index\":%d,\"quantum\":%" PRIu64
          ",\"scalar_mem_path\":%s,\"deadline_cycles\":%" PRIu64
          ",\"placement\":%s,\"storage\":%s}",
          c.seed, c.run_index, workloads::kQuantumCycles,
          c.scalar_mem_path ? "true" : "false", c.deadline_cycles,
          c.placement.enabled ? "true" : "false",
          storage ? "true" : "false");
}

void AppendRun(std::string* out, const CollectedRun& run, int id) {
  const workloads::RunResult& r = run.result;
  Appendf(out, "    {\"id\":%d,\"workload\":", id);
  AppendQuoted(out, run.workload);
  out->append(",\n     \"config\":");
  AppendConfig(out, run.config, HasSection(run, "storage"));
  out->append(",\n     \"status\":");
  AppendQuoted(out, r.status.ToString());
  Appendf(out,
          ",\n     \"cycles\":%" PRIu64 ",\"aux_cycles\":%" PRIu64
          ",\"checksum\":%" PRIu64 ",\"lar\":%.9g",
          r.cycles, r.aux_cycles, r.checksum, r.report.LocalAccessRatio());
  Appendf(out,
          ",\n     \"requested_peak\":%" PRIu64 ",\"resident_peak\":%" PRIu64
          ",\"races\":%" PRIu64,
          r.requested_peak, r.resident_peak, r.races);
  out->append(",\n     \"counters\":");
  AppendCounters(out, r.report.threads);
  const perf::SystemCounters& s = r.report.system;
  Appendf(out,
          ",\n     \"system\":{\"page_migrations\":%" PRIu64
          ",\"thp_collapses\":%" PRIu64 ",\"thp_splits\":%" PRIu64
          ",\"pages_mapped\":%" PRIu64 ",\"bytes_mapped\":%" PRIu64
          ",\"bytes_mapped_peak\":%" PRIu64 ",\"balancer_migrations\":%" PRIu64,
          s.page_migrations, s.thp_collapses, s.thp_splits, s.pages_mapped,
          s.bytes_mapped, s.bytes_mapped_peak, s.balancer_migrations);
  Appendf(out,
          ",\n      \"pages_replicated\":%" PRIu64
          ",\"replica_reads\":%" PRIu64 ",\"replica_writes\":%" PRIu64
          ",\"replica_invalidations\":%" PRIu64 ",\"replica_drops\":%" PRIu64,
          s.pages_replicated, s.replica_reads, s.replica_writes,
          s.replica_invalidations, s.replica_drops);
  Appendf(out,
          ",\"replica_bytes_peak\":%" PRIu64 ",\"migrations_vetoed\":%" PRIu64
          ",\"capacity_bytes_total\":%" PRIu64 "}",
          s.replica_bytes_peak, s.migrations_vetoed, s.capacity_bytes_total);
  Appendf(out,
          ",\n     \"degradation\":{\"pages_spilled\":%" PRIu64
          ",\"oom_last_resort_pages\":%" PRIu64
          ",\"offline_redirects\":%" PRIu64
          ",\"all_offline_binds\":%" PRIu64
          ",\"alloc_failures_injected\":%" PRIu64
          ",\"migration_failures_injected\":%" PRIu64 "}",
          s.pages_spilled, s.oom_last_resort_pages, s.offline_redirects,
          s.all_offline_binds, s.alloc_failures_injected,
          s.migration_failures_injected);

  out->append(",\n     \"threads\":[");
  for (size_t i = 0; i < r.trace.threads.size(); ++i) {
    const ThreadSummary& t = r.trace.threads[i];
    if (i > 0) out->append(",");
    Appendf(out, "\n      {\"id\":%d,\"name\":", t.thread_id);
    AppendQuoted(out, t.name);
    Appendf(out, ",\"node\":%d,\"counters\":", t.node);
    AppendCounters(out, t.counters);
    out->append("}");
  }
  out->append("]");

  // Per-node rollup: top-level span deltas attributed to the node the
  // thread was placed on at phase entry; per-thread run totals (by final
  // placement) when the run recorded threads but no spans.
  std::vector<perf::ThreadCounters> per_node;
  std::vector<bool> node_seen;
  auto add_node = [&](int node, const perf::ThreadCounters& c) {
    if (node < 0) return;
    size_t n = static_cast<size_t>(node);
    if (per_node.size() <= n) {
      per_node.resize(n + 1);
      node_seen.resize(n + 1, false);
    }
    per_node[n].Add(c);
    node_seen[n] = true;
  };
  bool any_spans = false;
  for (const SpanRecord& sp : r.trace.spans) {
    if (sp.depth == 0) {
      add_node(sp.node, sp.delta);
      any_spans = true;
    }
  }
  if (!any_spans) {
    for (const ThreadSummary& t : r.trace.threads) {
      add_node(t.node, t.counters);
    }
  }
  out->append(",\n     \"nodes\":[");
  bool first_node = true;
  for (size_t n = 0; n < per_node.size(); ++n) {
    if (!node_seen[n]) continue;
    if (!first_node) out->append(",");
    first_node = false;
    Appendf(out, "\n      {\"node\":%zu,\"counters\":", n);
    AppendCounters(out, per_node[n]);
    out->append("}");
  }
  out->append("]");

  out->append(",\n     \"spans\":[");
  for (size_t i = 0; i < r.trace.spans.size(); ++i) {
    const SpanRecord& sp = r.trace.spans[i];
    if (i > 0) out->append(",");
    out->append("\n      {\"name\":");
    AppendQuoted(out, sp.name);
    Appendf(out,
            ",\"thread\":%d,\"node\":%d,\"depth\":%d,\"parent\":%" PRId64
            ",\"start\":%" PRIu64 ",\"end\":%" PRIu64 ",\"counters\":",
            sp.thread_id, sp.node, sp.depth, sp.parent, sp.start_cycle,
            sp.end_cycle);
    AppendCounters(out, sp.delta);
    out->append("}");
  }
  out->append("]");

  for (const Section& sec : run.sections) {
    out->append(",\n     ");
    AppendQuoted(out, sec.key);
    out->push_back(':');
    out->append(sec.json);
  }
  out->append("}");
}

}  // namespace

bool CollectEnabled() { return g_collect; }
void SetCollectEnabled(bool on) { g_collect = on; }

void CollectRun(const std::string& workload,
                const workloads::RunConfig& config,
                const workloads::RunResult& result,
                std::vector<Section> sections) {
  if (!g_collect) return;
  MutableRuns().push_back(
      CollectedRun{workload, config, result, std::move(sections)});
}

const std::vector<CollectedRun>& CollectedRuns() { return MutableRuns(); }
void ClearCollectedRuns() { MutableRuns().clear(); }

std::string BenchJson(const std::string& bench,
                      const std::vector<CollectedRun>& runs) {
  std::string out;
  Appendf(&out, "{\"schema_version\":%d,\n \"bench\":", kJsonSchemaVersion);
  AppendQuoted(&out, bench);
  out.append(",\n \"runs\":[");
  for (size_t i = 0; i < runs.size(); ++i) {
    out.append(i == 0 ? "\n" : ",\n");
    AppendRun(&out, runs[i], static_cast<int>(i));
  }
  out.append("]}\n");
  return out;
}

std::string ChromeTraceJson(const std::vector<CollectedRun>& runs) {
  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  auto sep = [&] {
    out.append(first ? "\n" : ",\n");
    first = false;
  };
  for (size_t i = 0; i < runs.size(); ++i) {
    const CollectedRun& run = runs[i];
    int pid = static_cast<int>(i);
    sep();
    Appendf(&out,
            "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":",
            pid);
    std::string label = "run" + std::to_string(pid) + " " + run.workload +
                        " machine=" + run.config.machine;
    AppendQuoted(&out, label);
    out.append("}}");
    for (const ThreadSummary& t : run.result.trace.threads) {
      sep();
      Appendf(&out,
              "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
              "\"args\":{\"name\":",
              pid, t.thread_id);
      AppendQuoted(&out, t.name);
      out.append("}}");
    }
    for (const SpanRecord& sp : run.result.trace.spans) {
      sep();
      Appendf(&out, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":", pid,
              sp.thread_id);
      AppendQuoted(&out, sp.name);
      Appendf(&out,
              ",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
              ",\"args\":{\"node\":%d,\"mem_accesses\":%" PRIu64
              ",\"llc_misses\":%" PRIu64 ",\"local_dram\":%" PRIu64
              ",\"remote_dram\":%" PRIu64 ",\"tlb_misses\":%" PRIu64
              ",\"alloc_cycles\":%" PRIu64 ",\"lock_wait_cycles\":%" PRIu64
              "}}",
              sp.start_cycle, sp.end_cycle - sp.start_cycle, sp.node,
              sp.delta.mem_accesses, sp.delta.llc_misses,
              sp.delta.local_dram, sp.delta.remote_dram,
              sp.delta.tlb_misses, sp.delta.alloc_cycles,
              sp.delta.lock_wait_cycles);
    }
  }
  out.append("]}\n");
  return out;
}

// Buffer is sized for the longest single fragment any emitter formats (a
// counters object line).
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

}  // namespace trace
}  // namespace numalab

#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/ash.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t span_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::SimRun: return "sim.run";
    case SpanKind::Send: return "net.send";
    case SpanKind::Download: return "core.download";
    case SpanKind::DownloadRules: return "core.download_rules";
    case SpanKind::Compile: return "ashc.compile";
    case SpanKind::Verify: return "vcode.verify";
    case SpanKind::Sandbox: return "sandbox.sandbox";
    case SpanKind::TcpConnect: return "proto.connect";
    case SpanKind::TcpRead: return "proto.read";
    case SpanKind::TcpWrite: return "proto.write";
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void SpanLog::record(SpanKind kind, std::uint64_t op, std::int64_t start_ns,
                     std::int64_t end_ns) {
  const auto k = static_cast<std::size_t>(kind);
  totals_ns_[k] += end_ns - start_ns;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({op, start_ns, end_ns, kind});
}

double SpanLog::total_s(SpanKind kind) const noexcept {
  return static_cast<double>(totals_ns_[static_cast<std::size_t>(kind)]) *
         1e-9;
}

bool SpanLog::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "kind\top\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%lld\t%lld\n", to_string(s.kind),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

TraceHarvest::TraceHarvest(std::uint16_t cpus) {
  trace::TracerConfig cfg;
  cfg.ring_capacity = 1u << 16;
  cfg.max_cpus = cpus;
  cfg.max_ash_ids = 256;
  cfg.max_channels = 256;
  cfg.overwrite = false;
  trace::global().enable(cfg);
}

TraceHarvest::~TraceHarvest() {
  drain();
  trace::global().disable();
  trace::global().clear();
}

void TraceHarvest::drain() {
  trace::Tracer& t = trace::global();
  for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
    ash_dispatches_ += t.ash_metrics(id).dispatches;
  }
  for (std::int32_t q = 0; q <= t.max_queue_slot(); ++q) {
    rx_batches_ += t.queue_metrics(q).batches;
  }
  for (std::int32_t c = 0; c <= t.max_channel_slot(); ++c) {
    channel_frames_ += t.channel_metrics(c).frames;
  }
  dilp_runs_ += t.type_count(trace::EventType::DilpRun);
  for (std::uint16_t cpu = 0; cpu < t.cpus(); ++cpu) {
    dropped_ += t.dropped(cpu);
    for (const trace::Event& ev : t.events(cpu)) {
      if (ev.type == trace::EventType::DilpRun) dilp_bytes_ += ev.arg0;
    }
  }
  t.clear();
}

void TraceHarvest::put(Layers& layers) {
  drain();
  layers["dilp.runs"] = static_cast<double>(dilp_runs_);
  layers["dilp.bytes"] = static_cast<double>(dilp_bytes_);
  layers["trace.ash_dispatches"] = static_cast<double>(ash_dispatches_);
  layers["trace.rx_batches"] = static_cast<double>(rx_batches_);
  layers["trace.channel_frames"] = static_cast<double>(channel_frames_);
  layers["trace.ring_dropped"] = static_cast<double>(dropped_);
}

SliceRun run_slices(sim::Simulator& sim, sim::Cycles from,
                    sim::Cycles deadline, sim::Cycles slice, SpanLog* spans,
                    TraceHarvest* harvest,
                    const std::function<void(sim::Cycles)>& between) {
  SliceRun out;
  sim::Cycles t = from;
  while (t < deadline && !sim.queue().empty()) {
    t = deadline - t <= slice ? deadline : t + slice;
    {
      ScopedSpan s(spans, SpanKind::SimRun, 0);
      out.events += sim.run(t);
    }
    if (harvest != nullptr) harvest->drain();
    out.pending_max = std::max(out.pending_max, sim.queue().pending());
    if (between) between(t);
  }
  return out;
}

CacheCount dcache_totals(sim::Simulator& sim) {
  CacheCount c;
  for (const auto& n : sim.nodes()) {
    c.hits += n->dcache().hits();
    c.misses += n->dcache().misses();
  }
  return c;
}

void put_dcache(Layers& layers, const CacheCount& before,
                const CacheCount& after) {
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  layers["sim.dcache_accesses"] = static_cast<double>(hits + misses);
  layers["sim.dcache_miss_ratio"] =
      hits + misses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(hits + misses)
                        : 0;
}

void AshTotals::add(const core::AshStats& st) {
  invocations += st.invocations;
  commits += st.commits;
  aborts += st.voluntary_aborts + st.involuntary_aborts;
  deferrals += st.tenant_deferrals;
  cycles += st.cycles;
  insns += st.insns;
}

void AshTotals::put(Layers& layers) const {
  const double inv = static_cast<double>(invocations);
  layers["core.ash_invocations"] = inv;
  layers["core.commit_ratio"] =
      invocations > 0 ? static_cast<double>(commits) / inv : 0;
  layers["core.aborts"] = static_cast<double>(aborts);
  layers["core.tenant_deferrals"] = static_cast<double>(deferrals);
  layers["core.handler_cycles_per_msg"] =
      invocations > 0 ? static_cast<double>(cycles) / inv : 0;
  layers["vcode.insns_per_msg"] =
      invocations > 0 ? static_cast<double>(insns) / inv : 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

/// Host-clock layer names (and Tracer-derived ones), which the simulated
/// signature leaves out.
bool is_host_metric(const std::string& name) {
  return name.find("host") != std::string::npos ||
         name.rfind("trace.", 0) == 0;
}

}  // namespace

Layers sim_signature(const Result& r) {
  Layers sig;
  sig["attempted"] = static_cast<double>(r.attempted);
  sig["failed"] = static_cast<double>(r.failed);
  sig["completed"] = static_cast<double>(r.completed);
  sig["p50_us"] = percentile(r.latency_us, 50);
  sig["p99_us"] = percentile(r.latency_us, 99);
  sig["samples"] = static_cast<double>(r.latency_us.size());
  sig["window_s"] = r.sim_window_s;
  sig["payload_bytes"] = r.payload_bytes;
  sig["gen_lag_us"] = r.gen_lag_us;
  for (const auto& [k, v] : r.layers) {
    if (!is_host_metric(k)) sig[k] = v;
  }
  return sig;
}

}  // namespace ash::perfbench

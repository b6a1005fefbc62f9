// Shared pieces of the seeded benchmark: run options, the per-run result,
// host timing, the span log of the traced run, and the Tracer harvest.
//
// Every workload builds its world, offers a fixed, seed-derived input, runs
// the simulator in fixed simulated-time slices and checks its outputs. All
// numbers come from outside the library: host clocks around calls into
// public functions, and public counters read between slices.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace ash::sim {
class Simulator;
}  // namespace ash::sim
namespace ash::core {
struct AshStats;
}  // namespace ash::core

namespace ash::perfbench {

using Layers = std::map<std::string, double>;

/// Host wall clock, seconds since an arbitrary epoch.
double host_now_s();

/// What one span covers. Each is a call from the benchmark's own code into
/// a layer's public function.
enum class SpanKind : std::uint8_t {
  SimRun,     // one Simulator::run slice
  Send,       // client An2Device::send
  Download,   // AshSystem::download
  DownloadRules,  // AshSystem::download_rules
  Compile,    // ashc::compile, called standalone
  Verify,     // vcode::verify, called standalone
  Sandbox,    // sandbox::sandbox, called standalone
  TcpConnect,  // TcpEngine::connect / TcpConnection::connect
  TcpRead,    // TcpEngine::read / TcpConnection::read_into (to resumption)
  TcpWrite,   // TcpEngine::write / TcpConnection::write_from (to resumption)
};
inline constexpr std::size_t kSpanKindCount = 10;
const char* to_string(SpanKind k) noexcept;

/// In-memory span log of the traced run. Spans of one op share `op`
/// (0 = not tied to an op). Written out once, at exit.
class SpanLog {
 public:
  struct Span {
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    SpanKind kind = SpanKind::SimRun;
  };

  explicit SpanLog(std::size_t capacity);
  void record(SpanKind kind, std::uint64_t op, std::int64_t start_ns,
              std::int64_t end_ns);
  /// Summed duration of every span of `kind` ever recorded, in seconds
  /// (kept exact even for spans the bounded log could not retain).
  double total_s(SpanKind kind) const noexcept;
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// TSV: kind, op, start_ns, end_ns (relative to the first span).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::int64_t totals_ns_[kSpanKindCount] = {};
};

std::int64_t span_clock_ns();

/// Times one call when a log is present; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, std::uint64_t op)
      : log_(log), kind_(kind), op_(op),
        start_(log != nullptr ? span_clock_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->record(kind_, op_, start_, span_clock_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanKind kind_;
  std::uint64_t op_;
  std::int64_t start_;
};

/// Accumulates the trace::Tracer's exact aggregates across slices. The
/// traced run drains the Tracer after every Simulator::run slice, so its
/// bounded drop-newest rings never overflow.
class TraceHarvest {
 public:
  /// Enable the global Tracer for a world with `cpus` CPU ids.
  explicit TraceHarvest(std::uint16_t cpus);
  ~TraceHarvest();
  TraceHarvest(const TraceHarvest&) = delete;
  TraceHarvest& operator=(const TraceHarvest&) = delete;

  /// Fold the Tracer's current aggregates and ring into the totals, then
  /// clear it for the next slice.
  void drain();
  /// dilp.* and trace.* layer metrics (trace.ring_dropped: ring events lost).
  void put(Layers& layers);

 private:
  std::uint64_t ash_dispatches_ = 0;
  std::uint64_t dilp_runs_ = 0;
  std::uint64_t dilp_bytes_ = 0;
  std::uint64_t rx_batches_ = 0;
  std::uint64_t channel_frames_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Runs `sim` in fixed slices from `from` to `deadline`, or until no event
/// is left: one SimRun span per slice; between slices the Tracer (if any)
/// is drained, the event-queue depth sampled and `between(t)` called.
struct SliceRun {
  std::uint64_t events = 0;     // events executed
  std::size_t pending_max = 0;  // event-queue depth, sampled between slices
};
SliceRun run_slices(sim::Simulator& sim, sim::Cycles from,
                    sim::Cycles deadline, sim::Cycles slice, SpanLog* spans,
                    TraceHarvest* harvest,
                    const std::function<void(sim::Cycles)>& between = {});

/// D-cache accesses summed over every node of `sim`.
struct CacheCount {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
CacheCount dcache_totals(sim::Simulator& sim);
/// sim.dcache_accesses and sim.dcache_miss_ratio over [before, after].
void put_dcache(Layers& layers, const CacheCount& before,
                const CacheCount& after);

/// AshStats summed over a workload's handlers.
struct AshTotals {
  std::uint64_t invocations = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  void add(const core::AshStats& st);
  /// core.* and vcode.insns_per_msg.
  void put(Layers& layers) const;
};

/// Inputs of one workload run.
struct Options {
  std::uint64_t seed = 1;
  /// Traced run: spans go here and the global Tracer is enabled.
  SpanLog* spans = nullptr;
  /// Length of one Simulator::run slice; 0 = the workload's default,
  /// ~0 = one uninterrupted run (the observer test).
  sim::Cycles slice = 0;
  /// Workload-specific scale override for tests (0 = default).
  std::uint64_t ops = 0;
  /// rpc_small only: offered rate in kops/s (0 = the headline rate).
  double rate_kops = 0;
  /// tcp_ash_bulk only: the Table VI configuration (8 KB writes from offset
  /// 0, one whole-stream read) instead of the workload's own.
  bool table6 = false;
};

/// The outcome of one workload run.
struct Result {
  bool correct = true;
  std::string error;  // first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;

  // Host clock.
  double setup_host_s = 0;  // world build .. first op offered
  double run_host_s = 0;    // first op offered .. run complete

  // Simulated clock (deterministic per seed).
  std::vector<double> latency_us;  // per completed reply-bearing op
  double sim_window_s = 0;         // simulated measurement window
  double payload_bytes = 0;        // application payload delivered
  double gen_lag_us = 0;           // open-loop generator lateness (mean)
  bool backlog_growing = false;    // rpc_small: RX depth grew over the run

  /// Per-layer numbers. Names with a "host" part are host-clock; the rest
  /// are simulated counts and ratios that repeat exactly per seed.
  Layers layers;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// p-th percentile (0..100) by nearest rank of an unsorted sample.
double percentile(std::vector<double> v, double p);

/// The simulated metrics that must repeat exactly for one seed.
Layers sim_signature(const Result& r);

Result run_rpc_small(const Options& opt);
Result run_tcp_ash_bulk(const Options& opt);
Result run_http_c10k_loss(const Options& opt);

/// rpc_small's staircase: the served rate at the highest fixed offered
/// rate whose p99 meets kSloP99Us with no failures and no growing backlog,
/// interpolated up to where p99 crosses the limit before the next step.
struct Staircase {
  std::vector<double> offered_kops;
  std::vector<double> served_kops;
  std::vector<double> p99_us;
  std::vector<bool> ok;
  double kops_at_slo = 0;
};
Staircase rpc_small_staircase(std::uint64_t seed);

/// rpc_small's headline rate (about 80% of the ~1000 kops/s this
/// configuration saturates at) and the staircase's p99 latency limit.
inline constexpr double kRpcHeadlineKops = 800.0;
inline constexpr double kSloP99Us = 250.0;

}  // namespace ash::perfbench

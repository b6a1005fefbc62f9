// perfbench — one seeded benchmark, both clocks.
//
//   perfbench --workload rpc_small|tcp_ash_bulk|http_c10k_loss
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// Untraced (--trace 0): runs the workload's fixed, seed-derived input again
// and again until S host seconds have passed (at least three times), checks
// every run's outputs and that every run's simulated metrics are identical,
// and prints the end-to-end metrics: host ops/s and set-up seconds as the
// median over the runs, peak RSS, and the simulated metrics of the seed.
//
// Traced (--trace 1): alternates untraced and traced runs for S seconds and
// prints the per-layer metrics. A traced run records spans around the
// benchmark's calls into each layer and enables trace::Tracer for its
// aggregates; it must give the same simulated metrics as the untraced run.
// Spans of the last traced run go to FILE.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is nonzero when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "ashlib/handlers.hpp"
#include "common.hpp"
#include "core/ash.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics of the traced run. A layer a workload does not
// exercise reads 0.
constexpr MetricSpec kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.run_host_s", "s"},
    {"sim.queue_pending_max", "count"},
    {"sim.dcache_accesses", "count"},
    {"sim.dcache_miss_ratio", "ratio"},
    {"sim.server_busy_frac", "ratio"},
    {"sim.kernel_cycles_per_op", "cycles"},
    {"net.rx_enqueued", "count"},
    {"net.rx_dropped", "count"},
    {"net.frames_per_batch", "frames"},
    {"net.rx_depth_max", "count"},
    {"net.fault_drops", "count"},
    {"net.send_host_s", "s"},
    {"core.ash_invocations", "count"},
    {"core.commit_ratio", "ratio"},
    {"core.aborts", "count"},
    {"core.tenant_deferrals", "count"},
    {"core.handler_cycles_per_msg", "cycles"},
    {"core.download_host_s", "s"},
    {"ashc.compile_host_s", "s"},
    {"vcode.verify_host_s", "s"},
    {"sandbox.added_insns", "insns"},
    {"vcode.insns_per_msg", "insns"},
    {"dilp.runs", "count"},
    {"dilp.bytes", "bytes"},
    {"proto.segments_per_op", "count"},
    {"proto.retransmits", "count"},
    {"proto.rto_timeouts", "count"},
    {"proto.ooo_reassembled", "bytes"},
    {"proto.syn_backlog_drops", "count"},
    {"proto.fastpath_share", "ratio"},
    {"proto.server_peak_conns", "count"},
    {"proto.connect_host_s", "s"},
    {"proto.read_host_s", "s"},
    {"proto.write_host_s", "s"},
    {"bench.gen_lag_us", "us"},
    {"bench.failed_frac", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.dropped", "count"},
    {"trace.ash_dispatches", "count"},
    {"trace.rx_batches", "count"},
    {"trace.channel_frames", "count"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The VCODE engine the library default selects: download one handler with
/// default options and ask which backend it was resolved to.
std::string default_engine() {
  sim::Simulator sim;
  sim::Node& node = sim.add_node("probe");
  core::AshSystem ash_sys(node);
  std::string engine = "unknown";
  node.kernel().spawn("probe", [&](sim::Process& self) -> sim::Task {
    std::string error;
    const int id =
        ash_sys.download(self, ashlib::make_remote_increment(), {}, &error);
    if (id >= 0) engine = vcode::to_string(ash_sys.backend(id));
    co_return;
  });
  sim.run();
  return engine;
}

using RunFn = std::function<Result(const Options&)>;

RunFn workload_fn(const std::string& name) {
  if (name == "rpc_small") return run_rpc_small;
  if (name == "tcp_ash_bulk") return run_tcp_ash_bulk;
  if (name == "http_c10k_loss") return run_http_c10k_loss;
  return nullptr;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, v] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", spec.name, v, spec.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// First key whose simulated value differs between two runs, or "".
std::string signature_diff(const Layers& a, const Layers& b) {
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it != b.end() && it->second != v) return k;
  }
  return "";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload rpc_small|tcp_ash_bulk|"
               "http_c10k_loss [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace ash::perfbench

int main(int argc, char** argv) {
  using namespace ash::perfbench;
  std::string workload, trace_out;
  std::uint64_t seed = 7;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  const RunFn run = workload_fn(workload);
  if (!run || (trace != 0 && trace != 1) || !(seconds > 0)) return usage();

  // Knob hygiene: the benchmark measures the library defaults only.
  for (const char* knob : {"ASH_BACKEND", "ASH_USE_CODE_CACHE"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures the library default engine\n",
                   knob);
      return 2;
    }
  }
  const std::string engine = default_engine();
  std::printf("perfbench: workload %s, seed %llu, default VCODE engine %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              engine.c_str());

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  const auto check = [&](const Result& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.correct) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", r.error.c_str());
      correct = false;
    }
  };

  Options opt;
  opt.seed = seed;
  const double t0 = host_now_s();
  const Result first = run(opt);
  check(first);
  const auto sig = sim_signature(first);
  std::vector<double> rates, setups;
  const auto rate_of = [](const Result& r) {
    return static_cast<double>(r.completed) / r.run_host_s;
  };
  rates.push_back(rate_of(first));
  setups.push_back(first.setup_host_s);

  if (trace == 0) {
    while (correct && (rates.size() < 3 || host_now_s() - t0 < seconds)) {
      const Result r = run(opt);
      check(r);
      const std::string d = signature_diff(sig, sim_signature(r));
      if (!d.empty()) {
        std::fprintf(stderr, "perfbench: simulated metric %s differs between "
                     "two runs of one seed\n", d.c_str());
        correct = false;
      }
      rates.push_back(rate_of(r));
      setups.push_back(r.setup_host_s);
    }
    double kops_at_slo = static_cast<double>(first.completed) /
                         first.sim_window_s / 1e3;
    if (workload == "rpc_small") {
      const Staircase sc = rpc_small_staircase(seed);
      for (std::size_t i = 0; i < sc.offered_kops.size(); ++i) {
        std::printf("perfbench: staircase offered %.1f kops/s served %.1f "
                    "p99 %.1f us %s\n",
                    sc.offered_kops[i], sc.served_kops[i], sc.p99_us[i],
                    sc.ok[i] ? "ok" : "over");
      }
      if (sc.kops_at_slo < 0) {
        std::fprintf(stderr, "perfbench: staircase check failed\n");
        correct = false;
      }
      kops_at_slo = sc.kops_at_slo;
    }
    std::printf("perfbench: %zu runs, host ops/s min %.0f median %.0f max "
                "%.0f\n",
                rates.size(), *std::min_element(rates.begin(), rates.end()),
                median(rates), *std::max_element(rates.begin(), rates.end()));
    std::printf("perfbench: host ops/s per run:");
    for (double r : rates) std::printf(" %.0f", r);
    std::printf("\n");
    print_result(
        correct, attempted, failed,
        {{{"host_ops_per_s", "ops/s"}, median(rates)},
         {{"setup_s", "s"}, median(setups)},
         {{"peak_rss_mb", "MB"}, peak_rss_mb()},
         {{"sim_p50_us", "us"}, percentile(first.latency_us, 50)},
         {{"sim_p99_us", "us"}, percentile(first.latency_us, 99)},
         {{"sim_goodput_mbps", "MB/s"},
          first.payload_bytes / first.sim_window_s / 1e6},
         {{"sim_kops_at_slo", "kops/s"}, kops_at_slo}});
    return correct ? 0 : 1;
  }

  // ---- traced: alternate untraced and traced runs ----
  std::vector<double> traced_rates;
  std::map<std::string, std::vector<double>> host_layers;
  Layers layers;
  double dropped = 0;  // bench spans plus Tracer ring events, all traced runs
  std::unique_ptr<SpanLog> last_spans;
  while (correct &&
         (traced_rates.size() < 2 || host_now_s() - t0 < seconds)) {
    auto spans = std::make_unique<SpanLog>(std::size_t{1} << 20);
    Options topt = opt;
    topt.spans = spans.get();
    const Result tr = run(topt);
    check(tr);
    if (!tr.correct) break;
    const std::string d = signature_diff(sig, sim_signature(tr));
    if (!d.empty()) {
      std::fprintf(stderr, "perfbench: tracing changed simulated metric %s\n",
                   d.c_str());
      correct = false;
    }
    traced_rates.push_back(rate_of(tr));
    layers = tr.layers;
    const double run_s = spans->total_s(SpanKind::SimRun);
    const double events = tr.layers.at("sim.events");
    host_layers["sim.run_host_s"].push_back(run_s);
    host_layers["sim.host_ns_per_event"].push_back(
        events > 0 ? run_s * 1e9 / events : 0);
    host_layers["net.send_host_s"].push_back(spans->total_s(SpanKind::Send));
    host_layers["core.download_host_s"].push_back(
        spans->total_s(SpanKind::Download) +
        spans->total_s(SpanKind::DownloadRules));
    host_layers["ashc.compile_host_s"].push_back(
        spans->total_s(SpanKind::Compile));
    host_layers["vcode.verify_host_s"].push_back(
        spans->total_s(SpanKind::Verify));
    host_layers["proto.connect_host_s"].push_back(
        spans->total_s(SpanKind::TcpConnect));
    host_layers["proto.read_host_s"].push_back(
        spans->total_s(SpanKind::TcpRead));
    host_layers["proto.write_host_s"].push_back(
        spans->total_s(SpanKind::TcpWrite));
    dropped += tr.layers.at("trace.ring_dropped") +
               static_cast<double>(spans->dropped());
    last_spans = std::move(spans);

    const Result r = run(opt);
    check(r);
    rates.push_back(rate_of(r));
  }
  for (const auto& [k, v] : host_layers) layers[k] = median(v);
  layers["trace.overhead"] = median(traced_rates) / median(rates);
  layers["trace.dropped"] = dropped;
  layers["bench.gen_lag_us"] = first.gen_lag_us;
  layers["bench.failed_frac"] =
      first.attempted > 0 ? static_cast<double>(first.failed) /
                                static_cast<double>(first.attempted)
                          : 0;
  if (!trace_out.empty() && last_spans && !last_spans->write(trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
  }
  std::vector<std::pair<MetricSpec, double>> out;
  for (const MetricSpec& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    out.push_back({m, it != layers.end() ? it->second : 0.0});
  }
  std::printf("perfbench: %zu traced and %zu untraced runs\n",
              traced_rates.size(), rates.size());
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

// The benchmark's own tests: determinism, observer purity, seed
// sensitivity, the held-out seed, and cross-checks against numbers already
// in the tree (BENCH_http_c10k.json, Table VI).
//
// Build and run:
//   cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build/perfbench -j4
//   .bench_build/perfbench/perfbench_test
//
// Scaled-down inputs (Options::ops) keep the determinism tests quick; the
// cross-checks run the full configurations.
#include <cmath>
#include <cstdio>
#include <string>

#include "common.hpp"

namespace ash::perfbench {
namespace {

/// Seed held out of all tuning; later performance claims must also hold on
/// it (see README.md).
constexpr std::uint64_t kHeldOutSeed = 1009;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

using Sig = std::map<std::string, double>;

/// Keys present in both signatures whose values differ. `skip_sampled`
/// drops the metrics sampled between Simulator::run slices, which by
/// design depend on where the slices fall.
std::string diff(const Sig& a, const Sig& b, bool skip_sampled = false) {
  std::string out;
  for (const auto& [k, v] : a) {
    if (skip_sampled &&
        (k == "sim.queue_pending_max" || k == "net.rx_depth_max")) {
      continue;
    }
    const auto it = b.find(k);
    if (it != b.end() && it->second != v) out += k + " ";
  }
  return out;
}

struct Case {
  const char* name;
  Result (*fn)(const Options&);
  std::uint64_t small_ops;
};

const Case kCases[] = {
    {"rpc_small", run_rpc_small, 20000},
    {"tcp_ash_bulk", run_tcp_ash_bulk, 128},
    {"http_c10k_loss", run_http_c10k_loss, 1024},
};

void determinism_and_observers(const Case& c) {
  Options o;
  o.seed = 3;
  o.ops = c.small_ops;
  const Result a = c.fn(o);
  expect(a.correct && a.failed == 0,
         std::string(c.name) + ": checks pass, no failed ops (" + a.error +
             ")");
  const Sig sa = sim_signature(a);

  const Result b = c.fn(o);
  const std::string d_same = diff(sa, sim_signature(b));
  expect(d_same.empty(),
         std::string(c.name) + ": same seed, identical simulated metrics " +
             d_same);

  Options whole = o;
  whole.slice = ~sim::Cycles{0};
  const std::string d_slice = diff(sa, sim_signature(c.fn(whole)), true);
  expect(d_slice.empty(), std::string(c.name) +
                              ": sliced run equals one uninterrupted run " +
                              d_slice);

  SpanLog spans(1u << 20);
  Options traced = o;
  traced.spans = &spans;
  const Result t = c.fn(traced);
  const std::string d_trace = diff(sa, sim_signature(t));
  expect(d_trace.empty() && t.correct,
         std::string(c.name) + ": traced run equals untraced run " + d_trace);
  expect(spans.dropped() == 0 && t.layers.count("trace.ring_dropped") == 1 &&
             t.layers.at("trace.ring_dropped") == 0,
         std::string(c.name) + ": traced run dropped nothing");

  Options other = o;
  other.seed = 4;
  const std::string d_seed = diff(sa, sim_signature(c.fn(other)));
  expect(!d_seed.empty(),
         std::string(c.name) + ": another seed changes the simulated metrics");

  Options held = o;
  held.seed = kHeldOutSeed;
  const Result h = c.fn(held);
  expect(h.correct && h.failed == 0,
         std::string(c.name) + ": held-out seed passes its checks");
}

bool near(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::fabs(want);
}

void cross_check_http() {
  // BENCH_http_c10k.json, regime loss_1pct: p50 20773.3 us, p99 295679.1
  // us, 5.199 MB/s, 2027 retransmits (bench_http_c10k, fault seed 7).
  Options o;
  o.seed = 7;
  const Result r = run_http_c10k_loss(o);
  const double p50 = percentile(r.latency_us, 50);
  const double p99 = percentile(r.latency_us, 99);
  const double mbps = r.payload_bytes / r.sim_window_s / 1e6;
  const double retx = r.layers.at("proto.retransmits");
  std::printf("http_c10k_loss seed 7: p50 %.1f us, p99 %.1f us, %.3f MB/s, "
              "%.0f retransmits, %llu/%llu ok\n",
              p50, p99, mbps, retx,
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.attempted));
  expect(r.correct && r.failed == 0, "http_c10k_loss seed 7: all ops pass");
  expect(near(p50, 20773.3, 0.001) && near(p99, 295679.1, 0.001) &&
             near(mbps, 5.199, 0.001) && retx == 2027,
         "http_c10k_loss seed 7 reproduces BENCH_http_c10k.json loss_1pct");
}

void cross_check_table6() {
  // Table VI, "Sandboxed ASH" bulk throughput as this repository measures
  // it (bench_table6_tcp_ash, 2 MB of 8 KB writes): 5.83 MB/s.
  Options o;
  o.table6 = true;
  o.ops = (2u << 20) / 8192;
  const Result r = run_tcp_ash_bulk(o);
  const double mbps = r.payload_bytes / r.sim_window_s / 1e6;
  std::printf("tcp_ash_bulk table6: %.3f MB/s\n", mbps);
  expect(r.correct && r.failed == 0, "tcp_ash_bulk table6: all ops pass");
  expect(near(mbps, 5.83, 0.01),
         "tcp_ash_bulk table6 reproduces Table VI's 5.83 MB/s");
}

}  // namespace
}  // namespace ash::perfbench

int main() {
  using namespace ash::perfbench;
  for (const Case& c : kCases) determinism_and_observers(c);
  cross_check_http();
  cross_check_table6();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

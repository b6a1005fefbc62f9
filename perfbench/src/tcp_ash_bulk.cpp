// tcp_ash_bulk — one TCP flow streaming application writes through the
// sandboxed ASH fast path (Table VI's "Sandboxed ASH" row).
//
// Two nodes over the paper's AN2 link. Each side runs a TcpConnection (MSS
// 3072, checksums on) whose common-case receive path is ashlib's sandboxed
// TCP fast-path ASH; DILP fuses checksum and copy into the staging buffer.
// The source keeps a 256 KB seeded pattern in memory and, closed-loop,
// writes seeded-size chunks (4-12 KB in 4-byte steps, 8 KB on average) from
// seeded offsets in it. The sink reads each op into its application buffer.
// An op completes when its last byte reaches the sink application; its
// latency runs from the write call (its due time, in a closed loop) to that
// moment. Every byte read is compared with the expected stream.
//
// Options::table6 reproduces bench_table6_tcp_ash's bulk configuration
// instead: 8 KB writes from offset 0 with pattern seed 11, and a sink that
// reads the whole remaining stream at once.
#include <algorithm>
#include <cstring>
#include <memory>

#include "ashlib/tcp_fastpath.hpp"
#include "common.hpp"
#include "core/ash.hpp"
#include "core/upcall.hpp"
#include "net/an2.hpp"
#include "proto/an2_link.hpp"
#include "proto/tcb_shm.hpp"
#include "proto/tcp.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vcode/verifier.hpp"

namespace ash::perfbench {
namespace {

using proto::An2Link;
using proto::Ipv4Addr;
using proto::TcpConfig;
using proto::TcpConnection;
using sim::Cycles;
using sim::Process;
using sim::Task;
using sim::us;

constexpr std::uint64_t kDefaultOps = 1024;
constexpr std::uint32_t kChunk = 8192;      // Table VI's write size
constexpr std::uint32_t kMinWrite = 4096;
constexpr std::uint32_t kMaxWrite = 12288;
constexpr std::uint32_t kMss = 3072;
constexpr std::uint32_t kPatternBytes = 256u << 10;
constexpr Cycles kSlice = us(10000.0);
const Cycles kStreamStart = us(20000.0);  // handshake is long done by then
const Ipv4Addr kIpA = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::of(10, 0, 0, 2);

TcpConfig tcp_cfg(bool client) {
  TcpConfig c;
  c.local_ip = client ? kIpA : kIpB;
  c.remote_ip = client ? kIpB : kIpA;
  c.local_port = client ? 4000 : 5000;
  c.remote_port = client ? 5000 : 4000;
  c.iss = client ? 100 : 900;
  c.mss = kMss;
  c.checksum = true;
  return c;
}

struct Side {
  std::unique_ptr<An2Link> link;
  std::unique_ptr<TcpConnection> conn;
  ashlib::TcpFastPath fp;
};

}  // namespace

Result run_tcp_ash_bulk(const Options& opt) {
  Result res;
  const double t_setup0 = host_now_s();
  SpanLog* spans = opt.spans;
  const std::uint64_t n_ops = opt.ops > 0 ? opt.ops : kDefaultOps;
  const Cycles slice = opt.slice > 0 ? opt.slice : kSlice;

  // ---- inputs: pattern, per-op sizes and source offsets ----
  util::Rng rng(opt.table6 ? 11 : opt.seed * 0x9e3779b97f4a7c15ull + 0x7c9);
  std::vector<std::uint8_t> pattern(kPatternBytes);
  if (opt.table6) {
    // bench_util's fill_pattern(node, app, chunk, 11): the first chunk.
    for (std::uint32_t i = 0; i < kChunk; ++i) {
      pattern[i] = static_cast<std::uint8_t>(rng.next());
    }
  } else {
    for (std::uint8_t& b : pattern) b = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<std::uint32_t> offset(n_ops, 0), size(n_ops, kChunk);
  // end[k]: stream position one past op k's last byte.
  std::vector<std::uint64_t> end(n_ops, 0);
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < n_ops; ++k) {
    if (!opt.table6) {
      size[k] = 4 * static_cast<std::uint32_t>(
                        rng.range(kMinWrite / 4, kMaxWrite / 4));
      offset[k] =
          static_cast<std::uint32_t>(rng.below(kPatternBytes - size[k]));
    }
    total += size[k];
    end[k] = total;
  }

  // ---- world: the paper's AN2 testbed ----
  sim::Simulator sim;
  sim::Node& a = sim.add_node("a");
  sim::Node& b = sim.add_node("b");
  net::An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash_a(a), ash_b(b);

  std::string setup_error;
  const auto make_side = [&](Process& self, net::An2Device& dev,
                             core::AshSystem& ash_sys, bool client) {
    Side s;
    An2Link::Config cfg;
    cfg.rx_buffers = 32;
    cfg.mode = proto::RecvMode::Polling;
    s.link = std::make_unique<An2Link>(self, dev, cfg);
    s.conn = std::make_unique<TcpConnection>(*s.link, tcp_cfg(client));
    std::string error;
    std::optional<ashlib::TcpFastPath> fp;
    {
      ScopedSpan span(spans, SpanKind::Download, 0);
      fp = ashlib::install_tcp_fastpath(ash_sys, dev, s.link->vc(), *s.conn,
                                        {}, &error);
    }
    if (!fp.has_value()) {
      setup_error = "tcp_ash_bulk: fast-path install failed: " + error;
    } else {
      s.fp = *fp;
      if (spans != nullptr) {
        // The verifier on the program the install downloaded, standalone.
        const vcode::Program prog =
            ashlib::make_tcp_fastpath_program(fp->ilp_id);
        ScopedSpan span(spans, SpanKind::Verify, 0);
        (void)vcode::verify(prog, vcode::VerifyPolicy{});
      }
    }
    return s;
  };

  Side sink_side, source_side;
  std::vector<Cycles> issued(n_ops, 0), delivered(n_ops, 0);
  std::uint64_t got_total = 0, ops_done = 0;
  bool source_ready = false;
  std::uint64_t wrong_bytes = 0;

  b.kernel().spawn("sink", [&](Process& self) -> Task {
    sink_side = make_side(self, dev_b, ash_b, false);
    TcpConnection& conn = *sink_side.conn;
    bool ok = false;
    {
      ScopedSpan span(spans, SpanKind::TcpConnect, 0);
      ok = co_await conn.accept();
    }
    if (!ok) co_return;
    const std::uint32_t app = self.segment().base;
    std::uint64_t k = 0;  // op holding stream position got_total
    while (got_total < total) {
      const std::uint64_t op_start = end[k] - size[k];
      const std::uint32_t want =
          opt.table6 ? static_cast<std::uint32_t>(total - got_total)
                     : static_cast<std::uint32_t>(end[k] - got_total);
      const std::uint32_t dst =
          opt.table6 ? app
                     : app + static_cast<std::uint32_t>(got_total - op_start);
      std::uint32_t n = 0;
      {
        ScopedSpan span(spans, SpanKind::TcpRead, k + 1);
        n = co_await conn.read_into(dst, want);
      }
      if (n == 0) break;
      // Check the bytes against the expected stream, op by op.
      const std::uint8_t* p = self.node().mem(dst, n);
      for (std::uint32_t i = 0; i < n;) {
        const std::uint64_t in_op = got_total + i - (end[k] - size[k]);
        const std::uint32_t run = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(n - i, end[k] - (got_total + i)));
        if (p == nullptr || std::memcmp(p + i, pattern.data() + offset[k] +
                                                   in_op,
                                        run) != 0) {
          wrong_bytes += run;
        }
        i += run;
        if (got_total + i == end[k]) {
          delivered[k] = self.node().now();
          ++ops_done;
          if (k + 1 < n_ops) ++k;
        }
      }
      got_total += n;
    }
  });

  a.kernel().spawn("source", [&](Process& self) -> Task {
    source_side = make_side(self, dev_a, ash_a, true);
    TcpConnection& conn = *source_side.conn;
    co_await self.sleep_for(us(500.0));
    bool ok = false;
    {
      ScopedSpan span(spans, SpanKind::TcpConnect, 0);
      ok = co_await conn.connect();
    }
    if (!ok) co_return;
    const std::uint32_t app = self.segment().base;
    std::uint8_t* mem = self.node().mem(app, kPatternBytes);
    std::memcpy(mem, pattern.data(), kPatternBytes);
    source_ready = true;
    co_await self.sleep_for(kStreamStart - self.node().now());
    for (std::uint64_t k = 0; k < n_ops; ++k) {
      issued[k] = self.node().now();
      bool sent = false;
      {
        ScopedSpan span(spans, SpanKind::TcpWrite, k + 1);
        sent = co_await conn.write_from(app + offset[k], size[k]);
      }
      if (!sent) co_return;
    }
  });

  // ---- setup: downloads, handshake, pattern fill ----
  std::unique_ptr<TraceHarvest> harvest;
  if (spans != nullptr) {
    harvest = std::make_unique<TraceHarvest>(sim.cpu_count());
  }
  sim.run(kStreamStart - 1);
  if (!setup_error.empty() || !source_ready) {
    res.fail(setup_error.empty() ? "tcp_ash_bulk: handshake failed"
                                 : setup_error);
    return res;
  }
  res.setup_host_s = host_now_s() - t_setup0;

  // ---- measured phase ----
  const double t_run0 = host_now_s();
  const std::uint64_t k0 = b.kernel_cycles_total();
  const CacheCount c0 = dcache_totals(sim);
  const SliceRun sr =
      run_slices(sim, kStreamStart - 1,
                 kStreamStart + static_cast<Cycles>(n_ops) * us(8000.0),
                 slice, spans, harvest.get());
  res.run_host_s = host_now_s() - t_run0;
  const std::uint64_t dk = b.kernel_cycles_total() - k0;
  const CacheCount c1 = dcache_totals(sim);

  // ---- accounting and checks ----
  res.attempted = n_ops;
  res.completed = ops_done;
  res.failed = n_ops - ops_done;
  if (wrong_bytes != 0) {
    res.fail("tcp_ash_bulk: " + std::to_string(wrong_bytes) +
             " received bytes differ from the seeded pattern");
  }
  if (got_total != total && res.failed == 0) {
    res.fail("tcp_ash_bulk: byte count differs from the stream length");
  }
  for (std::uint64_t k = 0; k < ops_done; ++k) {
    res.latency_us.push_back(sim::to_us(delivered[k] - issued[k]));
  }
  const Cycles t_first = issued[0];
  const Cycles t_last = ops_done > 0 ? delivered[ops_done - 1] : t_first;
  res.sim_window_s = sim::to_us(t_last - t_first) / 1e6;
  res.payload_bytes =
      ops_done > 0 ? static_cast<double>(end[ops_done - 1]) : 0;

  AshTotals ash;
  double added = 0;
  for (const auto* side : {&source_side, &sink_side}) {
    core::AshSystem& sys = side == &source_side ? ash_a : ash_b;
    if (side->fp.ash_id < 0) continue;
    ash.add(sys.stats(side->fp.ash_id));
    added += side->fp.report.added();
  }
  std::uint64_t seg_in = 0, fast = 0, retx = 0, rto = 0, ooo = 0,
                ash_commits = 0;
  for (const auto* side : {&source_side, &sink_side}) {
    if (!side->conn) continue;
    const TcpConnection::Stats& st = side->conn->stats();
    seg_in += st.segments_in;
    fast += st.fastpath_hits;
    retx += st.retransmits;
    rto += st.rto_timeouts;
    ooo += st.ooo_reassembled;
    ash_commits += side->conn->shm().get(proto::tcb::kAshCommits);
  }

  auto& L = res.layers;
  const double done_d =
      static_cast<double>(std::max<std::uint64_t>(ops_done, 1));
  const double window_cycles = static_cast<double>(t_last - t_first);
  L["sim.events"] = static_cast<double>(sr.events);
  L["sim.queue_pending_max"] = static_cast<double>(sr.pending_max);
  put_dcache(L, c0, c1);
  L["sim.server_busy_frac"] =
      window_cycles > 0 ? static_cast<double>(dk) / window_cycles : 0;
  L["sim.kernel_cycles_per_op"] = static_cast<double>(dk) / done_d;
  L["net.rx_dropped"] = static_cast<double>(
      (source_side.link ? dev_a.drops(source_side.link->vc()) : 0) +
      (sink_side.link ? dev_b.drops(sink_side.link->vc()) : 0));
  L["net.fault_drops"] = static_cast<double>(
      dev_a.fault_counters().drops + dev_b.fault_counters().drops);
  ash.put(L);
  L["sandbox.added_insns"] = added;
  // The fast-path ASH consumes segments before the library counts them, so
  // its commits count as received fast-path segments.
  L["proto.segments_per_op"] =
      static_cast<double>(seg_in + ash_commits) / done_d;
  L["proto.retransmits"] = static_cast<double>(retx);
  L["proto.rto_timeouts"] = static_cast<double>(rto);
  L["proto.ooo_reassembled"] = static_cast<double>(ooo);
  L["proto.fastpath_share"] =
      seg_in + ash_commits > 0
          ? static_cast<double>(fast + ash_commits) /
                static_cast<double>(seg_in + ash_commits)
          : 0;
  if (harvest) harvest->put(L);
  return res;
}

}  // namespace ash::perfbench

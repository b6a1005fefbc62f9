// http_c10k_loss — 10 240 HTTP/1.0 flows between two TcpEngines over AN2,
// with 1% seeded loss each way and 4 KB responses.
//
// bench_http_c10k's loss_1pct regime, run from outside: the client engine
// opens every connection (at most 256 handshakes in flight), then sends one
// GET per connection closed-loop with at most 64 outstanding; the server
// answers each with the seeded 4 KB object and closes. An op is one
// connection's open, GET, complete 200 response and close; its latency runs
// from the GET (its due time in the closed loop) to the response's end of
// stream, as in bench_http_c10k. Both devices use the seed as their fault
// seed, so seed 7 is bench_http_c10k's configuration. No ASH or VCODE runs.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "net/an2.hpp"
#include "proto/an2_link.hpp"
#include "proto/http.hpp"
#include "proto/tcp_engine.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ash::perfbench {
namespace {

using proto::An2Link;
using proto::Ipv4Addr;
using proto::TcpEngine;
using sim::Cycles;
using sim::Process;
using sim::Task;
using sim::us;

const Ipv4Addr kServerIp = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kClientIp = Ipv4Addr::of(10, 0, 0, 2);

constexpr std::size_t kDefaultConns = 10240;
constexpr std::uint32_t kBodyBytes = 4096;
constexpr std::size_t kOpenWindow = 256;
constexpr std::size_t kReqWindow = 64;
constexpr std::uint16_t kBasePort = 1024;
constexpr Cycles kSlice = us(10000.0);

An2Link::Config link_cfg() {
  An2Link::Config cfg;
  cfg.rx_buffers = 288;
  cfg.buf_size = 1536;
  cfg.mode = proto::RecvMode::Interrupt;
  return cfg;
}

TcpEngine::Config engine_cfg(Ipv4Addr ip) {
  TcpEngine::Config cfg;
  cfg.local_ip = ip;
  cfg.mss = 1456;
  cfg.window = 8192;
  cfg.rcv_limit = 16384;
  cfg.reassemble = true;
  cfg.shards = 8;
  cfg.rx_batch = 256;
  cfg.min_rto = us(50000.0);
  return cfg;
}

}  // namespace

Result run_http_c10k_loss(const Options& opt) {
  Result res;
  const double t_setup0 = host_now_s();
  SpanLog* spans = opt.spans;
  const std::size_t conns = opt.ops > 0 ? opt.ops : kDefaultConns;
  const Cycles slice = opt.slice > 0 ? opt.slice : kSlice;

  // ---- inputs: the served object ----
  util::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x4771);
  std::vector<std::uint8_t> body(kBodyBytes);
  for (std::uint8_t& b : body) b = static_cast<std::uint8_t>(rng.next());
  const std::string wire = proto::http_format_response("/obj", body);

  // ---- world ----
  sim::Simulator sim;
  sim::Node& srv = sim.add_node("a");
  sim::Node& cli = sim.add_node("b");
  net::An2Device dev_s(srv), dev_c(cli);
  dev_s.connect(dev_c);
  net::FaultConfig faults;
  faults.drop_prob = 0.01;
  faults.reorder_delay = us(120.0);
  faults.seed = opt.seed;
  dev_s.set_faults(faults);
  dev_c.set_faults(faults);

  const Cycles budget = us(30e6);
  bool server_done = false;
  TcpEngine* server_eng = nullptr;
  TcpEngine* client_eng = nullptr;
  TcpEngine::Stats server_stats, client_stats;
  std::unique_ptr<An2Link> server_link, client_link;

  srv.kernel().spawn("httpd", [&](Process& self) -> Task {
    server_link = std::make_unique<An2Link>(self, dev_s, link_cfg());
    TcpEngine eng(*server_link, engine_cfg(kServerIp));
    server_eng = &eng;
    std::unordered_map<TcpEngine::ConnId, std::string> reqs;
    TcpEngine::ListenConfig lc;
    lc.backlog = 1024;
    lc.callbacks.on_readable = [&](TcpEngine::ConnId id) {
      std::string& acc = reqs[id];
      std::uint8_t buf[512];
      for (;;) {
        std::size_t n = 0;
        {
          ScopedSpan s(spans, SpanKind::TcpRead, 0);
          n = eng.read(id, buf, sizeof buf);
        }
        if (n == 0) break;
        acc.append(reinterpret_cast<const char*>(buf), n);
      }
      if (!proto::http_request_complete(acc)) return;
      {
        ScopedSpan s(spans, SpanKind::TcpWrite, 0);
        eng.write(id, {reinterpret_cast<const std::uint8_t*>(wire.data()),
                       wire.size()});
      }
      eng.close(id);
      reqs.erase(id);
    };
    lc.callbacks.on_closed = [&](TcpEngine::ConnId id) { reqs.erase(id); };
    eng.listen(80, lc);
    co_await eng.run(server_done, self.node().now() + budget);
    server_eng = nullptr;
  });

  enum Phase : std::uint8_t { Opening, Open, Requested, Done, Dead };
  std::vector<Phase> phase(conns, Opening);
  std::vector<Cycles> t_start(conns, 0);
  std::uint64_t responses_ok = 0, bad_bodies = 0, good_bytes = 0;
  Cycles t_req0 = 0, t_last_resp = 0;
  std::size_t server_peak = 0;
  double t_first_op = 0;  // host clock when the first connect is offered

  cli.kernel().spawn("clients", [&](Process& self) -> Task {
    client_link = std::make_unique<An2Link>(self, dev_c, link_cfg());
    TcpEngine eng(*client_link, engine_cfg(kClientIp));
    client_eng = &eng;
    std::vector<TcpEngine::ConnId> ids(conns, 0);
    std::vector<std::string> resp(conns);
    std::unordered_map<TcpEngine::ConnId, std::size_t> idx;
    std::size_t established = 0, failed = 0, outstanding = 0;
    t_first_op = host_now_s();  // both tables exist; set-up ends here

    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId id) {
      const std::size_t i = idx[id];
      if (phase[i] == Opening) {
        phase[i] = Open;
        ++established;
      }
    };
    cbs.on_readable = [&](TcpEngine::ConnId id) {
      const std::size_t i = idx[id];
      if (phase[i] != Requested) return;
      std::uint8_t buf[2048];
      for (;;) {
        std::size_t n = 0;
        {
          ScopedSpan s(spans, SpanKind::TcpRead, i + 1);
          n = eng.read(id, buf, sizeof buf);
        }
        if (n == 0) break;
        resp[i].append(reinterpret_cast<const char*>(buf), n);
      }
      if (!eng.at_eof(id)) return;
      const auto r = proto::http_parse_response(resp[i]);
      phase[i] = Done;
      --outstanding;
      if (r.has_value() && r->status == 200) {
        if (r->body.size() == body.size() &&
            std::memcmp(r->body.data(), body.data(), body.size()) == 0) {
          ++responses_ok;
          good_bytes += r->body.size();
          res.latency_us.push_back(sim::to_us(self.node().now() - t_start[i]));
          t_last_resp = self.node().now();
        } else {
          ++bad_bodies;
        }
      }
      resp[i].clear();
      resp[i].shrink_to_fit();
      eng.close(id);
    };
    cbs.on_closed = [&](TcpEngine::ConnId id) {
      const std::size_t i = idx[id];
      if (phase[i] == Opening) {
        ++failed;
      } else if (phase[i] == Requested) {
        ++failed;
        --outstanding;
      }
      if (phase[i] != Done) phase[i] = Dead;
    };

    // Phase 1: open everything, paced.
    const Cycles open_deadline = self.node().now() + budget / 2;
    std::size_t issued = 0;
    while (established + failed < conns) {
      if (self.node().now() >= open_deadline) break;
      while (issued < conns && issued - established - failed < kOpenWindow) {
        const auto port = static_cast<std::uint16_t>(kBasePort + issued);
        TcpEngine::ConnId id = 0;
        {
          ScopedSpan s(spans, SpanKind::TcpConnect, issued + 1);
          id = eng.connect(kServerIp, 80, port, cbs);
        }
        if (id == 0) {
          phase[issued] = Dead;
          ++failed;
        } else {
          ids[issued] = id;
          idx[id] = issued;
        }
        ++issued;
      }
      (void)co_await eng.step(us(200.0));
    }
    server_peak = server_eng != nullptr ? server_eng->open_connections() : 0;

    // Phase 2: one GET per established connection, closed-loop.
    const std::string get = proto::http_format_get("/obj");
    const auto* get_p = reinterpret_cast<const std::uint8_t*>(get.data());
    t_req0 = self.node().now();
    const Cycles req_deadline = t_req0 + budget / 2;
    std::size_t next = 0;
    for (;;) {
      if (self.node().now() >= req_deadline) break;
      while (next < conns && outstanding < kReqWindow) {
        if (phase[next] == Open) {
          t_start[next] = self.node().now();
          {
            ScopedSpan s(spans, SpanKind::TcpWrite, next + 1);
            eng.write(ids[next], {get_p, get.size()});
          }
          phase[next] = Requested;
          ++outstanding;
        }
        ++next;
      }
      if (next >= conns && outstanding == 0) break;
      (void)co_await eng.step(us(200.0));
    }
    // Recovery counters as of the last response, as bench_http_c10k reads
    // them (the teardown drain below is not part of the op).
    client_stats = eng.stats();
    if (server_eng != nullptr) server_stats = server_eng->stats();

    // Drain our own teardown, then stop the server.
    const Cycles drain_until = self.node().now() + us(100000.0);
    while (self.node().now() < drain_until) {
      (void)co_await eng.step(us(5000.0));
    }
    client_eng = nullptr;
    server_done = true;
  });

  // ---- run: set-up ends inside the first slice, when the client has
  // built its engine and offers its first connect ----
  std::unique_ptr<TraceHarvest> harvest;
  if (spans != nullptr) {
    harvest = std::make_unique<TraceHarvest>(sim.cpu_count());
  }
  const std::uint64_t k0 = srv.kernel_cycles_total();
  const CacheCount c0 = dcache_totals(sim);
  const SliceRun sr =
      run_slices(sim, 0, budget + us(1e6), slice, spans, harvest.get());
  if (t_first_op == 0) {
    res.fail("http_c10k_loss: client never started");
    return res;
  }
  res.setup_host_s = t_first_op - t_setup0;
  res.run_host_s = host_now_s() - t_first_op;

  // ---- accounting and checks ----
  res.attempted = conns;
  res.completed = responses_ok;
  res.failed = conns - responses_ok;
  if (bad_bodies != 0) {
    res.fail("http_c10k_loss: " + std::to_string(bad_bodies) +
             " 200 bodies differ from the served object");
  }
  if (server_eng != nullptr || client_eng != nullptr) {
    res.fail("http_c10k_loss: engines still running at the deadline");
  }
  const double window_cycles =
      t_last_resp > t_req0 ? static_cast<double>(t_last_resp - t_req0) : 0;
  res.sim_window_s = window_cycles / sim::kCpuMhz / 1e6;
  res.payload_bytes = static_cast<double>(good_bytes);
  const std::uint64_t dk = srv.kernel_cycles_total() - k0;

  auto& L = res.layers;
  const double done_d =
      static_cast<double>(std::max<std::uint64_t>(responses_ok, 1));
  L["sim.events"] = static_cast<double>(sr.events);
  L["sim.queue_pending_max"] = static_cast<double>(sr.pending_max);
  put_dcache(L, c0, dcache_totals(sim));
  // The server is busy over the whole run, open phase included.
  const double run_cycles = static_cast<double>(sim.now());
  L["sim.server_busy_frac"] =
      run_cycles > 0 ? static_cast<double>(dk) / run_cycles : 0;
  L["sim.kernel_cycles_per_op"] = static_cast<double>(dk) / done_d;
  L["net.rx_dropped"] = static_cast<double>(
      (server_link ? dev_s.drops(server_link->vc()) : 0) +
      (client_link ? dev_c.drops(client_link->vc()) : 0));
  L["net.fault_drops"] = static_cast<double>(
      dev_s.fault_counters().drops + dev_c.fault_counters().drops);
  L["proto.segments_per_op"] =
      static_cast<double>(server_stats.segments_in + client_stats.segments_in) /
      done_d;
  L["proto.retransmits"] =
      static_cast<double>(server_stats.retransmits + client_stats.retransmits);
  L["proto.rto_timeouts"] = static_cast<double>(server_stats.rto_timeouts +
                                                client_stats.rto_timeouts);
  L["proto.ooo_reassembled"] = static_cast<double>(
      server_stats.ooo_reassembled + client_stats.ooo_reassembled);
  L["proto.syn_backlog_drops"] = static_cast<double>(
      server_stats.syn_backlog_drops + client_stats.syn_backlog_drops);
  L["proto.server_peak_conns"] = static_cast<double>(server_peak);
  if (harvest) harvest->put(L);
  return res;
}

}  // namespace ash::perfbench

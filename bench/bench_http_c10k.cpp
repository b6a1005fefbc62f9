// HTTP/1.0 at c10k over the event-driven TCP engine — the scale workload
// the blocking, process-per-connection library (proto/tcp.hpp) cannot
// reach by construction (one 1 MB segment per process, 16 MB per node).
//
// Setup: two nodes over the AN2 link. The server node runs one TcpEngine
// with a port-80 TcpListener; the client node runs a second TcpEngine
// opening `--conns` (default 10240) connections, paced so at most
// kOpenWindow handshakes are in flight. Once EVERY connection is
// established — the concurrency high-water mark is read off the server's
// connection table at that instant — each client sends one GET and the
// server answers with a fixed body and closes (HTTP/1.0 framing).
// Requests run closed-loop with at most kReqWindow outstanding so the
// receive-buffer pools see bounded bursts.
//
// Regimes: a lossless link; 1% loss each way; and reorder+loss with
// out-of-order reassembly on vs. off (the pre-refactor drop-everything
// receiver). Per regime: connections/s over the open phase, request
// latency p50/p99, goodput (response payload bytes over the request
// phase), and the engine's recovery counters.
//
// Flags: --smoke   lossless + 1% loss only; exits nonzero unless the
//                  server table held >= 10000 concurrent connections and
//                  lossy goodput >= 90% of lossless (the ISSUE-7 gate;
//                  also a ctest target).
//        --conns N / --body N   scale overrides.
//
// Output: the table, plus BENCH_http_c10k.json.
#include "bench_util.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/an2_link.hpp"
#include "proto/http.hpp"
#include "proto/tcp_engine.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using proto::Ipv4Addr;
using proto::TcpEngine;
using sim::Process;
using sim::Task;
using sim::us;

const Ipv4Addr kServerIp = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kClientIp = Ipv4Addr::of(10, 0, 0, 2);

constexpr std::size_t kOpenWindow = 256;  // handshakes in flight
// GETs outstanding. Sized so closed-loop queueing delay stays well under
// the 25 ms min-RTO floor: deeper windows make every response look lost
// and the RTO timer (correctly) fires on traffic that is merely queued.
constexpr std::size_t kReqWindow = 64;
constexpr std::uint16_t kBasePort = 1024;

An2Link::Config link_cfg() {
  An2Link::Config cfg;
  // 288 * 1536 B fills the segment-half budget: enough pinned buffers to
  // absorb a full request window plus the ACK traffic riding behind it.
  cfg.rx_buffers = 288;
  cfg.buf_size = 1536;
  cfg.mode = proto::RecvMode::Interrupt;
  return cfg;
}

TcpEngine::Config engine_cfg(Ipv4Addr ip, bool reassemble) {
  TcpEngine::Config cfg;
  cfg.local_ip = ip;
  cfg.mss = 1456;
  cfg.window = 8192;
  cfg.rcv_limit = 16384;
  cfg.reassemble = reassemble;
  cfg.shards = 8;
  cfg.rx_batch = 256;
  // Closed-loop queueing at this depth reaches ~25 ms; keep the RTO floor
  // above it so the timer only fires on genuine loss (BSD's classic
  // 200 ms floor exists for exactly this reason, scaled to the sim).
  cfg.min_rto = us(50000.0);
  return cfg;
}

struct RegimeSpec {
  const char* name;
  net::FaultConfig faults;
  bool reassemble = true;
};

struct RegimeResult {
  std::size_t conns = 0;
  std::size_t established = 0;     // client connections that completed
  std::size_t server_peak = 0;     // server TCBs when the last one did
  std::size_t responses_ok = 0;    // 200s fully received
  double open_seconds = 0;
  double conns_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double goodput_mbps = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retx = 0;
  std::uint64_t rto_timeouts = 0;
  std::uint64_t ooo_buffered = 0;
  std::uint64_t ooo_reassembled = 0;
  std::uint64_t ooo_dropped = 0;
};

// State one regime's server and client processes share. The two process
// bodies are named coroutine functions over this struct rather than
// capturing lambdas: GCC 12.2 has crashed compiling the capturing
// coroutine-lambda form of this file.
struct RegimeRun {
  const RegimeSpec& spec;
  std::size_t conns;
  std::uint32_t body_len;
  net::An2Device& server_dev;
  net::An2Device& client_dev;
  sim::Cycles budget = us(30e6);
  bool server_done = false;
  TcpEngine* server_eng = nullptr;
  RegimeResult res{};
};

// ---- server: one engine, one listener, canned response ----
Task serve(Process& self, RegimeRun& run) {
  const RegimeSpec& spec = run.spec;
  const std::uint32_t body_len = run.body_len;
  An2Link link(self, run.server_dev, link_cfg());
  TcpEngine eng(link, engine_cfg(kServerIp, spec.reassemble));
  run.server_eng = &eng;

  const std::vector<std::uint8_t> body(body_len, 'x');
  const std::string wire =
      proto::http_format_response(std::string("/obj"), body);
  std::unordered_map<TcpEngine::ConnId, std::string> reqs;

  TcpEngine::ListenConfig lc;
  lc.backlog = 1024;
  lc.callbacks.on_readable = [&](TcpEngine::ConnId id) {
    std::string& acc = reqs[id];
    std::uint8_t buf[512];
    for (;;) {
      const std::size_t n = eng.read(id, buf, sizeof buf);
      if (n == 0) break;
      acc.append(reinterpret_cast<const char*>(buf), n);
    }
    if (!proto::http_request_complete(acc)) return;
    eng.write(id, {reinterpret_cast<const std::uint8_t*>(wire.data()),
                   wire.size()});
    eng.close(id);
    reqs.erase(id);
  };
  lc.callbacks.on_closed = [&](TcpEngine::ConnId id) { reqs.erase(id); };
  eng.listen(80, lc);

  co_await eng.run(run.server_done, self.node().now() + run.budget);
  run.server_eng = nullptr;
}

// ---- clients: one engine, `conns` flows ----
Task drive_clients(Process& self, RegimeRun& run) {
  const RegimeSpec& spec = run.spec;
  const std::size_t conns = run.conns;
  const std::uint32_t body_len = run.body_len;
  const sim::Cycles budget = run.budget;
  RegimeResult& res = run.res;
  An2Link link(self, run.client_dev, link_cfg());
  TcpEngine eng(link, engine_cfg(kClientIp, spec.reassemble));

  enum Phase : std::uint8_t { Opening, Open, Requested, Done, Dead };
  std::vector<TcpEngine::ConnId> ids(conns, 0);
  std::vector<Phase> phase(conns, Opening);
  std::vector<sim::Cycles> t_start(conns, 0);
  std::vector<sim::Cycles> latency;
  std::vector<std::string> resp(conns);
  std::unordered_map<TcpEngine::ConnId, std::size_t> idx;
  std::size_t established = 0, failed = 0, resp_done = 0,
              outstanding = 0;
  std::uint64_t good_bytes = 0;
  sim::Cycles t_last_resp = 0;

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
      const std::size_t n = eng.read(id, buf, sizeof buf);
      if (n == 0) break;
      resp[i].append(reinterpret_cast<const char*>(buf), n);
    }
    if (!eng.at_eof(id)) return;
    const auto r = proto::http_parse_response(resp[i]);
    phase[i] = Done;
    ++resp_done;
    --outstanding;
    if (r.has_value() && r->status == 200 &&
        r->body.size() == body_len) {
      ++res.responses_ok;
      good_bytes += r->body.size();
      latency.push_back(self.node().now() - t_start[i]);
      t_last_resp = self.node().now();
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
      --outstanding;  // torn down before the response completed
    }
    if (phase[i] != Done) phase[i] = Dead;
  };

  // Phase 1: open everything, paced.
  const sim::Cycles t_open0 = self.node().now();
  const sim::Cycles open_deadline = t_open0 + budget / 2;
  std::size_t issued = 0;
  while (established + failed < conns) {
    if (self.node().now() >= open_deadline) break;
    while (issued < conns &&
           issued - established - failed < kOpenWindow) {
      const auto port =
          static_cast<std::uint16_t>(kBasePort + issued);
      const TcpEngine::ConnId id =
          eng.connect(kServerIp, 80, port, cbs);
      if (id == 0) {
        phase[issued] = Dead;
        ++failed;
      } else {
        ids[issued] = id;
        idx[id] = issued;
      }
      ++issued;
    }
    const bool got = co_await eng.step(us(200.0));
    (void)got;
  }
  res.established = established;
  res.open_seconds = sim::to_us(self.node().now() - t_open0) / 1e6;
  res.conns_per_sec =
      res.open_seconds > 0 ? established / res.open_seconds : 0;
  // The moment of maximum concurrency: every client flow is up, none
  // has begun closing. Read the server's table size directly.
  res.server_peak =
      run.server_eng != nullptr ? run.server_eng->open_connections() : 0;

  // Phase 2: one GET per established connection, closed-loop.
  const std::string get = proto::http_format_get("/obj");
  const auto* get_p =
      reinterpret_cast<const std::uint8_t*>(get.data());
  const sim::Cycles t_req0 = self.node().now();
  const sim::Cycles req_deadline = t_req0 + budget / 2;
  std::size_t next = 0;
  for (;;) {
    if (self.node().now() >= req_deadline) break;
    while (next < conns && outstanding < kReqWindow) {
      if (phase[next] == Open) {
        t_start[next] = self.node().now();
        eng.write(ids[next], {get_p, get.size()});
        phase[next] = Requested;
        ++outstanding;
      }
      ++next;
    }
    if (next >= conns && outstanding == 0) break;
    const bool got = co_await eng.step(us(200.0));
    (void)got;
  }

  if (t_last_resp > t_req0) {
    const double req_s = sim::to_us(t_last_resp - t_req0) / 1e6;
    res.goodput_mbps = req_s > 0 ? good_bytes / req_s / 1e6 : 0;
  }
  std::sort(latency.begin(), latency.end());
  if (!latency.empty()) {
    res.p50_us = sim::to_us(latency[latency.size() / 2]);
    res.p99_us = sim::to_us(latency[latency.size() * 99 / 100]);
  }
  res.retransmits = eng.stats().retransmits;
  res.fast_retx = eng.stats().fast_retransmits;
  res.rto_timeouts = eng.stats().rto_timeouts;
  res.ooo_buffered = eng.stats().ooo_buffered;
  res.ooo_reassembled = eng.stats().ooo_reassembled;
  res.ooo_dropped = eng.stats().ooo_dropped;
  if (run.server_eng != nullptr) {
    res.retransmits += run.server_eng->stats().retransmits;
    res.fast_retx += run.server_eng->stats().fast_retransmits;
    res.rto_timeouts += run.server_eng->stats().rto_timeouts;
    res.ooo_buffered += run.server_eng->stats().ooo_buffered;
    res.ooo_reassembled += run.server_eng->stats().ooo_reassembled;
    res.ooo_dropped += run.server_eng->stats().ooo_dropped;
  }

  // Drain our own teardown, then stop the server.
  const sim::Cycles drain_until = self.node().now() + us(100000.0);
  while (self.node().now() < drain_until) {
    const bool got = co_await eng.step(us(5000.0));
    (void)got;
  }
  run.server_done = true;
}

RegimeResult run_regime(const RegimeSpec& spec, std::size_t conns,
                        std::uint32_t body_len) {
  An2World w;
  w.dev_a->set_faults(spec.faults);
  w.dev_b->set_faults(spec.faults);

  RegimeRun run{spec, conns, body_len, *w.dev_a, *w.dev_b};
  run.res.conns = conns;
  w.a->kernel().spawn("httpd",
                      [&run](Process& self) { return serve(self, run); });
  w.b->kernel().spawn("clients", [&run](Process& self) {
    return drive_clients(self, run);
  });

  w.sim.run(run.budget + us(1e6));
  return run.res;
}

net::FaultConfig lossy(double drop, double reorder) {
  net::FaultConfig f;
  f.drop_prob = drop;
  f.reorder_prob = reorder;
  f.reorder_delay = us(120.0);
  f.seed = 7;
  return f;
}

std::string regime_json(const RegimeResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"connections\": %zu, \"established\": %zu, "
      "\"server_peak_concurrent\": %zu, \"responses_ok\": %zu, "
      "\"conns_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"goodput_mbps\": %.3f, \"retransmits\": %llu, "
      "\"fast_retransmits\": %llu, \"rto_timeouts\": %llu, "
      "\"ooo_buffered\": %llu, \"ooo_reassembled\": %llu, "
      "\"ooo_dropped\": %llu}",
      r.conns, r.established, r.server_peak, r.responses_ok,
      r.conns_per_sec, r.p50_us, r.p99_us, r.goodput_mbps,
      static_cast<unsigned long long>(r.retransmits),
      static_cast<unsigned long long>(r.fast_retx),
      static_cast<unsigned long long>(r.rto_timeouts),
      static_cast<unsigned long long>(r.ooo_buffered),
      static_cast<unsigned long long>(r.ooo_reassembled),
      static_cast<unsigned long long>(r.ooo_dropped));
  return buf;
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;

  bool smoke = false;
  std::size_t conns = 10240;
  std::uint32_t body = 4096;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      body = 1024;  // lighter payload, same protocol dynamics
    } else if (std::strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
      conns = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--body") == 0 && i + 1 < argc) {
      body = static_cast<std::uint32_t>(std::atol(argv[++i]));
    }
  }

  std::vector<RegimeSpec> specs = {
      {"lossless", {}, true},
      {"loss_1pct", lossy(0.01, 0.0), true},
  };
  if (!smoke) {
    specs.push_back({"reorder_loss_ooo", lossy(0.01, 0.02), true});
    specs.push_back({"reorder_loss_drop", lossy(0.01, 0.02), false});
  }

  std::vector<RegimeResult> results;
  std::printf("http_c10k: %zu connections, %u-byte responses\n", conns,
              body);
  for (const RegimeSpec& s : specs) {
    results.push_back(run_regime(s, conns, body));
    const RegimeResult& r = results.back();
    std::printf(
        "%-18s est %6zu/%zu  peak %6zu  ok %6zu  %8.0f conns/s  "
        "p50 %8.0f us  p99 %8.0f us  %7.3f MB/s  (retx %llu, fast %llu, "
        "rto %llu, ooo +%llu/-%llu)\n",
        s.name, r.established, r.conns, r.server_peak, r.responses_ok,
        r.conns_per_sec, r.p50_us, r.p99_us, r.goodput_mbps,
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.fast_retx),
        static_cast<unsigned long long>(r.rto_timeouts),
        static_cast<unsigned long long>(r.ooo_buffered),
        static_cast<unsigned long long>(r.ooo_dropped));
  }

  std::string out = "{\n  \"bench\": \"http_c10k\",\n";
  char line[700];
  std::snprintf(line, sizeof line,
                "  \"connections\": %zu,\n  \"body_bytes\": %u,\n"
                "  \"regimes\": {\n",
                conns, body);
  out += line;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::snprintf(line, sizeof line, "    \"%s\": %s%s\n",
                  specs[i].name, regime_json(results[i]).c_str(),
                  i + 1 < results.size() ? "," : "");
    out += line;
  }
  out += "  }\n}\n";
  if (FILE* fp = std::fopen("BENCH_http_c10k.json", "w")) {
    std::fputs(out.c_str(), fp);
    std::fclose(fp);
  } else {
    std::fprintf(stderr,
                 "warning: could not write BENCH_http_c10k.json\n");
  }

  if (smoke) {
    const RegimeResult& clean = results[0];
    const RegimeResult& loss = results[1];
    bool ok = true;
    if (clean.server_peak < 10000 || conns < 10000) {
      std::fprintf(stderr,
                   "SMOKE FAIL: server peak concurrency %zu < 10000\n",
                   clean.server_peak);
      ok = false;
    }
    if (clean.established != conns) {
      std::fprintf(stderr, "SMOKE FAIL: only %zu/%zu established\n",
                   clean.established, conns);
      ok = false;
    }
    if (clean.responses_ok < conns * 99 / 100 ||
        loss.responses_ok < conns * 99 / 100) {
      std::fprintf(stderr, "SMOKE FAIL: responses ok %zu / %zu of %zu\n",
                   clean.responses_ok, loss.responses_ok, conns);
      ok = false;
    }
    if (loss.goodput_mbps < 0.9 * clean.goodput_mbps) {
      std::fprintf(stderr,
                   "SMOKE FAIL: lossy goodput %.3f < 90%% of lossless "
                   "%.3f MB/s\n",
                   loss.goodput_mbps, clean.goodput_mbps);
      ok = false;
    }
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}

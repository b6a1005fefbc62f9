// rpc_small — open-loop small-message RPC into 64 tenant handlers.
//
// One client offers seeded Poisson arrivals of 4-byte remote-increment
// RPCs and 12-byte KV GET/PUT frames (about 9:1 GET to PUT) to 64 tenant
// server processes. Each tenant owns one AN2 VC and one handler: even
// tenants download the hand-written ashlib::make_remote_increment(), odd
// tenants download ashc::kv_rules() through download_rules. The server sits
// behind an 8-queue adaptive-coalescing RxQueueSet and a TenantScheduler;
// the link is bench_scaling's over-provisioned one, so the server is the
// bottleneck.
//
// The client is an ideal load generator: ops are sent from a timer chain on
// the client's event queue (no client CPU), and replies are observed by a
// receive hook on a client whose receive path costs zero cycles, so the
// client never perturbs what it measures. Latency runs from each op's due
// time to its reply's arrival. Every reply carries its op's sequence number
// (the increment echo, the KV GET key), so a reply is matched to its op and
// checked against the expected bytes.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "ashc/compile.hpp"
#include "ashc/eval.hpp"
#include "ashc/scenarios.hpp"
#include "ashlib/handlers.hpp"
#include "common.hpp"
#include "core/ash.hpp"
#include "core/tenant.hpp"
#include "net/an2.hpp"
#include "net/rx_queue.hpp"
#include "sandbox/sfi.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"
#include "vcode/verifier.hpp"

namespace ash::perfbench {
namespace {

using sim::Cycles;
using sim::Process;
using sim::Task;
using sim::us;

constexpr std::size_t kTenants = 64;
constexpr std::size_t kQueues = 8;
constexpr std::uint64_t kHeadlineOps = 600000;
constexpr std::uint64_t kStairOps = 100000;
constexpr double kStairKops[] = {600, 700, 750, 800, 850, 900, 950, 1000};
constexpr Cycles kSlice = us(1000.0);
constexpr std::uint32_t kBufsPerVc = 32;
constexpr std::uint32_t kBufBytes = 64;
constexpr std::uint32_t kStateOff = 0x80000;  // counter / rule state
// Tenant process starts each pay a context switch; all are attached well
// before the first op is due.
const Cycles kWarmup = us(1000.0 + 60.0 * kTenants);
const Cycles kDrain = us(5000.0);

enum class OpKind : std::uint8_t { Inc, Get, Put };

struct Op {
  double due = 0;  // cycles, fractional
  std::uint32_t tenant = 0;
  OpKind kind = OpKind::Inc;
  std::uint32_t value = 0;
};

/// A little-endian word of simulated memory (the engines' byte order).
std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

bool is_kv(std::size_t tenant) { return tenant % 2 == 1; }

net::An2Config fast_link() {
  net::An2Config cfg;
  cfg.bandwidth_mbytes_per_sec = 1000.0;
  cfg.one_way_latency = us(5.0);
  cfg.per_packet_overhead = us(0.025);
  cfg.tx_kernel_work = us(0.025);
  return cfg;
}

std::vector<std::uint8_t> frame_of(const Op& op, std::uint32_t seq) {
  if (op.kind == OpKind::Inc) {
    std::vector<std::uint8_t> f(4);
    util::store_be32(f.data(), seq);
    return f;
  }
  std::vector<std::uint8_t> f(12);
  util::store_be32(f.data() + 0, op.kind == OpKind::Get ? 1u : 2u);
  util::store_be32(f.data() + 4, seq);
  util::store_be32(f.data() + 8, op.value);
  return f;
}

/// The seeded op schedule: Poisson arrivals at `rate_kops`, uniform tenant.
std::vector<Op> make_schedule(std::uint64_t seed, double rate_kops,
                              std::uint64_t n) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  const double mean_gap = static_cast<double>(us(1000.0)) / rate_kops;
  std::vector<Op> ops(n);
  double t = static_cast<double>(kWarmup);
  for (Op& op : ops) {
    op.due = t;
    op.tenant = static_cast<std::uint32_t>(rng.below(kTenants));
    if (is_kv(op.tenant)) {
      op.kind = rng.chance(9, 10) ? OpKind::Get : OpKind::Put;
      op.value = static_cast<std::uint32_t>(rng.next());
    }
    t += -std::log(1.0 - rng.uniform()) * mean_gap;
  }
  return ops;
}

/// Kernel-context cycles of the server's main CPU plus its RX CPUs.
std::uint64_t server_kernel_cycles(sim::Node& server) {
  std::uint64_t c = server.kernel_cycles_total();
  for (std::size_t i = 0; i < server.rx_cpu_count(); ++i) {
    c += server.rx_cpu(i).kernel_cycles_total();
  }
  return c;
}

}  // namespace

Result run_rpc_small(const Options& opt) {
  Result res;
  const double t_setup0 = host_now_s();
  SpanLog* spans = opt.spans;
  const bool traced = spans != nullptr;
  const double rate = opt.rate_kops > 0 ? opt.rate_kops : kRpcHeadlineKops;
  const std::uint64_t n_ops = opt.ops > 0 ? opt.ops : kHeadlineOps;
  const Cycles slice = opt.slice > 0 ? opt.slice : kSlice;

  // ---- inputs: op schedule and the expected KV replies/state ----
  const std::vector<Op> ops = make_schedule(opt.seed, rate, n_ops);
  const ashc::RuleSet kv = ashc::kv_rules();
  std::vector<std::vector<std::uint8_t>> kv_state(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (is_kv(t)) kv_state[t] = ashc::init_state(kv);
  }
  // Expected 12-byte GET reply per op index (empty for other kinds).
  std::vector<std::array<std::uint8_t, 12>> expect(n_ops);
  std::vector<std::uint64_t> sent_inc(kTenants, 0), sent_put(kTenants, 0);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    const Op& op = ops[i];
    if (op.kind == OpKind::Inc) {
      ++sent_inc[op.tenant];
      continue;
    }
    if (op.kind == OpKind::Put) ++sent_put[op.tenant];
    const auto frame = frame_of(op, static_cast<std::uint32_t>(i + 1));
    const ashc::EvalResult ev =
        ashc::eval(kv, frame, kv_state[op.tenant], 0);
    if (op.kind == OpKind::Get) {
      if (ev.sends.size() != 1 || ev.sends[0].bytes.size() != 12) {
        res.fail("rpc_small: kv model gave no GET reply");
        return res;
      }
      std::memcpy(expect[i].data(), ev.sends[0].bytes.data(), 12);
    }
  }

  // ---- world ----
  sim::Simulator sim;
  sim::NodeConfig client_cfg;
  client_cfg.cost.interrupt_entry = 0;  // zero-cost observer receive path
  client_cfg.cost.demux_an2 = 0;
  sim::NodeConfig server_cfg;
  server_cfg.memory_bytes = (kTenants + 4) << 20;
  sim::Node& client = sim.add_node("client", client_cfg);
  sim::Node& server = sim.add_node("server", server_cfg);
  net::An2Config client_link = fast_link();
  client_link.rx_driver_work = 0;
  client_link.rx_cache_flush = 0;
  net::An2Device dev_c(client, client_link);
  net::An2Device dev_s(server, fast_link());
  dev_c.connect(dev_s);
  core::AshSystem ash_sys(server);

  core::TenantSchedulerConfig tcfg;
  tcfg.replenish_period = us(1000.0);
  // Four times each tenant's fair share of the 8 receive CPUs, so the
  // scheduler admits every handler run below saturation.
  tcfg.quantum_per_weight =
      4 * kQueues * static_cast<std::uint64_t>(us(1000.0)) / kTenants;
  tcfg.burst_rounds = 2;
  tcfg.rx_quota_frames = kBufsPerVc;
  core::TenantScheduler tenants(server, tcfg);
  ash_sys.set_tenants(&tenants);

  net::RxQueueSet::Config qc;
  qc.queues = kQueues;
  qc.steering.mode = net::SteerMode::ChannelHash;
  qc.coalesce.enabled = true;
  qc.coalesce.max_frames = 8;
  qc.coalesce.max_delay = us(50.0);
  qc.coalesce.adaptive = true;
  qc.quota = &tenants;
  net::RxQueueSet rxq(server, qc);
  dev_s.set_rx_queues(&rxq);

  // ---- servers: one process, VC and handler per tenant ----
  std::vector<int> vc_of(kTenants, -1), ash_of(kTenants, -1);
  std::vector<std::uint32_t> state_of(kTenants, 0);
  double sandbox_added = 0;
  std::string setup_error;
  for (std::size_t t = 0; t < kTenants; ++t) {
    server.kernel().spawn(
        "tenant" + std::to_string(t), [&, t](Process& self) -> Task {
          tenants.set_weight(self, 1);
          const std::uint32_t state = self.segment().base + kStateOff;
          std::string error;
          int id = -1;
          if (is_kv(t)) {
            if (traced) {
              // The stages download_rules runs, called standalone on the
              // same input so each shows as its own span.
              ashc::Compiled c;
              {
                ScopedSpan s(spans, SpanKind::Compile, 0);
                c = ashc::compile(kv);
              }
              {
                ScopedSpan s(spans, SpanKind::Verify, 0);
                (void)vcode::verify(c.program, ashc::verify_policy(kv));
              }
              sandbox::Options sb;
              sb.segment = {self.segment().base, self.segment().size};
              std::optional<sandbox::SandboxResult> r;
              {
                ScopedSpan s(spans, SpanKind::Sandbox, 0);
                r = sandbox::sandbox(c.program, sb, &error);
              }
              if (r.has_value()) sandbox_added += r->report.added();
            }
            ScopedSpan s(spans, SpanKind::DownloadRules, 0);
            id = ash_sys.download_rules(self, kv, state, {}, &error);
          } else {
            const vcode::Program prog = ashlib::make_remote_increment();
            if (traced) {
              ScopedSpan s(spans, SpanKind::Verify, 0);
              vcode::VerifyPolicy policy;
              (void)vcode::verify(prog, policy);
            }
            sandbox::Report report;
            {
              ScopedSpan s(spans, SpanKind::Download, 0);
              id = ash_sys.download(self, prog, {}, &error, &report);
            }
            sandbox_added += report.added();
          }
          if (id < 0) {
            setup_error = "rpc_small: download failed: " + error;
            co_return;
          }
          const int vc = dev_s.bind_vc(self);
          for (std::uint32_t i = 0; i < kBufsPerVc; ++i) {
            dev_s.supply_buffer(vc, self.segment().base + kBufBytes * i,
                                kBufBytes);
          }
          ash_sys.attach_an2(dev_s, vc, id, state);
          state_of[t] = state;
          ash_of[t] = id;
          vc_of[t] = vc;
          co_await self.sleep_for(us(1e9));
        });
  }

  // ---- client: VC owner; replies observed by a zero-cost hook ----
  std::vector<std::uint8_t> done(n_ops, 0);
  res.latency_us.reserve(n_ops);
  std::vector<std::uint64_t> wrong(kTenants, 0);
  std::vector<int> tenant_of_vc(kTenants, -1);
  std::uint64_t completed_replies = 0;
  const auto on_reply = [&](const net::An2Device::RxEvent& ev) {
    const std::uint8_t* p = client.mem(ev.desc.addr, ev.desc.len);
    const int t = ev.vc >= 0 && ev.vc < static_cast<int>(tenant_of_vc.size())
                      ? tenant_of_vc[static_cast<std::size_t>(ev.vc)]
                      : -1;
    if (p == nullptr || t < 0) return true;
    const bool kv_reply = is_kv(static_cast<std::size_t>(t));
    if (ev.desc.len != (kv_reply ? 12u : 4u)) {
      ++wrong[static_cast<std::size_t>(t)];
      return true;
    }
    const std::uint32_t seq = util::load_be32(p + (kv_reply ? 4 : 0));
    if (seq == 0 || seq > n_ops) {
      ++wrong[static_cast<std::size_t>(t)];
      return true;
    }
    const std::size_t i = seq - 1;
    const Op& op = ops[i];
    const bool ok = op.tenant == static_cast<std::uint32_t>(t) && !done[i] &&
                    (op.kind == OpKind::Inc ||
                     (op.kind == OpKind::Get &&
                      std::memcmp(p, expect[i].data(), 12) == 0));
    if (!ok) {
      ++wrong[static_cast<std::size_t>(t)];
      return true;
    }
    done[i] = 1;
    ++completed_replies;
    res.latency_us.push_back(
        (static_cast<double>(client.now()) - op.due) / sim::kCpuMhz);
    return true;
  };
  client.kernel().spawn("client", [&](Process& self) -> Task {
    for (std::size_t t = 0; t < kTenants; ++t) {
      const int vc = dev_c.bind_vc(self);
      for (std::uint32_t i = 0; i < 16; ++i) {
        dev_c.supply_buffer(
            vc,
            self.segment().base +
                kBufBytes * static_cast<std::uint32_t>(t * 16 + i),
            kBufBytes);
      }
      dev_c.set_kernel_hook(vc, on_reply);
    }
    co_await self.sleep_for(us(1e9));
  });

  // ---- generator: a timer chain on the client's event queue ----
  std::size_t next = 0;
  double lag_cycles = 0;
  std::function<void()> tick = [&] {
    const Op& op = ops[next];
    lag_cycles += static_cast<double>(client.now()) - op.due;
    const std::uint32_t seq = static_cast<std::uint32_t>(next + 1);
    const auto frame = frame_of(op, seq);
    {
      ScopedSpan s(spans, SpanKind::Send, seq);
      dev_c.send(vc_of[op.tenant], frame);
    }
    ++next;
    if (next < ops.size()) {
      client.queue().schedule_at(
          static_cast<Cycles>(std::ceil(ops[next].due)), tick);
    }
  };

  // ---- setup: boot every tenant up to the first op's due time ----
  std::unique_ptr<TraceHarvest> harvest;
  if (traced) harvest = std::make_unique<TraceHarvest>(sim.cpu_count());
  sim.run(kWarmup - 1);
  if (!setup_error.empty()) {
    res.fail(setup_error);
    return res;
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (vc_of[t] < 0) {
      res.fail("rpc_small: tenant not attached by the first due time");
      return res;
    }
    tenant_of_vc[static_cast<std::size_t>(vc_of[t])] = static_cast<int>(t);
  }
  client.queue().schedule_at(static_cast<Cycles>(std::ceil(ops[0].due)),
                             tick);
  res.setup_host_s = host_now_s() - t_setup0;

  // ---- measured phase: fixed slices up to the drain deadline ----
  const double t_run0 = host_now_s();
  const std::uint64_t k0 = server_kernel_cycles(server);
  const CacheCount c0 = dcache_totals(sim);
  const Cycles last_due = static_cast<Cycles>(std::ceil(ops.back().due));
  std::size_t depth_max = 0;
  std::vector<std::size_t> depth_samples;
  const SliceRun sr = run_slices(
      sim, kWarmup - 1, last_due + kDrain, slice, spans, harvest.get(),
      [&](Cycles t) {
        std::size_t depth = 0;
        for (std::size_t q = 0; q < rxq.size(); ++q) {
          depth += rxq.queue(q).depth();
        }
        depth_max = std::max(depth_max, depth);
        if (t <= last_due) depth_samples.push_back(depth);
      });
  res.run_host_s = host_now_s() - t_run0;
  const std::uint64_t dk = server_kernel_cycles(server) - k0;
  const CacheCount c1 = dcache_totals(sim);

  // ---- accounting and checks ----
  res.attempted = n_ops;
  std::uint64_t puts_done = 0;
  AshTotals ash;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const core::AshStats& st = ash_sys.stats(ash_of[t]);
    ash.add(st);
    const core::TenantAccount* acct =
        tenants.find_account(ash_sys.owner(ash_of[t]).pid());
    const bool lossless =
        dev_s.drops(vc_of[t]) == 0 && st.tenant_deferrals == 0 &&
        st.voluntary_aborts + st.involuntary_aborts == 0 &&
        (acct == nullptr ||
         acct->rx_quota_drops + acct->rx_overflow_drops == 0);
    if (lossless && wrong[t] != 0) {
      res.fail("rpc_small: wrong reply for tenant " + std::to_string(t));
    }
    const std::uint8_t* mem =
        server.mem(state_of[t], kv.limits.state_bytes);
    if (is_kv(t)) {
      const std::uint32_t put_count = le32(mem + 4);
      puts_done += std::min<std::uint64_t>(put_count, sent_put[t]);
      if (lossless &&
          std::memcmp(mem, kv_state[t].data(), kv_state[t].size()) != 0) {
        res.fail("rpc_small: KV state differs from ashc::eval for tenant " +
                 std::to_string(t));
      }
    } else {
      const std::uint32_t counter = le32(mem);
      if (counter != st.commits) {
        res.fail("rpc_small: counter != committed increments for tenant " +
                 std::to_string(t));
      }
      if (lossless && counter != sent_inc[t]) {
        res.fail("rpc_small: counter != increments sent for tenant " +
                 std::to_string(t));
      }
    }
  }
  res.completed = completed_replies + puts_done;
  res.failed = res.attempted - res.completed;

  const Cycles first_due = static_cast<Cycles>(std::ceil(ops.front().due));
  const double window_cycles = static_cast<double>(last_due - first_due);
  res.sim_window_s = window_cycles / sim::kCpuMhz / 1e6;
  double payload = 12.0 * static_cast<double>(puts_done);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    if (done[i]) payload += ops[i].kind == OpKind::Inc ? 4 : 12;
  }
  res.payload_bytes = payload;
  res.gen_lag_us = lag_cycles / static_cast<double>(n_ops) / sim::kCpuMhz;

  // Backlog: did RX depth over the offered window's last quarter clearly
  // exceed its first quarter?
  if (depth_samples.size() >= 8) {
    const std::size_t q = depth_samples.size() / 4;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
      first += static_cast<double>(depth_samples[i]);
      last += static_cast<double>(depth_samples[depth_samples.size() - 1 - i]);
    }
    res.backlog_growing = last / q > 2.0 * first / q + 16.0;
  }

  std::uint64_t rx_enq = 0, rx_drop = 0, rx_disp = 0, rx_batches = 0;
  for (std::size_t q = 0; q < rxq.size(); ++q) {
    rx_enq += rxq.queue(q).enqueued();
    rx_drop += rxq.queue(q).dropped();
    rx_disp += rxq.queue(q).dispatched();
    rx_batches += rxq.queue(q).batches();
  }
  for (std::size_t t = 0; t < kTenants; ++t) rx_drop += dev_s.drops(vc_of[t]);

  auto& L = res.layers;
  const double ops_done =
      static_cast<double>(std::max<std::uint64_t>(res.completed, 1));
  L["sim.events"] = static_cast<double>(sr.events);
  L["sim.queue_pending_max"] = static_cast<double>(sr.pending_max);
  put_dcache(L, c0, c1);
  L["sim.server_busy_frac"] =
      static_cast<double>(dk) /
      (window_cycles * static_cast<double>(1 + server.rx_cpu_count()));
  L["sim.kernel_cycles_per_op"] = static_cast<double>(dk) / ops_done;
  L["net.rx_enqueued"] = static_cast<double>(rx_enq);
  L["net.rx_dropped"] = static_cast<double>(rx_drop);
  L["net.frames_per_batch"] =
      rx_batches > 0 ? static_cast<double>(rx_disp) /
                           static_cast<double>(rx_batches)
                     : 0;
  L["net.rx_depth_max"] = static_cast<double>(depth_max);
  L["net.fault_drops"] = static_cast<double>(
      dev_c.fault_counters().drops + dev_s.fault_counters().drops);
  ash.put(L);
  // The KV handlers' count comes from the standalone sandbox stage, which
  // only the traced run calls.
  if (traced) L["sandbox.added_insns"] = sandbox_added;
  if (harvest) harvest->put(L);
  return res;
}

Staircase rpc_small_staircase(std::uint64_t seed) {
  // One seed gives every step the same uniform draws, so the steps differ
  // only in rate and p99 rises with the step. Stop at the first step that
  // misses the limit, and interpolate the limit's crossing between it and
  // the step below when p99 alone decided.
  Staircase sc;
  for (const double rate : kStairKops) {
    Options o;
    o.seed = seed;
    o.rate_kops = rate;
    o.ops = kStairOps;
    const Result r = run_rpc_small(o);
    if (!r.correct) {
      sc.kops_at_slo = -1;
      return sc;
    }
    const double served =
        static_cast<double>(r.completed) / r.sim_window_s / 1e3;
    const double p99 = percentile(r.latency_us, 99);
    const bool clean = r.failed == 0 && !r.backlog_growing;
    const bool ok = clean && p99 <= kSloP99Us;
    sc.offered_kops.push_back(rate);
    sc.served_kops.push_back(served);
    sc.p99_us.push_back(p99);
    sc.ok.push_back(ok);
    if (ok) {
      sc.kops_at_slo = served;
      continue;
    }
    const std::size_t n = sc.ok.size();
    if (clean && n >= 2 && sc.ok[n - 2]) {
      const double f =
          (kSloP99Us - sc.p99_us[n - 2]) / (p99 - sc.p99_us[n - 2]);
      sc.kops_at_slo =
          sc.served_kops[n - 2] + f * (served - sc.served_kops[n - 2]);
    }
    break;
  }
  return sc;
}

}  // namespace ash::perfbench

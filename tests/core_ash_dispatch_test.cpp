// One ASH dispatch path, three sites. The same message offered inline on
// the host, through a 1-queue RX set and on a NIC execution unit must run
// the handler identically — AshStats, outcome taxonomy and reply bytes —
// on both device kinds, and each site's charge must follow its cost model
// cycle for cycle:
//   host / RX queue: driver pass + timer setup + context install (unless
//                    prebound) + execution + timer clear;
//   NIC unit:        dispatch + scaled execution + reply_issue per reply,
//                    plus punt_handoff for a declined or denied frame
//                    (whose host pass then lands on the queue's CPU).
// The attach/offload/detach/revoke tests pin that every way of taking a
// handler off a channel leaves no hook and no NIC window reservation
// behind, and that the channel can be attached again.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/ash.hpp"
#include "core/supervisor.hpp"
#include "dpf/dpf.hpp"
#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "net/nic_offload.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "vcode/builder.hpp"

namespace ash::core {
namespace {

using sim::Cycles;
using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

enum class Dev { An2, Eth };
enum class At { Inline, Queue, Nic };

constexpr At kSites[] = {At::Inline, At::Queue, At::Nic};

const char* name(At at) {
  switch (at) {
    case At::Inline: return "inline";
    case At::Queue: return "rx-queue";
    case At::Nic: return "nic";
  }
  return "?";
}

/// Count and echo messages whose first word is even; voluntarily abort
/// odd ones. TMsgLoad reads the logical message on either device (the
/// Ethernet copy sits striped in a kernel buffer).
vcode::Program parity_echo() {
  vcode::Builder b;
  const vcode::Reg t = b.reg();
  const vcode::Reg v = b.reg();
  vcode::Label odd = b.label();
  b.t_msgload(t, vcode::kRegZero, 0);
  b.andi(t, t, 1);
  b.bne(t, vcode::kRegZero, odd);
  b.lw(v, vcode::kRegArg2, 0);
  b.addiu(v, v, 1);
  b.sw(v, vcode::kRegArg2, 0);
  b.t_send(vcode::kRegArg3, vcode::kRegArg0, vcode::kRegArg1);
  b.halt();
  b.bind(odd);
  b.abort(7);
  return b.take();
}

/// Divides by zero on every message: an involuntary abort.
vcode::Program always_faults() {
  vcode::Builder b;
  const vcode::Reg z = b.reg();
  b.movi(z, 0);
  b.divu(z, vcode::kRegArg1, z);
  b.halt();
  return b.take();
}

dpf::Filter ip_filter() {
  dpf::Filter f;
  f.atoms = {dpf::atom_be16(12, 0x0800)};
  return f;
}

/// A client node and a server node on one device kind; the server's
/// receive path is inline, one RX queue, or one RX queue fronted by a
/// one-unit NicProcessor.
struct World {
  Dev dev;
  Simulator sim;
  Node& a = sim.add_node("client");
  Node& b = sim.add_node("server");
  std::unique_ptr<net::An2Device> an2_a, an2_b;
  std::unique_ptr<net::EthernetDevice> eth_a, eth_b;
  std::unique_ptr<net::RxQueueSet> rxq;
  std::unique_ptr<net::NicProcessor> nic;
  AshSystem ash{b};
  Process* owner = nullptr;
  int ch = -1;         // server VC / endpoint
  int client_ch = -1;  // where the echoes land
  std::uint32_t ctr = 0;

  World(Dev d, At at) : dev(d) {
    if (dev == Dev::An2) {
      an2_a = std::make_unique<net::An2Device>(a);
      an2_b = std::make_unique<net::An2Device>(b);
      an2_a->connect(*an2_b);
    } else {
      eth_a = std::make_unique<net::EthernetDevice>(a);
      eth_b = std::make_unique<net::EthernetDevice>(b);
      eth_a->connect(*eth_b);
    }
    if (at != At::Inline) {
      net::RxQueueSet::Config qc;
      qc.queues = 1;  // queue 0: the main CPU, coalescing off
      rxq = std::make_unique<net::RxQueueSet>(b, qc);
      if (an2_b) an2_b->set_rx_queues(rxq.get());
      if (eth_b) eth_b->set_rx_queues(rxq.get());
    }
    if (at == At::Nic) {
      net::NicConfig nc;
      nc.units_per_queue = 1;
      nic = std::make_unique<net::NicProcessor>(b, *rxq, nc);
      if (an2_b) an2_b->set_nic(nic.get());
      if (eth_b) eth_b->set_nic(nic.get());
    }
    const auto idle = [](Process& self) -> Task {
      co_await self.sleep_for(us(1e6));
    };
    owner = &b.kernel().spawn("server", idle);
    ctr = owner->segment().base + 0x80000;
    if (an2_b) {
      ch = an2_b->bind_vc(*owner);
      for (std::uint32_t i = 0; i < 8; ++i) {
        an2_b->supply_buffer(ch, owner->segment().base + 64 * i, 64);
      }
    } else {
      // No app buffers: a frame the handler does not consume is dropped by
      // the default copy-out, which then charges nothing.
      ch = eth_b->attach(*owner, ip_filter());
    }
    Process& client = a.kernel().spawn("client", idle);
    client_ch = an2_a ? an2_a->bind_vc(client)
                      : eth_a->attach(client, ip_filter());
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t buf = client.segment().base + 2048 * i;
      if (an2_a) an2_a->supply_buffer(client_ch, buf, 2048);
      if (eth_a) eth_a->supply_buffer(client_ch, buf, 2048);
    }
  }

  int download(const vcode::Program& prog, bool prebound = false) {
    AshOptions opts;
    opts.prebound_translation = prebound;
    std::string error;
    const int id = ash.download(*owner, prog, opts, &error);
    EXPECT_GE(id, 0) << error;
    return id;
  }
  void attach(int id) {
    if (an2_b) ash.attach(*an2_b, ch, id, ctr);
    if (eth_b) ash.attach(*eth_b, ch, id, ctr);
  }
  bool offload(int id) {
    return an2_b ? ash.offload(*an2_b, ch, id, ctr)
                 : ash.offload(*eth_b, ch, id, ctr);
  }
  bool detach() {
    return an2_b ? ash.detach(*an2_b, ch) : ash.detach(*eth_b, ch);
  }
  bool hooked() const {
    return an2_b ? an2_b->has_kernel_hook(ch) : eth_b->has_kernel_hook(ch);
  }
  bool resident() const {
    const net::RxSink* sink = an2_b ? static_cast<net::RxSink*>(an2_b.get())
                                    : eth_b.get();
    return nic->resident(sink, ch);
  }

  /// A message whose first four bytes are `first`, so its first word has
  /// the parity of `first` in either byte order.
  std::vector<std::uint8_t> message(std::uint8_t first) const {
    if (dev == Dev::An2) return {first, first, first, first, 4, 5, 6, 7};
    std::vector<std::uint8_t> f(14 + 46, 0x5a);
    std::fill_n(f.begin(), 4, first);
    f[12] = 0x08;
    f[13] = 0x00;
    return f;
  }
  void send_at(Cycles t, std::uint8_t first) {
    sim.queue().schedule_at(t, [this, bytes = message(first)] {
      EXPECT_TRUE(an2_a ? an2_a->send(0, bytes) : eth_a->send(bytes));
    });
  }

  std::vector<std::vector<std::uint8_t>> replies() {
    std::vector<std::vector<std::uint8_t>> out;
    for (;;) {
      const auto d = an2_a ? an2_a->poll(client_ch) : eth_a->poll(client_ch);
      if (!d) return out;
      const std::uint8_t* p = a.mem(d->addr, d->len);
      out.emplace_back(p, p + d->len);
    }
  }

  /// Host driver pass per frame (excluding the interrupt entry): AN2
  /// driver + VC demux + cache flush, or Ethernet driver + DPF walk.
  Cycles driver_cycles() const {
    const sim::CostModel& cost = b.cost();
    if (an2_b) {
      return an2_b->config().rx_driver_work + cost.demux_an2 +
             an2_b->config().rx_cache_flush;
    }
    dpf::CompiledEngine demux;
    demux.insert(ip_filter(), 0);
    dpf::MatchStats st;
    EXPECT_EQ(demux.match(message(0), &st), 0);
    return eth_b->config().rx_driver_work + st.nodes_visited * cost.dpf_node_cost;
  }
};

struct Scenario {
  std::vector<std::uint8_t> firsts;  // one message per entry, 200 us apart
  bool prebound = false;
  std::uint32_t livelock_quota = 0;  // 0: off
};

struct SiteRun {
  AshStats stats;
  std::vector<std::vector<std::uint8_t>> replies;
  Cycles host = 0;  // main-CPU kernel cycles while the messages ran
  Cycles nic = 0;   // NIC device cycles (NicProcessor totals)
  Cycles unit = 0;  // the one unit's own charged total
  std::uint64_t punts = 0;
  Cycles pass = 0;  // interrupt entry + driver cycles of one frame
};

SiteRun run_site(Dev dev, At at, const Scenario& sc) {
  World w(dev, at);
  const int id = w.download(parity_echo(), sc.prebound);
  if (sc.livelock_quota != 0) {
    w.ash.set_livelock_quota(sc.livelock_quota, us(1e6));
  }
  if (at == At::Nic) {
    EXPECT_TRUE(w.offload(id));
  } else {
    w.attach(id);
  }
  const Cycles host0 = w.b.kernel_cycles_total();
  for (std::size_t i = 0; i < sc.firsts.size(); ++i) {
    w.send_at(us(100.0 + 200.0 * static_cast<double>(i)), sc.firsts[i]);
  }
  w.sim.run(us(5000.0));

  SiteRun r;
  r.stats = w.ash.stats(id);
  r.replies = w.replies();
  r.host = w.b.kernel_cycles_total() - host0;
  r.pass = w.b.cost().interrupt_entry + w.driver_cycles();
  if (w.nic) {
    const auto t = w.nic->totals();
    r.nic = t.nic_cycles;
    r.unit = w.nic->unit(0, 0).charged_total();
    r.punts = t.punted;
    EXPECT_EQ(t.offered, sc.firsts.size());
  }
  return r;
}

void expect_same_run(const AshStats& want, const AshStats& got,
                     const char* site) {
  EXPECT_EQ(got.invocations, want.invocations) << site;
  EXPECT_EQ(got.commits, want.commits) << site;
  EXPECT_EQ(got.voluntary_aborts, want.voluntary_aborts) << site;
  EXPECT_EQ(got.involuntary_aborts, want.involuntary_aborts) << site;
  EXPECT_EQ(got.livelock_deferrals, want.livelock_deferrals) << site;
  EXPECT_EQ(got.cycles, want.cycles) << site;
  EXPECT_EQ(got.insns, want.insns) << site;
  EXPECT_EQ(got.by_outcome, want.by_outcome) << site;
}

/// Runs `sc` at all three sites on `dev`: identical handler results, and
/// each site charged exactly its cost-model formula. `runs`/`commits` are
/// the expected handler runs and commits; every scenario runs at most
/// one handler, so AshStats::cycles is that run's execution cycles.
void check_sites(Dev dev, const Scenario& sc, std::uint64_t runs,
                 std::uint64_t commits) {
  const SiteRun ref = run_site(dev, At::Inline, sc);
  ASSERT_LE(runs, 1u);
  EXPECT_EQ(ref.stats.invocations, runs);
  EXPECT_EQ(ref.stats.commits, commits);
  EXPECT_EQ(ref.replies.size(), commits);

  const sim::CostModel cost;
  const net::NicCostModel nc;
  const Cycles exec = ref.stats.cycles;
  const std::uint64_t frames = sc.firsts.size();
  const Cycles entry =
      cost.ash_timer_setup + (sc.prebound ? 0 : cost.ash_context_install);
  for (const At at : kSites) {
    const SiteRun r = at == At::Inline ? ref : run_site(dev, at, sc);
    expect_same_run(ref.stats, r.stats, name(at));
    EXPECT_EQ(r.replies, ref.replies) << name(at);
    if (at != At::Nic) {
      EXPECT_EQ(r.host, frames * r.pass +
                            runs * (entry + cost.ash_timer_clear) + exec)
          << name(at);
      continue;
    }
    const std::uint64_t punted = frames - commits;
    const Cycles scaled = (exec * nc.clock_num + nc.clock_den - 1) /
                          nc.clock_den;
    EXPECT_EQ(r.nic, runs * nc.dispatch + scaled +
                         commits * nc.reply_issue +
                         punted * nc.punt_handoff);
    EXPECT_EQ(r.unit, r.nic);
    EXPECT_EQ(r.punts, punted);
    // A punt's host receive pass lands on queue 0, the main CPU; the
    // handler never runs there again.
    EXPECT_EQ(r.host, punted * r.pass);
  }
}

Scenario commit() { return {{0x02}, false, 0}; }
Scenario prebound() { return {{0x02}, true, 0}; }
Scenario voluntary_abort() { return {{0x01}, false, 0}; }
Scenario denied_second() { return {{0x02, 0x04}, false, 1}; }

TEST(AshDispatch, CommitWithReplyAn2) { check_sites(Dev::An2, commit(), 1, 1); }
TEST(AshDispatch, CommitWithReplyEthernet) {
  check_sites(Dev::Eth, commit(), 1, 1);
}
TEST(AshDispatch, PreboundSkipsContextInstallAn2) {
  check_sites(Dev::An2, prebound(), 1, 1);
}
TEST(AshDispatch, PreboundSkipsContextInstallEthernet) {
  check_sites(Dev::Eth, prebound(), 1, 1);
}
TEST(AshDispatch, AbortPuntsWithHandoffAn2) {
  check_sites(Dev::An2, voluntary_abort(), 1, 0);
}
TEST(AshDispatch, AbortPuntsWithHandoffEthernet) {
  check_sites(Dev::Eth, voluntary_abort(), 1, 0);
}
TEST(AshDispatch, DenialChargesOnlyTheHandoffAn2) {
  check_sites(Dev::An2, denied_second(), 1, 1);
}
TEST(AshDispatch, DenialChargesOnlyTheHandoffEthernet) {
  check_sites(Dev::Eth, denied_second(), 1, 1);
}

// ---- attach / offload / detach / revoke symmetry ----

/// Offload, then take the handler off the channel with `remove`; the
/// channel must come back exactly as it was before the attach, and a
/// fresh offload must then run frames on the device again.
template <typename Remove>
void check_symmetry(Dev dev, bool faulting, Remove remove) {
  World w(dev, At::Nic);
  const int id = w.download(faulting ? always_faults() : parity_echo());
  const std::uint32_t window0 = w.nic->window_used();
  EXPECT_FALSE(w.hooked());

  ASSERT_TRUE(w.offload(id));
  EXPECT_TRUE(w.hooked());
  EXPECT_TRUE(w.resident());
  EXPECT_EQ(w.nic->window_used(), window0 + w.ash.nic_footprint(id));

  remove(w, id);
  EXPECT_FALSE(w.hooked());  // both hook slots
  EXPECT_FALSE(w.resident());
  EXPECT_EQ(w.nic->attached(), 0u);
  EXPECT_EQ(w.nic->window_used(), window0);
  EXPECT_FALSE(w.detach());  // nothing left to detach

  // Re-attach: a fresh handler on the same channel runs on the device.
  const int id2 = w.download(parity_echo());
  ASSERT_TRUE(w.offload(id2));
  EXPECT_TRUE(w.hooked());
  EXPECT_TRUE(w.resident());
  const std::uint64_t executed0 = w.nic->totals().nic_executed;
  w.send_at(w.sim.now() + us(100.0), 0x02);
  w.sim.run(w.sim.now() + us(2000.0));
  EXPECT_EQ(w.nic->totals().nic_executed, executed0 + 1);
  EXPECT_EQ(w.ash.stats(id2).commits, 1u);
  EXPECT_EQ(w.replies().size(), 1u);
  EXPECT_TRUE(w.detach());
  EXPECT_EQ(w.nic->window_used(), window0);
}

void detach_now(World& w, int) { EXPECT_TRUE(w.detach()); }

void revoke_now(World& w, int id) {
  w.ash.revoke(id);
  w.sim.run(w.sim.now() + us(10.0));  // the deferred hook clear
}

/// A supervisor revoke from inside the handler's own NIC run: the owner
/// crosses its fault limit on the first involuntary abort.
void fault_until_revoked(World& w, int id) {
  SupervisorConfig cfg;
  cfg.enabled = true;
  cfg.owner_fault_limit = 1;
  w.ash.set_supervisor(cfg);
  w.send_at(w.sim.now() + us(100.0), 0x02);
  w.sim.run(w.sim.now() + us(2000.0));
  EXPECT_EQ(w.ash.health(id), Health::Revoked);
  EXPECT_EQ(w.ash.stats(id).involuntary_aborts, 1u);
  w.ash.set_supervisor({});
}

TEST(AshDispatch, DetachRestoresChannelAn2) {
  check_symmetry(Dev::An2, false, detach_now);
}
TEST(AshDispatch, DetachRestoresChannelEthernet) {
  check_symmetry(Dev::Eth, false, detach_now);
}
TEST(AshDispatch, RevokeRestoresChannelAn2) {
  check_symmetry(Dev::An2, false, revoke_now);
}
TEST(AshDispatch, RevokeRestoresChannelEthernet) {
  check_symmetry(Dev::Eth, false, revoke_now);
}
TEST(AshDispatch, SupervisorRevokeRestoresChannelAn2) {
  check_symmetry(Dev::An2, true, fault_until_revoked);
}
TEST(AshDispatch, SupervisorRevokeRestoresChannelEthernet) {
  check_symmetry(Dev::Eth, true, fault_until_revoked);
}

}  // namespace
}  // namespace ash::core

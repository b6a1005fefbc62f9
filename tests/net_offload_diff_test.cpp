// Differential replay of the seeded fuzz corpus with smart-NIC offload on
// vs off (the host/offload differential proof). The offload contract is
// canonical-single-run: a handler executes exactly once through the same
// AshSystem machinery wherever it runs, and a punt transfers only the
// *completion* of a frame back to the host — never a re-execution. So the
// delivered message set (payload digests + per-channel counts, on both
// the plain notification-ring path and the ASH reply path) AND every
// per-handler AshStats outcome taxonomy must be identical with offload on
// or off; only where the cycles are charged (NIC units vs host CPUs)
// differs. Same seeds as the packetfuzz corpus targets (1001..1007
// per-parser, 2001/4001/6001 the cross-target sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "dpf/dpf.hpp"
#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "net/nic_offload.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vcode/builder.hpp"

namespace ash::net {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

constexpr int kVcs = 6;        // VCs 0..3 plain ring, VCs 4..5 ASH-attached
constexpr int kFirstAshVc = 4;
constexpr int kBufsPerVc = 160;

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// VC 5's handler: count and echo even-first-byte messages, voluntarily
/// abort odd ones. Aborts take the fallback delivery path on the host and
/// become HostService punts on the device — the differential proof needs
/// both flavors in one corpus, not just commits.
vcode::Program make_parity_filter() {
  using vcode::Builder;
  Builder b;
  const vcode::Reg t = b.reg();
  const vcode::Reg v = b.reg();
  vcode::Label odd = b.label();
  b.lbu(t, vcode::kRegArg0, 0);
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

/// One corpus message: arrival-schedule offset, target VC, payload. Same
/// generator shape as net_rxqueue_diff_test so the corpora line up.
struct CorpusMsg {
  sim::Cycles at;
  int vc;
  std::vector<std::uint8_t> bytes;
};

std::vector<CorpusMsg> make_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CorpusMsg> corpus;
  sim::Cycles t = us(100.0);
  const std::size_t n = 90 + rng.below(40);
  for (std::size_t m = 0; m < n; ++m) {
    if (rng.below(3) != 0) t += static_cast<sim::Cycles>(rng.below(480));
    CorpusMsg msg;
    msg.at = t;
    msg.vc = static_cast<int>(rng.below(kVcs));
    const std::size_t len = msg.vc >= kFirstAshVc ? 8 : rng.below(49);
    msg.bytes.resize(len);
    for (auto& b : msg.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    corpus.push_back(std::move(msg));
  }
  return corpus;
}

struct OffloadCase {
  const char* name;
  std::size_t queues;
  std::size_t nic_units;  // 0 = host-only (no NicProcessor)
  bool tiny_window;       // window fits only VC 4's handler
};

constexpr OffloadCase kCases[] = {
    {"host-4q", 4, 0, false},
    {"nic-4q", 4, 4, false},
    {"nic-4q-tiny-window", 4, 4, true},
    {"nic-1q-1unit", 1, 1, false},
};

/// Everything one run's outcome taxonomy: the by_outcome array plus the
/// summary counters and the execution totals (cycles exclude dispatch, so
/// they are identical host- or NIC-side by construction).
struct Taxonomy {
  std::uint64_t invocations, commits, vaborts, iaborts, cycles, insns;
  std::array<std::uint64_t, vcode::kOutcomeCount> by_outcome;
  bool operator==(const Taxonomy&) const = default;
};

Taxonomy taxonomy_of(const core::AshStats& s) {
  return {s.invocations, s.commits,          s.voluntary_aborts,
          s.involuntary_aborts, s.cycles, s.insns, s.by_outcome};
}

struct Delivered {
  std::map<int, std::vector<std::uint64_t>> ring;
  std::map<int, std::vector<std::uint64_t>> replies;
  std::map<int, std::vector<std::uint64_t>> fallback;
  std::uint32_t counters[2] = {0, 0};
  Taxonomy tax[2] = {};
  // Offload-side ground truth (zero in host-only runs).
  std::uint64_t nic_offered = 0, nic_executed = 0, nic_punted = 0;
  std::uint64_t nic_not_resident = 0;
};

Delivered replay(const std::vector<CorpusMsg>& corpus,
                 const OffloadCase& cfg) {
  Simulator sim;
  Node& a = sim.add_node("client");
  Node& b = sim.add_node("server");
  An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash_sys(b);

  RxQueueSet::Config qc;
  qc.queues = cfg.queues;
  qc.coalesce.enabled = true;
  qc.coalesce.max_frames = 4;
  qc.coalesce.max_delay = us(30.0);
  RxQueueSet rxq(b, qc);
  dev_b.set_rx_queues(&rxq);

  std::unique_ptr<NicProcessor> nic;  // built post-download (window sizing)

  std::uint32_t ctr_addr[2] = {0, 0};
  b.kernel().spawn("server", [&](Process& self) -> Task {
    core::AshOptions opts;
    std::string error;
    const int id_inc = ash_sys.download(self, ashlib::make_remote_increment(),
                                        opts, &error);
    EXPECT_GE(id_inc, 0) << error;
    const int id_par =
        ash_sys.download(self, make_parity_filter(), opts, &error);
    EXPECT_GE(id_par, 0) << error;

    if (cfg.nic_units > 0) {
      NicConfig nc;
      nc.units_per_queue = cfg.nic_units;
      // The tiny window holds exactly VC 4's handler: VC 5's frames must
      // then be *counted* NotResident punts running on the host path.
      if (cfg.tiny_window) nc.mem_window_bytes = ash_sys.nic_footprint(id_inc);
      nic = std::make_unique<NicProcessor>(b, rxq, nc);
      dev_b.set_nic(nic.get());
    }

    for (int v = 0; v < kVcs; ++v) {
      const int vc = dev_b.bind_vc(self);
      for (int i = 0; i < kBufsPerVc; ++i) {
        dev_b.supply_buffer(
            vc,
            self.segment().base +
                64u * static_cast<std::uint32_t>(v * kBufsPerVc + i),
            64);
      }
      if (v >= kFirstAshVc) {
        ctr_addr[v - kFirstAshVc] =
            self.segment().base + 0x80000 + 0x100u * (v - kFirstAshVc);
        const int id = v == kFirstAshVc ? id_inc : id_par;
        // offload falls back to a plain host attach when no NIC is
        // present — one code path for every case in the table.
        const bool res =
            ash_sys.offload(dev_b, vc, id, ctr_addr[v - kFirstAshVc]);
        if (cfg.nic_units > 0) {
          EXPECT_EQ(res, !(cfg.tiny_window && v != kFirstAshVc))
              << cfg.name << " vc " << v;
        } else {
          EXPECT_FALSE(res);
        }
      }
    }
    co_await self.sleep_for(us(1e6));
  });

  a.kernel().spawn("client", [&](Process& self) -> Task {
    for (int v = 0; v < kVcs; ++v) {
      dev_a.bind_vc(self);
      if (v >= kFirstAshVc) {
        for (int i = 0; i < kBufsPerVc; ++i) {
          dev_a.supply_buffer(
              v,
              self.segment().base +
                  64u * static_cast<std::uint32_t>(v * kBufsPerVc + i),
              64);
        }
      }
    }
    co_await self.sleep_for(us(1e6));
  });

  for (const CorpusMsg& m : corpus) {
    sim.queue().schedule_at(m.at, [&dev_a, &m] {
      ASSERT_TRUE(dev_a.send(m.vc, m.bytes));
    });
  }
  sim.run(us(50000.0));

  Delivered out;
  for (int v = 0; v < kVcs; ++v) {
    EXPECT_EQ(dev_b.drops(v), 0u) << cfg.name << " server vc " << v;
    EXPECT_EQ(dev_a.drops(v), 0u) << cfg.name << " client vc " << v;
    while (const auto d = dev_b.poll(v)) {
      const std::uint8_t* p = d->len ? b.mem(d->addr, d->len) : nullptr;
      const std::uint64_t h = fnv1a(p, d->len);
      (v >= kFirstAshVc ? out.fallback[v] : out.ring[v]).push_back(h);
    }
    while (const auto d = dev_a.poll(v)) {
      const std::uint8_t* p = d->len ? a.mem(d->addr, d->len) : nullptr;
      out.replies[v].push_back(fnv1a(p, d->len));
    }
  }
  for (int i = 0; i < 2; ++i) {
    const std::uint8_t* p = b.mem(ctr_addr[i], 4);
    out.counters[i] = static_cast<std::uint32_t>(p[0]) |
                      (static_cast<std::uint32_t>(p[1]) << 8) |
                      (static_cast<std::uint32_t>(p[2]) << 16) |
                      (static_cast<std::uint32_t>(p[3]) << 24);
    out.tax[i] = taxonomy_of(ash_sys.stats(i));
  }
  if (nic != nullptr) {
    const auto t = nic->totals();
    out.nic_offered = t.offered;
    out.nic_executed = t.nic_executed;
    out.nic_punted = t.punted;
    out.nic_not_resident =
        t.by_punt_reason[static_cast<std::size_t>(PuntReason::NotResident)];
    EXPECT_EQ(t.offered, t.nic_executed + t.punted + t.dropped) << cfg.name;
    EXPECT_EQ(t.dropped, 0u) << cfg.name;
    for (std::size_t q = 0; q < nic->queues(); ++q) {
      EXPECT_EQ(nic->depth(q), 0u) << cfg.name << " queue " << q;
    }
  }
  for (auto* m : {&out.ring, &out.replies, &out.fallback}) {
    for (auto& [vc, v] : *m) std::sort(v.begin(), v.end());
  }
  return out;
}

TEST(OffloadDiff, CorpusDeliveryAndStatsIdenticalHostVsOffload) {
  const std::uint64_t seeds[] = {1001, 1002, 1003, 1004, 1005,
                                 1006, 1007, 2001, 4001, 6001};
  for (const std::uint64_t seed : seeds) {
    const auto corpus = make_corpus(seed);
    std::map<int, std::size_t> offered;
    for (const auto& m : corpus) ++offered[m.vc];

    const Delivered base = replay(corpus, kCases[0]);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    // The host run must account for every offered ASH message.
    for (int v = kFirstAshVc; v < kVcs; ++v) {
      const std::size_t got =
          (base.replies.count(v) ? base.replies.at(v).size() : 0) +
          (base.fallback.count(v) ? base.fallback.at(v).size() : 0);
      EXPECT_EQ(got, offered[v]) << "ash vc " << v;
    }
    EXPECT_EQ(base.tax[0].invocations, offered[kFirstAshVc]);
    EXPECT_EQ(base.tax[1].invocations, offered[kFirstAshVc + 1]);
    EXPECT_EQ(base.tax[1].commits + base.tax[1].vaborts,
              base.tax[1].invocations);

    for (std::size_t c = 1; c < std::size(kCases); ++c) {
      const Delivered got = replay(corpus, kCases[c]);
      SCOPED_TRACE(::testing::Message() << "config=" << kCases[c].name);
      EXPECT_EQ(got.ring, base.ring);
      EXPECT_EQ(got.replies, base.replies);
      EXPECT_EQ(got.fallback, base.fallback);
      EXPECT_EQ(got.counters[0], base.counters[0]);
      EXPECT_EQ(got.counters[1], base.counters[1]);
      // The whole point: the handler ran once per message through the
      // same machinery, so the outcome taxonomy (and even the execution
      // cycle/insn totals) match the host run exactly.
      EXPECT_EQ(got.tax[0], base.tax[0]);
      EXPECT_EQ(got.tax[1], base.tax[1]);

      // Offload ground truth. Full window: every ASH frame was offered to
      // the NIC. Tiny window: VC 5's frames are NotResident punts.
      const std::size_t ash_msgs =
          offered[kFirstAshVc] + offered[kFirstAshVc + 1];
      EXPECT_EQ(got.nic_offered, ash_msgs);
      if (kCases[c].tiny_window) {
        EXPECT_EQ(got.nic_not_resident, offered[kFirstAshVc + 1]);
        EXPECT_EQ(got.nic_executed, base.tax[0].commits);
      } else {
        EXPECT_EQ(got.nic_not_resident, 0u);
        EXPECT_EQ(got.nic_executed,
                  base.tax[0].commits + base.tax[1].commits);
        EXPECT_EQ(got.nic_punted, base.tax[1].vaborts);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// offload on Ethernet end to end: the device's DPF-demuxed receive path
// drives the same NIC units as An2 (striped message access, device-framed
// replies). A plain attach run is ground truth: the counter, the
// echoed-reply set at the sender, and the handler's outcome taxonomy must
// match with every frame executing on-device in the offload run.
// ---------------------------------------------------------------------------

struct EthRun {
  std::uint32_t counter = 0;
  std::vector<std::uint64_t> replies;
  Taxonomy tax{};
  std::uint64_t nic_offered = 0, nic_executed = 0, nic_punted = 0;
  std::uint64_t nic_replies = 0;
};

EthRun replay_eth(bool offload) {
  constexpr int kFrames = 24;
  Simulator sim;
  Node& a = sim.add_node("client");
  Node& b = sim.add_node("server");
  EthernetDevice dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash_sys(b);

  RxQueueSet::Config qc;
  qc.queues = 2;
  RxQueueSet rxq(b, qc);
  dev_b.set_rx_queues(&rxq);
  std::unique_ptr<NicProcessor> nic;

  dpf::Filter filt;
  filt.atoms = {dpf::atom_be16(12, 0x0800)};

  std::uint32_t ctr_addr = 0;
  b.kernel().spawn("server", [&](Process& self) -> Task {
    const int ep = dev_b.attach(self, filt);
    for (int i = 0; i < 2 * kFrames; ++i) {
      dev_b.supply_buffer(
          ep, self.segment().base + 2048u * static_cast<std::uint32_t>(i),
          2048);
    }
    std::string error;
    const int id =
        ash_sys.download(self, ashlib::make_remote_increment(), {}, &error);
    EXPECT_GE(id, 0) << error;
    ctr_addr = self.segment().base + 0x80000;
    if (offload) {
      NicConfig nc;
      nc.units_per_queue = 2;
      nic = std::make_unique<NicProcessor>(b, rxq, nc);
      dev_b.set_nic(nic.get());
      EXPECT_TRUE(ash_sys.offload(dev_b, ep, id, ctr_addr));
    } else {
      ash_sys.attach(dev_b, ep, id, ctr_addr);
    }
    co_await self.sleep_for(us(1e6));
  });

  int ep_a = -1;
  a.kernel().spawn("client", [&](Process& self) -> Task {
    ep_a = dev_a.attach(self, filt);  // catches the handler's echoes
    for (int i = 0; i < 2 * kFrames; ++i) {
      dev_a.supply_buffer(
          ep_a, self.segment().base + 2048u * static_cast<std::uint32_t>(i),
          2048);
    }
    co_await self.sleep_for(us(1e6));
  });

  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> f(14 + 60, static_cast<std::uint8_t>(i));
    f[12] = 0x08;
    f[13] = 0x00;
    frames.push_back(std::move(f));
  }
  for (int i = 0; i < kFrames; ++i) {
    sim.queue().schedule_at(us(100.0 + 200.0 * i), [&dev_a, &frames, i] {
      ASSERT_TRUE(dev_a.send(frames[static_cast<std::size_t>(i)]));
    });
  }
  sim.run(us(50000.0));

  EthRun out;
  while (const auto d = dev_a.poll(ep_a)) {
    const std::uint8_t* p = d->len ? a.mem(d->addr, d->len) : nullptr;
    out.replies.push_back(fnv1a(p, d->len));
  }
  std::sort(out.replies.begin(), out.replies.end());
  const std::uint8_t* p = b.mem(ctr_addr, 4);
  out.counter = static_cast<std::uint32_t>(p[0]) |
                (static_cast<std::uint32_t>(p[1]) << 8) |
                (static_cast<std::uint32_t>(p[2]) << 16) |
                (static_cast<std::uint32_t>(p[3]) << 24);
  out.tax = taxonomy_of(ash_sys.stats(0));
  if (nic != nullptr) {
    const auto t = nic->totals();
    out.nic_offered = t.offered;
    out.nic_executed = t.nic_executed;
    out.nic_punted = t.punted;
    out.nic_replies = t.replies;
    EXPECT_EQ(t.offered, t.nic_executed + t.punted + t.dropped);
    for (std::size_t q = 0; q < nic->queues(); ++q) {
      EXPECT_EQ(nic->depth(q), 0u) << "queue " << q;
    }
  }
  return out;
}

TEST(OffloadDiff, EthernetOffloadMatchesHostAttach) {
  const EthRun host = replay_eth(false);
  EXPECT_EQ(host.counter, 24u);
  EXPECT_EQ(host.tax.invocations, 24u);
  EXPECT_EQ(host.tax.commits, 24u);
  EXPECT_EQ(host.replies.size(), 24u);

  const EthRun nic = replay_eth(true);
  EXPECT_EQ(nic.counter, host.counter);
  EXPECT_EQ(nic.replies, host.replies);
  EXPECT_EQ(nic.tax, host.tax);
  // The window fits the single handler, nothing aborts: every frame
  // executes on-device and every echo is a device-initiated TSend.
  EXPECT_EQ(nic.nic_offered, 24u);
  EXPECT_EQ(nic.nic_executed, 24u);
  EXPECT_EQ(nic.nic_punted, 0u);
  EXPECT_EQ(nic.nic_replies, 24u);
}

}  // namespace
}  // namespace ash::net

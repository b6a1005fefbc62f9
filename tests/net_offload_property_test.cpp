// Punt-path property test: randomized fitting / oversized / faulting /
// upcalling handlers across 4 offload queues, seeded traffic, and three
// pinned invariants:
//
//  1. Conservation — per NIC queue and in total, at quiescence:
//     offered == nic_executed + punted + dropped, punted == sum of the
//     punt-reason taxonomy, and every punt is attributable.
//  2. Canonical single run — per-handler AshStats (invocations, commits,
//     abort taxonomy, execution cycles and instructions) are EQUAL to a
//     host-only replay of the same corpus: the handler ran exactly once
//     per message through the same machinery, wherever it ran.
//  3. Tenant cycle conservation extends to NIC-executed cycles — each
//     owner's TenantScheduler ledger equals the sum of its handlers'
//     AshStats cycles, with offload on or off.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/tenant.hpp"
#include "net/an2.hpp"
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

constexpr int kVcs = 6;           // all ASH-attached, 3 per owner
constexpr int kVcsPerOwner = 3;
constexpr int kBufsPerVc = 130;
constexpr std::uint32_t kWindow = 16u * 1024;

enum class Kind : std::uint8_t { Inc, Upcall, Fault, Oversized };

/// Always hands the message back to the host (the "request host services"
/// handler): a voluntary abort, i.e. a HostService punt on the device.
vcode::Program make_upcall() {
  vcode::Builder b;
  b.abort(5);
  return b.take();
}

/// Faults with DivideByZero iff the first message word is zero — a data-
/// dependent involuntary abort, so one handler produces both commits and
/// Fault punts within a single corpus.
vcode::Program make_div_by_word0() {
  vcode::Builder b;
  const vcode::Reg v = b.reg();
  const vcode::Reg q = b.reg();
  b.lw(v, vcode::kRegArg0, 0);
  b.divu(q, vcode::kRegArg1, v);
  b.movi(vcode::kRegArg0, 1);
  b.halt();
  return b.take();
}

/// Functionally a counter handler, padded far past the NIC memory window:
/// it must stay host-resident and every frame for it must be a counted
/// NotResident punt (still executing normally, on the host).
vcode::Program make_oversized() {
  vcode::Builder b;
  for (int i = 0; i < 2100; ++i) b.nop();
  const vcode::Reg v = b.reg();
  b.lw(v, vcode::kRegArg2, 0);
  b.addiu(v, v, 1);
  b.sw(v, vcode::kRegArg2, 0);
  b.movi(vcode::kRegArg0, 1);
  b.halt();
  return b.take();
}

vcode::Program make_program(Kind k) {
  switch (k) {
    case Kind::Inc: return ashlib::make_remote_increment();
    case Kind::Upcall: return make_upcall();
    case Kind::Fault: return make_div_by_word0();
    case Kind::Oversized: return make_oversized();
  }
  return ashlib::make_remote_increment();
}

struct CorpusMsg {
  sim::Cycles at;
  int vc;
  std::vector<std::uint8_t> bytes;
};

std::vector<CorpusMsg> make_corpus(std::uint64_t seed, Kind kinds[kVcs]) {
  util::Rng rng(seed);
  for (int v = 0; v < kVcs; ++v) {
    kinds[v] = static_cast<Kind>(rng.below(4));
  }
  std::vector<CorpusMsg> corpus;
  sim::Cycles t = us(100.0);
  const std::size_t n = 180 + rng.below(60);
  for (std::size_t m = 0; m < n; ++m) {
    if (rng.below(3) != 0) t += static_cast<sim::Cycles>(rng.below(400));
    CorpusMsg msg;
    msg.at = t;
    msg.vc = static_cast<int>(rng.below(kVcs));
    msg.bytes.resize(8);
    for (auto& b : msg.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    // Word 0 zero with probability 1/3: the Fault handler's trigger.
    if (rng.below(3) == 0) {
      msg.bytes[0] = msg.bytes[1] = msg.bytes[2] = msg.bytes[3] = 0;
    }
    corpus.push_back(std::move(msg));
  }
  return corpus;
}

struct Taxonomy {
  std::uint64_t invocations, commits, vaborts, iaborts, cycles, insns;
  std::array<std::uint64_t, vcode::kOutcomeCount> by_outcome;
  bool operator==(const Taxonomy&) const = default;
};

struct RunResult {
  Taxonomy tax[kVcs];
  bool resident[kVcs] = {false, false, false, false, false, false};
  std::uint64_t ledger[2] = {0, 0};       // TenantScheduler cycles_charged
  std::uint64_t stats_cycles[2] = {0, 0};  // sum of owned AshStats cycles
  NicProcessor::QueueStats nic;            // totals (zero when host-only)
};

RunResult replay(const std::vector<CorpusMsg>& corpus,
                 const Kind kinds[kVcs], bool offload) {
  Simulator sim;
  Node& a = sim.add_node("client");
  // The stats-parity invariant is about execution identity, not about
  // conflict evictions: host and offload runs interleave handler
  // executions differently, and a 64 KB direct-mapped cache turns that
  // reordering into a handful of extra/fewer 12-cycle conflict misses.
  // A cache wider than the node's touched address span (segments are
  // 1 MB, two tenants) leaves only cold + DMA-invalidation misses, which
  // depend on the corpus alone — so exact cycle equality is a true
  // invariant and any deviation is a real double-run or mischarge.
  sim::NodeConfig server_cfg;
  server_cfg.cache.size_bytes = 8u * 1024 * 1024;
  Node& b = sim.add_node("server", server_cfg);
  An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash_sys(b);

  core::TenantSchedulerConfig tc;
  tc.quantum_per_weight = 1ull << 40;  // never defer: parity needs runs
  tc.rx_quota_frames = 0;              // unlimited occupancy
  core::TenantScheduler tenants(b, tc);
  ash_sys.set_tenants(&tenants);

  RxQueueSet::Config qc;
  qc.queues = 4;
  qc.coalesce.enabled = true;
  qc.coalesce.max_frames = 4;
  qc.coalesce.max_delay = us(30.0);
  qc.quota = &tenants;
  RxQueueSet rxq(b, qc);
  dev_b.set_rx_queues(&rxq);

  std::unique_ptr<NicProcessor> nic;
  if (offload) {
    NicConfig nc;
    nc.units_per_queue = 4;
    nc.mem_window_bytes = kWindow;
    nic = std::make_unique<NicProcessor>(b, rxq, nc);
    dev_b.set_nic(nic.get());
  }

  auto out = std::make_unique<RunResult>();
  std::uint32_t owner_pid[2] = {0, 0};
  int ash_ids[kVcs] = {-1, -1, -1, -1, -1, -1};

  // Two tenants, three VCs each; every VC gets its own handler instance
  // so AshStats are attributable per (owner, kind).
  for (int o = 0; o < 2; ++o) {
    b.kernel().spawn(o == 0 ? "tenant0" : "tenant1",
                     [&, o](Process& self) -> Task {
      owner_pid[o] = self.pid();
      for (int i = 0; i < kVcsPerOwner; ++i) {
        const int v = o * kVcsPerOwner + i;
        const int vc = dev_b.bind_vc(self);
        EXPECT_EQ(vc, v);
        for (int j = 0; j < kBufsPerVc; ++j) {
          dev_b.supply_buffer(
              vc,
              self.segment().base +
                  64u * static_cast<std::uint32_t>(i * kBufsPerVc + j),
              64);
        }
        core::AshOptions opts;
        std::string error;
        const int id =
            ash_sys.download(self, make_program(kinds[v]), opts, &error);
        EXPECT_GE(id, 0) << error;
        ash_ids[v] = id;
        const std::uint32_t ctr =
            self.segment().base + 0x80000 + 0x100u * static_cast<unsigned>(i);
        out->resident[v] = ash_sys.offload(dev_b, vc, id, ctr);
        if (offload) {
          EXPECT_EQ(out->resident[v], kinds[v] != Kind::Oversized)
              << "vc " << v;
        } else {
          EXPECT_FALSE(out->resident[v]);
        }
      }
      co_await self.sleep_for(us(1e6));
    });
  }

  a.kernel().spawn("client", [&](Process& self) -> Task {
    for (int v = 0; v < kVcs; ++v) {
      dev_a.bind_vc(self);
      for (int j = 0; j < kBufsPerVc; ++j) {
        dev_a.supply_buffer(
            v,
            self.segment().base +
                64u * static_cast<std::uint32_t>(v * kBufsPerVc + j),
            64);
      }
    }
    co_await self.sleep_for(us(1e6));
  });

  for (const CorpusMsg& m : corpus) {
    sim.queue().schedule_at(m.at, [&dev_a, &m] {
      ASSERT_TRUE(dev_a.send(m.vc, m.bytes));
    });
  }
  sim.run(us(60000.0));

  for (int v = 0; v < kVcs; ++v) {
    EXPECT_EQ(dev_b.drops(v), 0u) << "server vc " << v;
    const core::AshStats& s = ash_sys.stats(ash_ids[v]);
    out->tax[v] = {s.invocations, s.commits,          s.voluntary_aborts,
                   s.involuntary_aborts, s.cycles, s.insns, s.by_outcome};
    out->stats_cycles[v / kVcsPerOwner] += s.cycles;
  }
  for (int o = 0; o < 2; ++o) {
    out->ledger[o] = tenants.cycles_charged(owner_pid[o]);
  }
  if (nic != nullptr) {
    out->nic = nic->totals();
    for (std::size_t q = 0; q < nic->queues(); ++q) {
      EXPECT_EQ(nic->depth(q), 0u) << "nic queue " << q;
      const auto& s = nic->stats(q);
      EXPECT_EQ(s.offered, s.nic_executed + s.punted + s.dropped)
          << "nic queue " << q;
      EXPECT_EQ(s.punted, s.by_punt_reason[0] + s.by_punt_reason[1] +
                              s.by_punt_reason[2])
          << "nic queue " << q;
      EXPECT_EQ(s.dropped, s.overflow_drops + s.quota_drops);
    }
  }
  return *out;
}

TEST(OffloadPunt, ConservationStatsParityAndTenantLedger) {
  const std::uint64_t seeds[] = {101, 202, 303, 404, 505, 606};
  for (const std::uint64_t seed : seeds) {
    Kind kinds[kVcs];
    const auto corpus = make_corpus(seed, kinds);
    std::map<int, std::uint64_t> offered;
    for (const auto& m : corpus) ++offered[m.vc];
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);

    const RunResult host = replay(corpus, kinds, /*offload=*/false);
    const RunResult nic = replay(corpus, kinds, /*offload=*/true);

    // (2) Canonical single run: per-handler outcome taxonomy, execution
    // cycles and instruction counts are equal host vs offload.
    std::uint64_t want_exec = 0, want_host_service = 0, want_fault = 0;
    std::uint64_t want_not_resident = 0, want_offered = 0;
    for (int v = 0; v < kVcs; ++v) {
      SCOPED_TRACE(::testing::Message()
                   << "vc " << v << " kind "
                   << static_cast<int>(kinds[v]));
      EXPECT_EQ(nic.tax[v], host.tax[v]);
      EXPECT_EQ(host.tax[v].invocations, offered[v]);
      want_offered += offered[v];
      if (nic.resident[v]) {
        want_exec += host.tax[v].commits;
        want_host_service += host.tax[v].vaborts;
        want_fault += host.tax[v].iaborts;
      } else {
        want_not_resident += offered[v];
      }
    }

    // (1) Conservation, plus full punt attribution against the host-run
    // ground truth (no drops were configured to occur).
    EXPECT_EQ(nic.nic.offered, want_offered);
    EXPECT_EQ(nic.nic.dropped, 0u);
    EXPECT_EQ(nic.nic.nic_executed, want_exec);
    EXPECT_EQ(nic.nic.by_punt_reason[static_cast<std::size_t>(
                  PuntReason::NotResident)],
              want_not_resident);
    EXPECT_EQ(nic.nic.by_punt_reason[static_cast<std::size_t>(
                  PuntReason::HostService)],
              want_host_service);
    EXPECT_EQ(nic.nic.by_punt_reason[static_cast<std::size_t>(
                  PuntReason::Fault)],
              want_fault);
    EXPECT_EQ(nic.nic.offered,
              nic.nic.nic_executed + nic.nic.punted + nic.nic.dropped);

    // (3) Tenant cycle conservation: the scheduler's ledger equals the
    // sum of the owner's AshStats cycles — NIC-executed runs included.
    for (int o = 0; o < 2; ++o) {
      EXPECT_EQ(host.ledger[o], host.stats_cycles[o]) << "owner " << o;
      EXPECT_EQ(nic.ledger[o], nic.stats_cycles[o]) << "owner " << o;
      EXPECT_EQ(nic.ledger[o], host.ledger[o]) << "owner " << o;
    }
  }
}

}  // namespace
}  // namespace ash::net

// Differential replay of a seeded fuzz corpus through every receive
// configuration (ISSUE 5): inline, single-queue coalescing-off, and two
// multi-queue/coalescing shapes. Steering may reorder deliveries across
// queues, but the delivered message *set* — payload digests and
// per-channel counts, on both the plain notification-ring path and the
// ASH-attached reply path — must be identical: no drop, no duplicate, no
// corruption. Same seeds as the packetfuzz corpus targets (1001..1007
// per-parser, 2001/4001/6001 the cross-target sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "net/an2.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

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

/// One corpus message: arrival-schedule offset, target VC, payload.
struct CorpusMsg {
  sim::Cycles at;
  int vc;
  std::vector<std::uint8_t> bytes;
};

/// The corpus for one seed: bursty arrivals (zero-gap trains mixed with
/// idle stretches), mixed lengths including zero-length frames on the
/// ring VCs, fixed-size increment requests on the ASH VCs.
std::vector<CorpusMsg> make_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CorpusMsg> corpus;
  sim::Cycles t = us(100.0);
  const std::size_t n = 90 + rng.below(40);
  for (std::size_t m = 0; m < n; ++m) {
    // ~1/3 of messages extend a zero-gap burst; the rest space out.
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

struct RxConfigCase {
  const char* name;
  std::size_t queues;  // 0 = inline path (no RxQueueSet)
  bool coalesce;
  bool adaptive;
};

constexpr RxConfigCase kCases[] = {
    {"inline", 0, false, false},
    {"1q-off", 1, false, false},
    {"2q-coalesce", 2, true, false},
    {"4q-adaptive", 4, true, true},
};

/// What one replay delivered, as order-insensitive multisets.
struct Delivered {
  // Plain VCs: sorted payload digests + counts from the server's rings.
  std::map<int, std::vector<std::uint64_t>> ring;
  // ASH VCs: sorted reply digests seen at the client, plus any messages
  // that fell back to the server ring (still part of the delivered set).
  std::map<int, std::vector<std::uint64_t>> replies;
  std::map<int, std::vector<std::uint64_t>> fallback;
  std::uint32_t counters[2] = {0, 0};
};

Delivered replay(const std::vector<CorpusMsg>& corpus,
                 const RxConfigCase& cfg) {
  Simulator sim;
  Node& a = sim.add_node("client");
  Node& b = sim.add_node("server");
  An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash_sys(b);

  std::unique_ptr<RxQueueSet> rxq;
  if (cfg.queues > 0) {
    RxQueueSet::Config qc;
    qc.queues = cfg.queues;
    qc.coalesce.enabled = cfg.coalesce;
    qc.coalesce.max_frames = 4;
    qc.coalesce.max_delay = us(30.0);
    qc.coalesce.adaptive = cfg.adaptive;
    rxq = std::make_unique<RxQueueSet>(b, qc);
    dev_b.set_rx_queues(rxq.get());
  }

  std::uint32_t ctr_addr[2] = {0, 0};
  b.kernel().spawn("server", [&](Process& self) -> Task {
    core::AshOptions opts;
    std::string error;
    const int id = ash_sys.download(self, ashlib::make_remote_increment(),
                                    opts, &error);
    EXPECT_GE(id, 0) << error;
    for (int v = 0; v < kVcs; ++v) {
      const int vc = dev_b.bind_vc(self);
      for (int i = 0; i < kBufsPerVc; ++i) {
        // Unique address per buffer so a corrupting double-delivery
        // cannot hide behind reuse.
        dev_b.supply_buffer(
            vc,
            self.segment().base +
                64u * static_cast<std::uint32_t>(v * kBufsPerVc + i),
            64);
      }
      if (v >= kFirstAshVc) {
        ctr_addr[v - kFirstAshVc] =
            self.segment().base + 0x80000 + 0x100u * (v - kFirstAshVc);
        ash_sys.attach(dev_b, vc, id, ctr_addr[v - kFirstAshVc]);
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
    // Drain the server-side notification ring (poll is free).
    while (const auto d = dev_b.poll(v)) {
      const std::uint8_t* p = d->len ? b.mem(d->addr, d->len) : nullptr;
      const std::uint64_t h = fnv1a(p, d->len);
      (v >= kFirstAshVc ? out.fallback[v] : out.ring[v]).push_back(h);
    }
    // Drain ASH replies at the client.
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
  }
  for (auto* m : {&out.ring, &out.replies, &out.fallback}) {
    for (auto& [vc, v] : *m) std::sort(v.begin(), v.end());
  }
  return out;
}

TEST(RxQueueDiff, CorpusDeliverySetIsIdenticalAcrossConfigs) {
  const std::uint64_t seeds[] = {1001, 1002, 1003, 1004, 1005,
                                 1006, 1007, 2001, 4001, 6001};
  for (const std::uint64_t seed : seeds) {
    const auto corpus = make_corpus(seed);
    // Expected per-VC offered counts and (plain-VC) payload digests,
    // straight from the corpus.
    std::map<int, std::vector<std::uint64_t>> want_ring;
    std::map<int, std::size_t> offered;
    for (const auto& m : corpus) {
      ++offered[m.vc];
      if (m.vc < kFirstAshVc) {
        want_ring[m.vc].push_back(fnv1a(m.bytes.data(), m.bytes.size()));
      }
    }
    for (auto& [vc, v] : want_ring) std::sort(v.begin(), v.end());

    const Delivered base = replay(corpus, kCases[0]);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    // The inline run must deliver exactly the offered set.
    EXPECT_EQ(base.ring, want_ring);
    for (int v = kFirstAshVc; v < kVcs; ++v) {
      const std::size_t got =
          (base.replies.count(v) ? base.replies.at(v).size() : 0) +
          (base.fallback.count(v) ? base.fallback.at(v).size() : 0);
      EXPECT_EQ(got, offered[v]) << "ash vc " << v;
    }

    for (std::size_t c = 1; c < std::size(kCases); ++c) {
      const Delivered got = replay(corpus, kCases[c]);
      SCOPED_TRACE(::testing::Message() << "config=" << kCases[c].name);
      EXPECT_EQ(got.ring, base.ring);
      EXPECT_EQ(got.replies, base.replies);
      EXPECT_EQ(got.fallback, base.fallback);
      EXPECT_EQ(got.counters[0], base.counters[0]);
      EXPECT_EQ(got.counters[1], base.counters[1]);
    }
  }
}

}  // namespace
}  // namespace ash::net

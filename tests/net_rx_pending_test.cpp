// rx_pending(): the non-popping ring query that Process::spin predicates
// use. Probed at many instants, it must return the same answer twice in a
// row (it never pops) and agree with the poll() that follows, while frames
// arrive in bursts, buffers are returned or held (so the ring overflows
// into drops) and the sender's fault injector drops frames. Every frame
// sent is then accounted for: received by poll(), dropped for lack of a
// buffer, or dropped on the wire.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::net {
namespace {

using sim::Cycles;
using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

constexpr int kFrames = 96;
constexpr int kBuffers = 6;
constexpr std::uint32_t kBufLen = 2048;

/// Sends kFrames in bursts of 1-4 (with `send`), probes `pending`/`poll`
/// every 7 us, returning every other buffer it receives. Returns
/// {received, mismatches}.
template <typename Send, typename Pending, typename Poll, typename Return>
std::pair<int, int> probe(Simulator& sim, Send send, Pending pending,
                          Poll poll, Return give_back) {
  for (int i = 0, burst = 0; i < kFrames; ++burst) {
    const int n = 1 + burst % 4;
    for (int k = 0; k < n && i < kFrames; ++k, ++i) {
      sim.queue().schedule_at(us(200.0) + us(23.0) * burst, send);
    }
  }
  auto received = std::make_shared<int>(0);
  auto mismatches = std::make_shared<int>(0);
  for (int k = 0; k < 400; ++k) {
    sim.queue().schedule_at(us(200.0) + us(7.0) * k, [=] {
      const bool first = pending();
      const bool second = pending();
      const auto d = poll();
      if (first != second || first != d.has_value()) ++*mismatches;
      if (d.has_value()) {
        if (++*received % 2 == 0) give_back(*d);
        // After the pop the query reports what is left, and still agrees.
        const bool after = pending();
        const auto next = poll();
        if (after != next.has_value()) ++*mismatches;
        if (next.has_value() && ++*received % 2 == 0) give_back(*next);
      }
    });
  }
  sim.run();
  return {*received, *mismatches};
}

TEST(RxPending, An2NeverPopsAndAgreesWithPoll) {
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  An2Config cfg;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.seed = 5;
  An2Device dev_a(a, cfg), dev_b(b);
  dev_a.connect(dev_b);
  int vc = -1;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    vc = dev_b.bind_vc(self);
    for (int i = 0; i < kBuffers; ++i) {
      dev_b.supply_buffer(vc, self.segment().base + kBufLen * i, kBufLen);
    }
    co_return;
  });
  sim.run(us(100.0));
  ASSERT_EQ(vc, 0);
  const std::vector<std::uint8_t> msg(64, 0x5a);
  const auto [received, mismatches] = probe(
      sim, [&] { dev_a.send(vc, msg); }, [&] { return dev_b.rx_pending(vc); },
      [&] { return dev_b.poll(vc); },
      [&](const RxDesc& d) { dev_b.return_buffer(vc, d.addr, kBufLen); });
  EXPECT_EQ(mismatches, 0);
  const std::uint64_t wire_drops = dev_a.fault_counters().drops;
  EXPECT_GT(wire_drops, 0u);
  EXPECT_GT(dev_b.drops(vc), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + dev_b.drops(vc) + wire_drops,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_FALSE(dev_b.rx_pending(vc));
}

TEST(RxPending, EthernetNeverPopsAndAgreesWithPoll) {
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  EthernetConfig cfg;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.seed = 5;
  EthernetDevice dev_a(a, cfg), dev_b(b);
  dev_a.connect(dev_b);
  int ep = -1;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    dpf::Filter f;
    f.atoms = {dpf::atom_be16(12, 0x0800)};
    ep = dev_b.attach(self, f);
    for (int i = 0; i < kBuffers; ++i) {
      dev_b.supply_buffer(ep, self.segment().base + kBufLen * i, kBufLen);
    }
    co_return;
  });
  sim.run(us(100.0));
  ASSERT_GE(ep, 0);
  std::vector<std::uint8_t> frame(64, 0x5a);
  frame[12] = 0x08;
  frame[13] = 0x00;
  const auto [received, mismatches] = probe(
      sim, [&] { dev_a.send(frame); }, [&] { return dev_b.rx_pending(ep); },
      [&] { return dev_b.poll(ep); },
      [&](const RxDesc& d) { dev_b.return_buffer(ep, d.addr, kBufLen); });
  EXPECT_EQ(mismatches, 0);
  const std::uint64_t wire_drops = dev_a.fault_counters().drops;
  EXPECT_GT(wire_drops, 0u);
  EXPECT_GT(dev_b.drops(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + dev_b.drops() + wire_drops,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_FALSE(dev_b.rx_pending(ep));
}

}  // namespace
}  // namespace ash::net

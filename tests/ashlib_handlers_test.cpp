#include "ashlib/handlers.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/ash.hpp"
#include "sandbox/sfi.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"

namespace ash::ashlib {
namespace {

/// Poll a device VC for a reply with a deadline. A named function, not a
/// lambda: coroutine lambdas must outlive their frames (see sim/task.hpp).
sim::Sub<std::optional<net::RxDesc>> poll_reply(sim::Process& self,
                                                net::An2Device& dev, int vc,
                                                sim::Cycles timeout) {
  const sim::Cycles deadline = self.node().now() + timeout;
  for (;;) {
    if (auto got = dev.poll(vc)) co_return got;
    if (self.node().now() >= deadline) co_return std::nullopt;
    co_await self.compute(self.node().cost().poll_iteration);
  }
}

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

struct World {
  Simulator sim;
  Node* a;
  Node* b;
  net::An2Device* dev_a;
  net::An2Device* dev_b;
  core::AshSystem* ash_b;

  World() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new net::An2Device(*a);
    dev_b = new net::An2Device(*b);
    dev_a->connect(*dev_b);
    ash_b = new core::AshSystem(*b);
  }
  ~World() {
    delete ash_b;
    delete dev_a;
    delete dev_b;
  }

  /// Spawn a server process on b that downloads `prog` (per opts), attaches
  /// it with `user_arg` resolved via `make_arg(proc)`, then sleeps.
  template <typename MakeArg>
  void serve(const vcode::Program& prog, const core::AshOptions& opts,
             MakeArg make_arg, int* ash_id_out) {
    b->kernel().spawn("owner", [this, prog, opts, make_arg,
                                ash_id_out](Process& self) -> Task {
      const int vc = dev_b->bind_vc(self);
      for (int i = 0; i < 8; ++i) {
        dev_b->supply_buffer(
            vc, self.segment().base + 256u * static_cast<std::uint32_t>(i),
            256);
      }
      std::string error;
      const int id = ash_b->download(self, prog, opts, &error);
      EXPECT_GE(id, 0) << error;
      if (ash_id_out != nullptr) *ash_id_out = id;
      ash_b->attach(*dev_b, vc, id, make_arg(self));
      co_await self.sleep_for(us(200000.0));
    });
  }

  /// Send raw messages from a and collect replies.
  void client(std::vector<std::vector<std::uint8_t>> msgs,
              std::vector<std::vector<std::uint8_t>>* replies) {
    a->kernel().spawn("client", [this, msgs = std::move(msgs),
                                 replies](Process& self) -> Task {
      const int vc = dev_a->bind_vc(self);
      for (int i = 0; i < 8; ++i) {
        dev_a->supply_buffer(
            vc, self.segment().base + 256u * static_cast<std::uint32_t>(i),
            256);
      }
      co_await self.sleep_for(us(500.0));
      for (const auto& m : msgs) {
        co_await self.syscall(dev_a->config().tx_kernel_work);
        dev_a->send(0, m);
        const auto d = co_await poll_reply(self, *dev_a, vc, us(50000.0));
        if (replies != nullptr) {
          if (d.has_value()) {
            const std::uint8_t* p = a->mem(d->addr, d->len);
            replies->emplace_back(p, p + d->len);
            dev_a->return_buffer(vc, d->addr, 256);
          } else {
            replies->emplace_back();  // timeout marker
          }
        }
      }
    });
  }
};

std::vector<std::uint8_t> words(std::initializer_list<std::uint32_t> ws) {
  std::vector<std::uint8_t> out(4 * ws.size());
  std::size_t i = 0;
  for (std::uint32_t w : ws) {
    util::store_u32(out.data() + 4 * i++, w);
  }
  return out;
}

TEST(Handlers, RemoteIncrementSandboxedEndToEnd) {
  World w;
  int id = -1;
  std::uint32_t ctr_addr = 0;
  std::vector<std::vector<std::uint8_t>> replies;
  w.serve(make_remote_increment(), {},
          [&](Process& self) {
            ctr_addr = self.segment().base + 0x3000;
            return ctr_addr;
          },
          &id);
  w.client({words({7}), words({8}), words({9})}, &replies);
  w.sim.run();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], words({7}));  // echo
  EXPECT_EQ(util::load_u32(w.b->mem(ctr_addr, 4)), 3u);
  EXPECT_EQ(w.ash_b->stats(id).commits, 3u);
  // The paper's instruction-count regime: tens of instructions per
  // invocation, not thousands.
  EXPECT_LT(w.ash_b->stats(id).insns / 3, 400u);
}

TEST(Handlers, RemoteIncrementRejectsShortMessage) {
  World w;
  int id = -1;
  w.serve(make_remote_increment(), {},
          [&](Process& self) { return self.segment().base + 0x3000; }, &id);
  w.client({{1, 2}}, nullptr);  // 2-byte runt
  w.sim.run();
  EXPECT_EQ(w.ash_b->stats(id).voluntary_aborts, 1u);
  EXPECT_EQ(w.ash_b->stats(id).commits, 0u);
}

TEST(Handlers, RemoteWriteSpecificWritesPayload) {
  World w;
  int id = -1;
  std::uint32_t dst = 0;
  w.serve(make_remote_write_specific(), {},
          [&](Process& self) {
            dst = self.segment().base + 0x4000;
            return self.segment().base;
          },
          &id);
  // The message carries the destination pointer (trusted-peer protocol);
  // the owner is the first process on node b, so its segment base is
  // one kSegmentSize.
  auto msg = words({sim::Kernel::kSegmentSize + 0x4000, 0x11223344u,
                    0x55667788u});
  w.client({msg}, nullptr);
  w.sim.run();
  EXPECT_EQ(w.ash_b->stats(id).commits, 1u);
  EXPECT_EQ(util::load_u32(w.b->mem(dst, 4)), 0x11223344u);
  EXPECT_EQ(util::load_u32(w.b->mem(dst + 4, 4)), 0x55667788u);
}

TEST(Handlers, RemoteWriteSpecificCannotEscapeSegment) {
  World w;
  int id = -1;
  w.serve(make_remote_write_specific(), {},
          [&](Process& self) { return self.segment().base; }, &id);
  // Destination in the kernel area below every process segment:
  // TUserCopy must refuse, and the handler aborts.
  const std::uint32_t evil = 0x9000;
  w.client({words({evil, 0xdeadbeefu})}, nullptr);
  w.sim.run();
  EXPECT_EQ(w.ash_b->stats(id).commits, 0u);
  EXPECT_EQ(w.ash_b->stats(id).voluntary_aborts, 1u);
  EXPECT_EQ(util::load_u32(w.b->mem(evil, 4)), 0u);
}

TEST(Handlers, RemoteWriteGenericTranslatesAndBoundsChecks) {
  World w;
  int id = -1;
  std::uint32_t table = 0, region = 0;
  w.serve(make_remote_write_generic(), {},
          [&](Process& self) {
            table = self.segment().base + 0x100;
            region = self.segment().base + 0x8000;
            // table: n=2, seg0 = {region, 64}, seg1 = {region+0x100, 16}
            util::store_u32(w.b->mem(table, 4), 2);
            util::store_u32(w.b->mem(table + 4, 4), region);
            util::store_u32(w.b->mem(table + 8, 4), 64);
            util::store_u32(w.b->mem(table + 12, 4), region + 0x100);
            util::store_u32(w.b->mem(table + 16, 4), 16);
            return table;
          },
          &id);
  std::vector<std::vector<std::uint8_t>> msgs;
  // Valid: seg 0, offset 8, size 8.
  msgs.push_back(words({0, 8, 8, 0xaaaaaaaau, 0xbbbbbbbbu}));
  // Invalid segment number.
  msgs.push_back(words({5, 0, 4, 0x11111111u}));
  // Overflow: offset+size beyond limit of seg 1.
  msgs.push_back(words({1, 12, 8, 0x22222222u, 0x33333333u}));
  // Size larger than the message payload.
  msgs.push_back(words({0, 0, 64, 0x44444444u}));
  w.client(std::move(msgs), nullptr);
  w.sim.run();
  EXPECT_EQ(w.ash_b->stats(id).commits, 1u);
  EXPECT_EQ(w.ash_b->stats(id).voluntary_aborts, 3u);
  EXPECT_EQ(util::load_u32(w.b->mem(region + 8, 4)), 0xaaaaaaaau);
  EXPECT_EQ(util::load_u32(w.b->mem(region + 12, 4)), 0xbbbbbbbbu);
  EXPECT_EQ(util::load_u32(w.b->mem(region + 0x100 + 12, 4)), 0u);
}

TEST(Handlers, ActiveMessageDispatcherJumpsThroughSandbox) {
  World w;
  int id = -1;
  std::uint32_t cell = 0;
  w.serve(make_active_message_dispatcher(4), {},
          [&](Process& self) {
            cell = self.segment().base + 0x2000;
            return cell;
          },
          &id);
  // Invoke handlers 2, 0, 3: cell += 3 + 1 + 4 = 8.
  w.client({words({2}), words({0}), words({3}), words({99})}, nullptr);
  w.sim.run();
  EXPECT_EQ(w.ash_b->stats(id).commits, 3u);
  EXPECT_EQ(w.ash_b->stats(id).voluntary_aborts, 1u);  // index 99
  EXPECT_EQ(util::load_u32(w.b->mem(cell, 4)), 8u);
  // The downloaded program really is sandboxed with an indirect map.
  EXPECT_TRUE(w.ash_b->program(id).sandboxed);
  EXPECT_GE(w.ash_b->program(id).indirect_map.size(), 4u);
}

TEST(Handlers, DsmLockAcquireBusyRelease) {
  World w;
  int id = -1;
  std::uint32_t locks = 0;
  std::vector<std::vector<std::uint8_t>> replies;
  w.serve(make_dsm_lock_handler(8), {},
          [&](Process& self) {
            locks = self.segment().base + 0x1000;
            return locks;
          },
          &id);
  w.client(
      {
          words({1, 3, 42}),  // acquire lock 3 as node 42 -> granted
          words({1, 3, 43}),  // acquire as 43 -> busy
          words({2, 3, 42}),  // release by 42 -> released
          words({1, 3, 43}),  // now 43 gets it
      },
      &replies);
  w.sim.run();
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(util::load_u32(replies[0].data()), 1u);  // granted
  EXPECT_EQ(util::load_u32(replies[1].data()), 0u);  // busy
  EXPECT_EQ(util::load_u32(replies[2].data()), 2u);  // released
  EXPECT_EQ(util::load_u32(replies[3].data()), 1u);  // granted
  EXPECT_EQ(util::load_u32(w.b->mem(locks + 12, 4)), 43u);
}

TEST(Handlers, AllBuildersProduceSandboxablePrograms) {
  sandbox::Options opts;
  opts.segment = {0x100000, 0x100000};
  for (const auto& prog :
       {make_remote_increment(), make_remote_write_specific(),
        make_remote_write_generic(), make_active_message_dispatcher(8),
        make_dsm_lock_handler(16)}) {
    std::string error;
    const auto boxed = sandbox::sandbox(prog, opts, &error);
    EXPECT_TRUE(boxed.has_value()) << error;
  }
}

}  // namespace
}  // namespace ash::ashlib

// Cross-cutting coverage: timed channel waits, striped DILP loops,
// serialization of sandboxed programs, software-budget ASHs, pre-bound
// translation, and livelock-quota window refresh.
#include <gtest/gtest.h>

#include <cstring>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/ash_env.hpp"
#include "dilp/engine.hpp"
#include "dilp/stdpipes.hpp"
#include "sim/kernel.hpp"
#include "sim/memops.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "vcode/env_util.hpp"

namespace ash {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;
using sim::WaitChannel;

TEST(WaitChannelTimed, TimesOutWhenNothingArrives) {
  Simulator s;
  Node& node = s.add_node("n");
  WaitChannel ch;
  bool got = true;
  sim::Cycles woke = 0;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    got = co_await ch.wait_for(self, us(1000.0));
    woke = self.node().now();
  });
  s.run();
  EXPECT_FALSE(got);
  EXPECT_GE(woke, us(1000.0));
  EXPECT_LT(woke, us(1200.0));
}

TEST(WaitChannelTimed, TokenBeforeWaitReturnsImmediately) {
  Simulator s;
  Node& node = s.add_node("n");
  WaitChannel ch;
  ch.notify();
  bool got = false;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    got = co_await ch.wait_for(self, us(1000.0));
  });
  s.run();
  EXPECT_TRUE(got);
}

TEST(WaitChannelTimed, NotifyBeatsTimeout) {
  Simulator s;
  Node& node = s.add_node("n");
  WaitChannel ch;
  bool got = false;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    got = co_await ch.wait_for(self, us(10000.0));
  });
  s.queue().schedule_at(us(500.0), [&] { ch.notify(); });
  s.run();
  EXPECT_TRUE(got);
}

TEST(WaitChannelTimed, TimeoutDoesNotCorruptLaterWaits) {
  Simulator s;
  Node& node = s.add_node("n");
  WaitChannel ch;
  int rounds = 0;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    const bool first = co_await ch.wait_for(self, us(500.0));
    EXPECT_FALSE(first);
    ++rounds;
    const bool second = co_await ch.wait_for(self, us(50000.0));
    EXPECT_TRUE(second);
    ++rounds;
  });
  s.queue().schedule_at(us(2000.0), [&] { ch.notify(); });
  s.run();
  EXPECT_EQ(rounds, 2);
}

TEST(DilpStriped, FusedLoopReadsStripedSource) {
  // Compile a checksum|copy loop with the Ethernet striped-source layout
  // and verify it destripes correctly with the right checksum.
  sim::Simulator s;
  sim::Node& node = s.add_node("n");
  dilp::Engine engine;
  dilp::PipeList pl;
  pl.add(dilp::make_cksum_pipe(nullptr));
  std::string error;
  dilp::LoopLayout layout;
  layout.src_stripe_chunk = 16;
  const int id =
      engine.register_ilp(pl, dilp::Direction::Read, &error, layout);
  ASSERT_GE(id, 0) << error;

  // Stage 64 logical bytes striped at 0x1000; destination 0x3000.
  util::Rng rng(5);
  std::vector<std::uint8_t> logical(64);
  for (auto& b : logical) b = static_cast<std::uint8_t>(rng.next());
  std::uint8_t* striped = node.mem(0x1000, 128);
  std::memset(striped, 0xee, 128);
  for (int i = 0; i < 64; ++i) {
    striped[(i / 16) * 32 + (i % 16)] = logical[static_cast<std::size_t>(i)];
  }

  class Env final : public vcode::Env {
   public:
    explicit Env(sim::Node& n) : n_(n) {}
    bool mem_read(std::uint32_t a, void* d, std::uint32_t l) override {
      const auto* p = n_.mem(a, l);
      if (!p) return false;
      std::memcpy(d, p, l);
      return true;
    }
    bool mem_write(std::uint32_t a, const void* s, std::uint32_t l) override {
      auto* p = n_.mem(a, l);
      if (!p) return false;
      std::memcpy(p, s, l);
      return true;
    }

   private:
    sim::Node& n_;
  } env(node);

  std::vector<std::uint32_t> persist;
  const std::uint32_t seed[] = {0};
  const auto r = engine.run(id, env, 0x1000, 0x3000, 64, seed, &persist);
  ASSERT_TRUE(r.ok()) << vcode::to_string(r.exec.outcome);
  const std::uint8_t* out = node.mem(0x3000, 64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(out[i], logical[static_cast<std::size_t>(i)]) << i;
  }
  // Accumulator == checksum of the logical bytes.
  std::uint32_t acc = 0;
  for (int i = 0; i < 64; i += 4) {
    acc = util::cksum32_accumulate(acc,
                                   util::load_u32(logical.data() + i));
  }
  ASSERT_EQ(persist.size(), 1u);
  EXPECT_EQ(persist[0], acc);
}

TEST(SandboxedProgramSerialization, RoundTripsIndirectMap) {
  vcode::Builder b;
  const vcode::Reg t = b.reg();
  vcode::Label target = b.label();
  b.movi(t, 2);
  b.jr(t);
  b.bind(target);
  b.mark_indirect(target);
  b.halt();
  sandbox::Options opts;
  opts.segment = {0x100000, 0x100000};
  std::string error;
  const auto boxed = sandbox::sandbox(b.take(), opts, &error);
  ASSERT_TRUE(boxed.has_value()) << error;
  ASSERT_FALSE(boxed->program.indirect_map.empty());
  EXPECT_TRUE(boxed->program.sandboxed);

  const auto bytes = boxed->program.serialize();
  const auto back = vcode::Program::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, boxed->program);
}

struct AshWorld {
  Simulator sim;
  Node* a;
  Node* b;
  net::An2Device* dev_a;
  net::An2Device* dev_b;
  core::AshSystem* ash_b;
  AshWorld() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new net::An2Device(*a);
    dev_b = new net::An2Device(*b);
    dev_a->connect(*dev_b);
    ash_b = new core::AshSystem(*b);
  }
  ~AshWorld() {
    delete ash_b;
    delete dev_a;
    delete dev_b;
  }
};

TEST(AshOptionsCoverage, SoftwareBudgetModeStopsRunaways) {
  AshWorld w;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    w.dev_b->supply_buffer(vc, self.segment().base, 64);
    vcode::Builder bld;
    vcode::Label loop = bld.label();
    bld.bind(loop);
    bld.jmp(loop);
    core::AshOptions opts;
    opts.software_budget_checks = true;
    std::string error;
    const int id = w.ash_b->download(self, bld.take(), opts, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach(*w.dev_b, vc, id);
    co_await self.sleep_for(us(50000.0));
    EXPECT_EQ(w.ash_b->stats(id).involuntary_aborts, 1u);
  });
  w.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    w.dev_a->send(0, m);
  });
  w.sim.run();
}

TEST(AshOptionsCoverage, PreboundTranslationShavesDispatch) {
  auto kernel_cycles = [](bool prebound) {
    AshWorld w;
    w.b->kernel().spawn("owner", [&, prebound](Process& self) -> Task {
      const int vc = w.dev_b->bind_vc(self);
      w.dev_b->supply_buffer(vc, self.segment().base, 64);
      core::AshOptions opts;
      opts.prebound_translation = prebound;
      std::string error;
      const int id = w.ash_b->download(
          self, ashlib::make_remote_increment(), opts, &error);
      w.ash_b->attach(*w.dev_b, vc, id, self.segment().base + 0x100);
      co_await self.sleep_for(us(50000.0));
    });
    w.sim.queue().schedule_at(us(200.0), [&] {
      const std::uint8_t m[] = {1, 2, 3, 4};
      w.dev_a->send(0, m);
    });
    w.sim.run();
    return w.b->kernel_cycles_total();
  };
  const auto with = kernel_cycles(true);
  const auto without = kernel_cycles(false);
  EXPECT_EQ(without - with, sim::CostModel{}.ash_context_install);
}

TEST(Livelock, WindowRefreshRestoresQuota) {
  AshWorld w;
  w.ash_b->set_livelock_quota(1, us(1000.0));
  int delivered_normally = 0;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    vcode::Builder bld;
    bld.movi(vcode::kRegArg0, 1);
    bld.halt();
    std::string error;
    const int id = w.ash_b->download(self, bld.take(), {}, &error);
    w.ash_b->attach(*w.dev_b, vc, id);
    co_await self.sleep_for(us(50000.0));
    // Two messages, >1 ms apart: both within quota (window refreshed).
    EXPECT_EQ(w.ash_b->stats(id).commits, 2u);
    EXPECT_EQ(w.ash_b->stats(id).livelock_deferrals, 0u);
    while (w.dev_b->poll(vc).has_value()) ++delivered_normally;
  });
  const std::uint8_t m[] = {1, 2, 3, 4};
  w.sim.queue().schedule_at(us(200.0), [&] { w.dev_a->send(0, m); });
  w.sim.queue().schedule_at(us(2000.0), [&] { w.dev_a->send(0, m); });
  w.sim.run();
  EXPECT_EQ(delivered_normally, 0);
}

}  // namespace
}  // namespace ash

// Table V — raw round-trip times for a remote increment (microseconds),
// for a sandboxed ASH, an unsafe (not sandboxed) ASH, an upcall, and
// normal user-level communication, with the destination process either
// currently running (polling) or suspended (interrupt-driven).
#include "bench_util.hpp"

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/upcall.hpp"
#include "proto/an2_link.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using sim::Process;
using sim::Task;
using sim::us;

constexpr int kIters = 32;

enum class Mode { SandboxedAsh, UnsafeAsh, Upcall, UserLevel };

double rtt_us(Mode mode, bool suspended) {
  An2World w;
  core::AshSystem ash_sys(*w.b);
  core::UpcallManager upcalls(*w.b);
  sim::Cycles t0 = 0, t1 = 0;

  // --- server side ---
  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    if (mode == Mode::UserLevel) {
      An2Link::Config cfg;
      cfg.mode = suspended ? proto::RecvMode::Interrupt
                           : proto::RecvMode::Polling;
      An2Link link(self, *w.dev_b, cfg);
      const std::uint32_t ctr = self.segment().base + 0x100;
      for (int i = 0; i < kIters; ++i) {
        const net::RxDesc d = co_await link.recv();
        // The increment itself.
        std::uint8_t* c = self.node().mem(ctr, 4);
        c[0] = static_cast<std::uint8_t>(c[0] + 1);
        co_await self.compute(4);
        const bool sent = co_await link.send(d.addr, d.len);
        (void)sent;
        link.release(d);
      }
      co_return;
    }

    // Handler modes: the kernel does everything; the app just exists
    // (polling or suspended per the experiment's process state).
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 32; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    const std::uint32_t ctr = self.segment().base + 0x4000;
    if (mode == Mode::Upcall) {
      upcalls.attach_an2(*w.dev_b, vc,
                         [&w, ctr](const core::UpcallManager::Ctx& ctx) {
                           std::uint8_t* c = w.b->mem(ctr, 4);
                           c[0] = static_cast<std::uint8_t>(c[0] + 1);
                           const std::uint8_t* m =
                               w.b->mem(ctx.msg_addr, ctx.msg_len);
                           ctx.send(ctx.channel, {m, m + ctx.msg_len});
                           return core::UpcallManager::Result{us(1.0), true};
                         });
    } else {
      core::AshOptions opts;
      opts.sandboxed = mode == Mode::SandboxedAsh;
      std::string error;
      const int id = ash_sys.download(self, ashlib::make_remote_increment(),
                                      opts, &error);
      ash_sys.attach(*w.dev_b, vc, id, ctr);
    }
    // Process state during the experiment:
    if (suspended) {
      co_await self.sleep_for(us(1e6));
    } else {
      // Poll with nothing to find until past 900 ms; entered long before
      // then, so every check up to there charges a poll_iteration.
      co_await self.spin(self.node().cost().poll_iteration, sim::us(9e5) + 1,
                         [] { return false; });
    }
  });

  // --- client: tight user-level ping-pong ---
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    An2Link link(self, *w.dev_a, {});
    co_await self.sleep_for(us(1000.0));
    const std::uint8_t ping[] = {1, 2, 3, 4};
    t0 = self.node().now();
    for (int i = 0; i < kIters; ++i) {
      const bool sent = co_await link.send_bytes(ping);
      (void)sent;
      const net::RxDesc d = co_await link.recv();
      link.release(d);
    }
    t1 = self.node().now();
  });

  w.sim.run(us(1e6));
  return sim::to_us(t1 - t0) / kIters;
}

}  // namespace
}  // namespace ash::bench

int main() {
  using namespace ash::bench;
  const struct {
    const char* name;
    Mode mode;
    double paper_polling, paper_suspended;
  } rows_spec[] = {
      {"Unsafe ASH", Mode::UnsafeAsh, 147, 147},
      {"Sandboxed ASH", Mode::SandboxedAsh, 152, 151},
      {"Upcall", Mode::Upcall, 191, 193},
      {"User-level", Mode::UserLevel, 182, 247},
  };
  std::vector<Row> rows;
  for (const auto& spec : rows_spec) {
    rows.push_back({std::string(spec.name) + "  [currently running/polling]",
                    rtt_us(spec.mode, false), spec.paper_polling, "us/RTT"});
  }
  for (const auto& spec : rows_spec) {
    rows.push_back({std::string(spec.name) + "  [suspended/interrupts]",
                    rtt_us(spec.mode, true), spec.paper_suspended,
                    "us/RTT"});
  }
  print_table("Table V", "remote increment round-trip times", rows);
  return 0;
}

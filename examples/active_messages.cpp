// Active messages as safe kernel handlers (Section V-C).
//
// The classic active-message model runs a handler named by the message at
// the receiver, in the interrupt path — historically with no protection.
// ASHs extend that to a multiprogrammed, protected environment: the
// dispatcher below jumps through a sandboxed, translated jump table
// (Section III-B2's checked indirect jumps) to one of four handler bodies.
//
// Build & run:  ./build/examples/active_messages
#include <cstdio>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "net/an2.hpp"
#include "proto/an2_link.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

int main() {
  sim::Simulator simulator;
  sim::Node& sender = simulator.add_node("sender");
  sim::Node& receiver = simulator.add_node("receiver");
  net::An2Device nic_s(sender), nic_r(receiver);
  nic_s.connect(nic_r);
  core::AshSystem ash_system(receiver);

  constexpr std::uint32_t kHandlers = 4;
  std::uint32_t cell_addr = 0;
  int ash_id = -1;

  receiver.kernel().spawn("receiver", [&](Process& self) -> Task {
    const int vc = nic_r.bind_vc(self);
    for (int i = 0; i < 16; ++i) {
      nic_r.supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    cell_addr = self.segment().base + 0x2000;

    const vcode::Program dispatcher =
        ashlib::make_active_message_dispatcher(kHandlers);
    std::string error;
    ash_id = ash_system.download(self, dispatcher, {}, &error);
    if (ash_id < 0) {
      std::printf("download failed: %s\n", error.c_str());
      co_return;
    }
    const auto& prog = ash_system.program(ash_id);
    std::printf("dispatcher installed: %zu instructions, %zu translated "
                "indirect-jump targets\n",
                prog.insns.size(), prog.indirect_map.size());
    ash_system.attach(nic_r, vc, ash_id, cell_addr);
    co_await self.sleep_for(us(1e6));
  });

  sender.kernel().spawn("sender", [&](Process& self) -> Task {
    proto::An2Link link(self, nic_s, {});
    co_await self.sleep_for(us(500.0));
    // Invoke handler i: each handler adds (i+1) to the receiver's cell.
    // Handler index 7 is out of range: the dispatcher aborts and the
    // message falls back to the (sleeping) application.
    const std::uint32_t sequence[] = {0, 1, 2, 3, 2, 7};
    std::uint32_t expect = 0;
    for (const std::uint32_t h : sequence) {
      std::uint8_t msg[8];
      util::store_u32(msg, h);
      util::store_u32(msg + 4, 0xabad1deau);
      const bool sent = co_await link.send_bytes(msg);
      if (!sent) co_return;
      if (h < kHandlers) {
        expect += h + 1;
        const net::RxDesc reply = co_await link.recv();  // AM-style ack
        link.release(reply);
        std::printf("invoked handler %u -> receiver cell should be %u\n", h,
                    expect);
      } else {
        std::printf("invoked handler %u -> out of range, expect fallback\n",
                    h);
        co_await self.sleep_for(us(500.0));
      }
    }
  });

  simulator.run(us(2e6));

  const std::uint32_t cell = util::load_u32(receiver.mem(cell_addr, 4));
  const auto& stats = ash_system.stats(ash_id);
  std::printf("\nreceiver cell: %u (expected 13)\n", cell);
  std::printf("dispatcher: %llu dispatched, %llu rejected\n",
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.voluntary_aborts));
  return cell == 13 && stats.voluntary_aborts == 1 ? 0 : 1;
}

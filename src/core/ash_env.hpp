// The execution environment the kernel provides to a running ASH.
//
// Implements the paper's protection contract (Section III-B2):
//  * plain loads/stores reach the owning process's address space (the
//    sandbox has already confined them there; this environment enforces
//    the same bounds as defense in depth) — plus read-only access to the
//    in-flight message;
//  * memory costs flow through the node's cache model;
//  * the trusted kernel entry points (TMsgLen/TSend/TDilp/TUserCopy) are
//    the "specialized trusted function calls, implemented in the kernel"
//    whose access checks are aggregated at initiation time;
//  * sends are *collected*, not executed — the invocation engine releases
//    them when the handler's simulated runtime has elapsed, so message
//    initiation cannot beat the clock.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dilp/engine.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"
#include "vcode/interp.hpp"

namespace ash::core {

class AshEnv final : public vcode::Env {
 public:
  struct Config {
    sim::Node* node = nullptr;
    sim::MemSegment owner_seg;
    std::uint32_t msg_addr = 0;
    std::uint32_t msg_len = 0;       // logical bytes
    std::uint32_t stripe_chunk = 0;  // nonzero: message buffer is striped
    dilp::Engine* engine = nullptr;
    sim::Cycles tx_cost = 0;         // kernel work per TSend
  };

  explicit AshEnv(const Config& config) : cfg_(config) {}

  struct SendReq {
    int channel;
    std::vector<std::uint8_t> bytes;  // snapshot taken at TSend time
  };
  /// Hand the collected sends over (moved, not copied) for release.
  std::vector<SendReq> take_sends() noexcept { return std::move(sends_); }

  // vcode::Env:
  void bind_regs(std::uint32_t* regs) override { regs_ = regs; }
  bool mem_read(std::uint32_t addr, void* dst, std::uint32_t len) override;
  bool mem_write(std::uint32_t addr, const void* src,
                 std::uint32_t len) override;
  std::uint64_t mem_cycles(std::uint32_t addr, std::uint32_t len,
                           bool is_write) override;
  bool fast_mem(vcode::Env::FastMem* out) override;
  bool t_msglen(std::uint32_t* len_out, std::uint64_t* cycles) override;
  bool t_send(std::uint32_t chan, std::uint32_t addr, std::uint32_t len,
              std::uint32_t* status, std::uint64_t* cycles) override;
  bool t_dilp(std::uint32_t id, std::uint32_t src, std::uint32_t dst,
              std::uint32_t len, std::uint32_t* status,
              std::uint64_t* cycles) override;
  bool t_usercopy(std::uint32_t dst, std::uint32_t src, std::uint32_t len,
                  std::uint32_t* status, std::uint64_t* cycles) override;
  bool t_msgload(std::uint32_t offset, std::uint32_t* value,
                 std::uint64_t* cycles) override;

 private:
  // The message is presented to the handler as a CONTIGUOUS logical array
  // at [msg_addr, msg_addr + msg_len), regardless of how the device laid
  // it out physically: striping is resolved here, per byte, so trusted
  // calls and (where legal) direct loads see the same logical bytes on
  // every NIC — the per-interface differences stay in the kernel
  // (Section III-C).
  bool in_owner(std::uint32_t addr, std::uint32_t len) const noexcept;
  bool in_msg(std::uint32_t addr, std::uint32_t len) const noexcept;
  bool readable(std::uint32_t addr, std::uint32_t len) const noexcept {
    return in_owner(addr, len) || in_msg(addr, len);
  }
  /// Physical node address of logical message byte `off`.
  std::uint32_t msg_phys(std::uint32_t off) const noexcept {
    if (cfg_.stripe_chunk == 0) return cfg_.msg_addr + off;
    const std::uint32_t c = cfg_.stripe_chunk;
    return cfg_.msg_addr + (off / c) * 2 * c + (off % c);
  }

  Config cfg_;
  std::uint32_t* regs_ = nullptr;
  std::vector<SendReq> sends_;
};

}  // namespace ash::core

// Per-process transport binding for the AN2 device.
//
// Owns the process's virtual circuit: a pool of pinned receive buffers
// carved from the process segment, a transmit staging ring, and the
// receive discipline (polling, as in most of the paper's experiments, or
// interrupt-driven wakeup). All CPU costs — poll iterations, send
// syscalls, buffer management — are charged here, so protocol layers
// above just move bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/an2.hpp"
#include "proto/link.hpp"
#include "sim/memops.hpp"
#include "sim/process.hpp"

namespace ash::proto {

class An2Link final : public Link {
 public:
  struct Config {
    std::uint32_t rx_buffers = 16;
    std::uint32_t buf_size = 4096;
    RecvMode mode = RecvMode::Polling;
    int remote_vc = 0;  // peer VC to address transmissions to
  };

  /// Binds a VC on `dev` for `self` and carves rx buffers + a tx staging
  /// ring out of the upper half of the process segment.
  An2Link(sim::Process& self, net::An2Device& dev, const Config& config);

  sim::Process& self() noexcept override { return self_; }
  net::An2Device& device() noexcept { return dev_; }
  int vc() const noexcept { return vc_; }
  const Config& config() const noexcept { return cfg_; }

  void set_mode(RecvMode mode);

  // ---- receive ----

  /// Wait for the next message (polling or blocking per mode). Returns the
  /// descriptor of where the message landed (in this process's memory).
  /// The caller must release() it when done.
  sim::Sub<net::RxDesc> recv() override;

  /// Like recv() with a deadline; nullopt on timeout.
  sim::Sub<std::optional<net::RxDesc>> recv_for(
      sim::Cycles timeout) override;

  /// Non-blocking notification-ring check (free; callers charge their own
  /// poll-iteration cost).
  std::optional<net::RxDesc> try_recv() override { return dev_.poll(vc_); }
  bool rx_pending() const override { return dev_.rx_pending(vc_); }

  /// Return the buffer underlying `d` to the device free ring. Cheap
  /// (shared-ring write; no syscall on this exokernel interface).
  void release(const net::RxDesc& d) override;

  // Link framing: AN2 carries bare IP packets on the VC.
  std::uint32_t rx_ip_offset() const override { return 0; }
  std::uint32_t tx_alloc_ip(std::uint32_t len) override {
    return tx_alloc(len);
  }
  sim::Sub<bool> send_ip(std::uint32_t ip_addr,
                         std::uint32_t ip_len) override {
    return send(ip_addr, ip_len);
  }
  std::uint32_t ip_mtu() const override { return cfg_.buf_size; }

  // ---- transmit ----

  /// Reserve `len` bytes of transmit staging in process memory. Rotates
  /// through a ring; contents survive until ~rx_buffers more allocations.
  std::uint32_t tx_alloc(std::uint32_t len);

  /// Send [addr, addr+len) to the peer VC: one send system call plus the
  /// driver's transmit work.
  sim::Sub<bool> send(std::uint32_t addr, std::uint32_t len);

  /// Convenience: stage `bytes` (charged copy) and send.
  sim::Sub<bool> send_bytes(std::span<const std::uint8_t> bytes);

  /// Bump-allocate `len` bytes of long-lived scratch memory from the
  /// region after the tx ring (TCP staging rings, shared TCB blocks...).
  /// Throws std::length_error when the segment is exhausted.
  std::uint32_t carve(std::uint32_t len) override;

 private:
  sim::Process& self_;
  net::An2Device& dev_;
  Config cfg_;
  int vc_;
  std::uint32_t tx_base_;
  std::uint32_t tx_size_;
  std::uint32_t tx_next_ = 0;
  std::uint32_t carve_next_;  // scratch bump allocator
};

}  // namespace ash::proto

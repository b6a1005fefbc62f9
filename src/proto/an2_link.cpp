#include "proto/an2_link.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/memops.hpp"
#include "sim/node.hpp"

namespace ash::proto {

An2Link::An2Link(sim::Process& self, net::An2Device& dev,
                 const Config& config)
    : self_(self), dev_(dev), cfg_(config) {
  const sim::MemSegment& seg = self.segment();
  const std::uint32_t rx_bytes = cfg_.rx_buffers * cfg_.buf_size;
  tx_size_ = 64 * 1024;
  if (rx_bytes + tx_size_ > seg.size / 2) {
    throw std::length_error("An2Link: buffer pool exceeds segment half");
  }
  // Upper half of the segment: rx pool, then tx staging ring.
  const std::uint32_t pool_base = seg.base + seg.size / 2;
  vc_ = dev.bind_vc(self);
  for (std::uint32_t i = 0; i < cfg_.rx_buffers; ++i) {
    dev.supply_buffer(vc_, pool_base + i * cfg_.buf_size, cfg_.buf_size);
  }
  tx_base_ = pool_base + rx_bytes;
  carve_next_ = tx_base_ + tx_size_;
  dev.set_interrupt_mode(vc_, cfg_.mode == RecvMode::Interrupt);
}

std::uint32_t An2Link::carve(std::uint32_t len) {
  const std::uint32_t addr = (carve_next_ + 15) & ~15u;  // line-aligned
  const sim::MemSegment& seg = self_.segment();
  if (static_cast<std::uint64_t>(addr) + len > seg.base + seg.size) {
    throw std::length_error("An2Link: carve exhausted the segment");
  }
  carve_next_ = addr + len;
  return addr;
}

void An2Link::set_mode(RecvMode mode) {
  cfg_.mode = mode;
  dev_.set_interrupt_mode(vc_, mode == RecvMode::Interrupt);
}

sim::Sub<net::RxDesc> An2Link::recv() {
  for (;;) {
    if (auto d = dev_.poll(vc_)) {
      co_await self_.compute(self_.node().cost().an2_user_recv_overhead);
      co_return *d;
    }
    if (cfg_.mode == RecvMode::Polling) {
      co_await self_.spin(self_.node().cost().poll_iteration, sim::kNever,
                          [this] { return dev_.rx_pending(vc_); });
    } else {
      co_await dev_.arrival_channel(vc_).wait(self_);
    }
  }
}

sim::Sub<std::optional<net::RxDesc>> An2Link::recv_for(sim::Cycles timeout) {
  const sim::Cycles deadline = self_.node().now() + timeout;
  for (;;) {
    if (auto d = dev_.poll(vc_)) {
      co_await self_.compute(self_.node().cost().an2_user_recv_overhead);
      co_return d;
    }
    if (self_.node().now() >= deadline) co_return std::nullopt;
    if (cfg_.mode == RecvMode::Polling) {
      co_await self_.spin(self_.node().cost().poll_iteration, deadline,
                          [this] { return dev_.rx_pending(vc_); });
    } else {
      const sim::Cycles left = deadline - self_.node().now();
      const bool got_token =
          co_await dev_.arrival_channel(vc_).wait_for(self_, left);
      if (!got_token) co_return std::nullopt;
    }
  }
}

void An2Link::release(const net::RxDesc& d) {
  // The descriptor's buffer is returned at its pool-slot size.
  const std::uint32_t slot =
      (d.addr - (self_.segment().base + self_.segment().size / 2)) /
      cfg_.buf_size;
  const std::uint32_t base = self_.segment().base + self_.segment().size / 2 +
                             slot * cfg_.buf_size;
  dev_.return_buffer(vc_, base, cfg_.buf_size);
}

std::uint32_t An2Link::tx_alloc(std::uint32_t len) {
  if (len > tx_size_) throw std::length_error("An2Link: tx_alloc too large");
  if (tx_next_ + len > tx_size_) tx_next_ = 0;
  const std::uint32_t addr = tx_base_ + tx_next_;
  tx_next_ += (len + 3) & ~3u;
  return addr;
}

sim::Sub<bool> An2Link::send(std::uint32_t addr, std::uint32_t len) {
  co_await self_.syscall(dev_.config().tx_kernel_work +
                         self_.node().cost().an2_user_send_overhead);
  co_return dev_.send_from(cfg_.remote_vc, addr, len);
}

sim::Sub<bool> An2Link::send_bytes(std::span<const std::uint8_t> bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const std::uint32_t addr = tx_alloc(len);
  std::uint8_t* p = self_.node().mem(addr, len);
  std::memcpy(p, bytes.data(), bytes.size());
  // Charge the staging stores (one copy loop's store half).
  co_await self_.compute(
      sim::memops::stage_store_cycles(self_.node(), addr, len));
  const bool sent = co_await send(addr, len);
  co_return sent;
}

}  // namespace ash::proto

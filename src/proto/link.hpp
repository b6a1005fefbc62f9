// Abstract link binding: what the UDP/TCP libraries need from a network
// interface. Two implementations exist, mirroring the testbed: An2Link
// (virtual-circuit ATM; IP datagrams ride directly in AN2 frames) and
// EthLink (Ethernet framing + DPF demux; Section IV's second device).
#pragma once

#include <cstdint>
#include <optional>

#include "net/an2.hpp"  // RxDesc
#include "sim/process.hpp"

namespace ash::proto {

enum class RecvMode : std::uint8_t {
  Polling,    // busy-poll the notification ring (no kernel involvement)
  Interrupt,  // block; driver wakes the process on arrival
};

class Link {
 public:
  virtual ~Link() = default;

  virtual sim::Process& self() = 0;

  /// Wait for the next frame (per the link's receive mode).
  virtual sim::Sub<net::RxDesc> recv() = 0;
  /// recv with a deadline; nullopt on timeout.
  virtual sim::Sub<std::optional<net::RxDesc>> recv_for(
      sim::Cycles timeout) = 0;
  /// Non-blocking check (caller charges poll cost).
  virtual std::optional<net::RxDesc> try_recv() = 0;
  /// True exactly when try_recv() would return a frame; never pops.
  virtual bool rx_pending() const = 0;
  /// Return a consumed receive buffer.
  virtual void release(const net::RxDesc& d) = 0;

  /// Byte offset of the IP header within a received frame.
  virtual std::uint32_t rx_ip_offset() const = 0;

  /// Reserve transmit staging for an IP packet of `len` bytes; returns the
  /// address where the IP header should be built (link framing, if any,
  /// lives before it).
  virtual std::uint32_t tx_alloc_ip(std::uint32_t len) = 0;

  /// Transmit the IP packet previously staged at `ip_addr` (adds link
  /// framing and charges the send system call).
  virtual sim::Sub<bool> send_ip(std::uint32_t ip_addr,
                                 std::uint32_t ip_len) = 0;

  /// Bump-allocate long-lived scratch memory in the owner's segment.
  virtual std::uint32_t carve(std::uint32_t len) = 0;

  /// Largest IP packet this link can carry.
  virtual std::uint32_t ip_mtu() const = 0;
};

}  // namespace ash::proto

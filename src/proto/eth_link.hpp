// Ethernet transport binding: IP over 10 Mb/s Ethernet with DPF demux.
//
// The endpoint's DPF filter claims IPv4 frames for this process (callers
// can narrow it, e.g. by transport port, when several endpoints share the
// device). The kernel's default receive path has already destriped the
// frame into one of our supplied buffers by the time recv() returns, so
// rx_ip_offset() is simply the Ethernet header. ARP resolution is the
// ArpService's job; this link takes a static peer MAC (the experiments
// run host-to-host).
#pragma once

#include <cstdint>
#include <optional>

#include "dpf/dpf.hpp"
#include "net/ethernet.hpp"
#include "proto/link.hpp"
#include "proto/wire.hpp"
#include "sim/process.hpp"

namespace ash::proto {

class EthLink final : public Link {
 public:
  struct Config {
    Config() = default;
    Config(const MacAddr& local, const MacAddr& peer)
        : local_mac(local), peer_mac(peer) {}

    MacAddr local_mac;
    MacAddr peer_mac;
    std::uint32_t rx_buffers = 16;
    std::uint32_t buf_size = 1536;
    RecvMode mode = RecvMode::Polling;
    /// Additional DPF atoms beyond the IPv4 ethertype match (e.g. a
    /// destination-port discriminator).
    std::vector<dpf::Atom> extra_atoms;
  };

  EthLink(sim::Process& self, net::EthernetDevice& dev, const Config& config);

  sim::Process& self() noexcept override { return self_; }
  net::EthernetDevice& device() noexcept { return dev_; }
  int endpoint() const noexcept { return endpoint_; }

  sim::Sub<net::RxDesc> recv() override;
  sim::Sub<std::optional<net::RxDesc>> recv_for(sim::Cycles timeout) override;
  std::optional<net::RxDesc> try_recv() override {
    return dev_.poll(endpoint_);
  }
  bool rx_pending() const override { return dev_.rx_pending(endpoint_); }
  void release(const net::RxDesc& d) override;

  std::uint32_t rx_ip_offset() const override {
    return static_cast<std::uint32_t>(kEthHeaderLen);
  }
  std::uint32_t tx_alloc_ip(std::uint32_t len) override;
  sim::Sub<bool> send_ip(std::uint32_t ip_addr, std::uint32_t ip_len) override;
  std::uint32_t carve(std::uint32_t len) override;
  std::uint32_t ip_mtu() const override {
    return dev_.config().max_frame_bytes -
           static_cast<std::uint32_t>(kEthHeaderLen);
  }

 private:
  sim::Process& self_;
  net::EthernetDevice& dev_;
  Config cfg_;
  int endpoint_;
  std::uint32_t pool_base_;
  std::uint32_t tx_base_;
  std::uint32_t tx_size_;
  std::uint32_t tx_next_ = 0;
  std::uint32_t carve_next_;
};

}  // namespace ash::proto

#include "proto/arp.hpp"

#include <cstring>

#include "sim/node.hpp"

namespace ash::proto {

ArpService::ArpService(sim::Process& self, net::EthernetDevice& dev,
                       const Config& config)
    : self_(self), dev_(dev), cfg_(config) {
  // Claim ARP and RARP frames: one filter per ethertype would need two
  // endpoints; a single masked atom covers both (0x0806 and 0x8035 share
  // no convenient mask, so install two filters on one... DPF owners are
  // per-filter, so attach the endpoint with the ARP ethertype and a
  // second filter for RARP mapping to the same endpoint id is not
  // supported — instead we match any frame whose ethertype is ARP, and
  // RARP traffic uses the same ARP ethertype packets with RARP opcodes,
  // which is what our encode side emits.)
  dpf::Filter f;
  f.atoms = {dpf::atom_be16(12, kEtherTypeArp)};
  endpoint_ = dev.attach(self, std::move(f));

  const sim::MemSegment& seg = self.segment();
  // Small dedicated pools near the top of the segment (below other links'
  // regions callers typically carve from the middle).
  pool_base_ = seg.base + seg.size - (cfg_.rx_buffers + 2) * 2048;
  for (std::uint32_t i = 0; i < cfg_.rx_buffers; ++i) {
    dev.supply_buffer(endpoint_, pool_base_ + i * 2048, 2048);
  }
  tx_base_ = pool_base_ + cfg_.rx_buffers * 2048;
  add_static(cfg_.local_ip, cfg_.local_mac);
}

void ArpService::add_static(Ipv4Addr ip, MacAddr mac) {
  cache_[ip.value] = mac;
}

std::optional<MacAddr> ArpService::lookup(Ipv4Addr ip) const {
  const auto it = cache_.find(ip.value);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

sim::Sub<void> ArpService::send_packet(const ArpPacket& pkt,
                                       std::uint16_t ethertype, MacAddr dst) {
  sim::Node& node = self_.node();
  const std::uint32_t frame = tx_base_;
  std::uint8_t* f = node.mem(frame, kEthHeaderLen + kArpPacketLen);
  EthHeader eh;
  eh.dst = dst;
  eh.src = cfg_.local_mac;
  eh.ethertype = ethertype;
  encode_eth({f, kEthHeaderLen}, eh);
  encode_arp({f + kEthHeaderLen, kArpPacketLen}, pkt);
  co_await self_.syscall(dev_.config().tx_kernel_work);
  dev_.send_from(frame, static_cast<std::uint32_t>(kEthHeaderLen) +
                            static_cast<std::uint32_t>(kArpPacketLen));
}

sim::Sub<std::optional<ArpPacket>> ArpService::process_one(
    sim::Cycles timeout) {
  sim::Node& node = self_.node();
  const sim::Cycles deadline = node.now() + timeout;
  for (;;) {
    const auto d = dev_.poll(endpoint_);
    if (!d.has_value()) {
      if (node.now() >= deadline) co_return std::nullopt;
      co_await self_.spin(node.cost().poll_iteration, deadline,
                          [this] { return dev_.rx_pending(endpoint_); });
      continue;
    }
    const std::uint8_t* p = node.mem(d->addr, d->len);
    std::optional<ArpPacket> pkt;
    if (p != nullptr && d->len >= kEthHeaderLen + kArpPacketLen) {
      pkt = decode_arp({p + kEthHeaderLen, d->len - kEthHeaderLen});
    }
    dev_.return_buffer(endpoint_, pool_base_ +
                                      ((d->addr - pool_base_) / 2048) * 2048,
                       2048);
    if (!pkt.has_value()) continue;
    co_await self_.compute(sim::us(3.0));  // parse + table update

    // Learn the sender's binding from any ARP traffic.
    if (pkt->sender_ip.value != 0) {
      cache_[pkt->sender_ip.value] = pkt->sender_mac;
    }

    // Answer requests addressed to one of our bindings.
    if (pkt->opcode == kArpOpRequest) {
      const auto it = cache_.find(pkt->target_ip.value);
      if (it != cache_.end() && pkt->target_ip == cfg_.local_ip) {
        ArpPacket reply;
        reply.opcode = kArpOpReply;
        reply.sender_mac = it->second;
        reply.sender_ip = pkt->target_ip;
        reply.target_mac = pkt->sender_mac;
        reply.target_ip = pkt->sender_ip;
        ++answered_;
        co_await send_packet(reply, kEtherTypeArp, pkt->sender_mac);
      }
    } else if (pkt->opcode == kRarpOpRequest) {
      // Reverse lookup: who has this MAC?
      for (const auto& [ip, mac] : cache_) {
        if (mac == pkt->target_mac) {
          ArpPacket reply;
          reply.opcode = kRarpOpReply;
          reply.sender_mac = cfg_.local_mac;
          reply.sender_ip = cfg_.local_ip;
          reply.target_mac = pkt->target_mac;
          reply.target_ip = Ipv4Addr{ip};
          ++answered_;
          co_await send_packet(reply, kEtherTypeArp, pkt->sender_mac);
          break;
        }
      }
    }
    co_return pkt;
  }
}

sim::Sub<std::optional<MacAddr>> ArpService::resolve(Ipv4Addr ip,
                                                     sim::Cycles timeout) {
  if (auto hit = lookup(ip)) co_return hit;
  const sim::Cycles deadline = self_.node().now() + timeout;

  ArpPacket req;
  req.opcode = kArpOpRequest;
  req.sender_mac = cfg_.local_mac;
  req.sender_ip = cfg_.local_ip;
  req.target_mac = MacAddr{};
  req.target_ip = ip;
  co_await send_packet(req, kEtherTypeArp, MacAddr::broadcast());

  while (self_.node().now() < deadline) {
    const sim::Cycles left = deadline - self_.node().now();
    (void)co_await process_one(left);
    if (auto hit = lookup(ip)) co_return hit;
  }
  co_return std::nullopt;
}

sim::Sub<std::optional<Ipv4Addr>> ArpService::rarp_resolve(
    MacAddr mac, sim::Cycles timeout) {
  const sim::Cycles deadline = self_.node().now() + timeout;
  ArpPacket req;
  req.opcode = kRarpOpRequest;
  req.sender_mac = cfg_.local_mac;
  req.sender_ip = cfg_.local_ip;
  req.target_mac = mac;
  req.target_ip = Ipv4Addr{};
  // RARP opcodes ride in ARP-ethertype frames here so one DPF endpoint
  // serves both protocols (see the constructor comment).
  co_await send_packet(req, kEtherTypeArp, MacAddr::broadcast());

  while (self_.node().now() < deadline) {
    const sim::Cycles left = deadline - self_.node().now();
    const auto pkt = co_await process_one(left);
    if (pkt.has_value() && pkt->opcode == kRarpOpReply &&
        pkt->target_mac == mac) {
      co_return pkt->target_ip;
    }
  }
  co_return std::nullopt;
}

sim::Sub<void> ArpService::serve(sim::Cycles duration) {
  const sim::Cycles deadline = self_.node().now() + duration;
  while (self_.node().now() < deadline) {
    (void)co_await process_one(deadline - self_.node().now());
  }
}

}  // namespace ash::proto

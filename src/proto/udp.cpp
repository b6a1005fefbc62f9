#include "proto/udp.hpp"

#include <algorithm>
#include <cstring>

#include "sim/node.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"

namespace ash::proto {

namespace {
constexpr std::uint32_t kHdrLen =
    static_cast<std::uint32_t>(kIpHeaderLen + kUdpHeaderLen);
}

std::uint32_t UdpSocket::finish_packet(std::uint32_t pkt_addr,
                                       std::uint16_t len) {
  sim::Node& node = link_.self().node();
  const std::uint32_t total = kHdrLen + len;
  std::uint8_t* pkt = node.mem(pkt_addr, total);

  IpHeader ip;
  ip.protocol = kIpProtoUdp;
  ip.src = opt_.local_ip;
  ip.dst = opt_.remote_ip;
  ip.total_len = static_cast<std::uint16_t>(total);
  ip.ident = next_ident_++;
  encode_ip({pkt, kIpHeaderLen}, ip);

  UdpHeader udp;
  udp.src_port = opt_.local_port;
  udp.dst_port = opt_.remote_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderLen + len);
  udp.checksum = 0;
  encode_udp({pkt + kIpHeaderLen, kUdpHeaderLen}, udp);

  if (opt_.checksum) {
    udp.checksum = transport_checksum(
        opt_.local_ip, opt_.remote_ip, kIpProtoUdp,
        {pkt + kIpHeaderLen, static_cast<std::size_t>(udp.length)});
    encode_udp({pkt + kIpHeaderLen, kUdpHeaderLen}, udp);
  }
  return total;
}

sim::Sub<bool> UdpSocket::send_from(std::uint32_t app_addr,
                                    std::uint16_t len) {
  sim::Node& node = link_.self().node();
  const std::uint32_t pkt = link_.tx_alloc_ip(kHdrLen + len);

  // Stage the payload behind the headers (the library's one send-side
  // copy), then optionally checksum it — separate passes, like the base
  // library in the paper.
  sim::Cycles cycles =
      sim::memops::copy(node, pkt + kHdrLen, app_addr, len);
  if (opt_.checksum) {
    std::uint32_t dummy_acc = 0;
    cycles += node.cost().udp_cksum_setup;
    cycles += sim::memops::cksum(node, pkt + kHdrLen, len, &dummy_acc);
  }
  cycles += node.cost().udp_send_overhead;  // header build + buffer mgmt
  (void)finish_packet(pkt, len);
  co_await link_.self().compute(cycles);
  const bool sent = co_await link_.send_ip(pkt, kHdrLen + len);
  co_return sent;
}

sim::Sub<bool> UdpSocket::send(std::span<const std::uint8_t> payload) {
  sim::Node& node = link_.self().node();
  const auto len = static_cast<std::uint16_t>(payload.size());
  const std::uint32_t pkt = link_.tx_alloc_ip(kHdrLen + len);
  std::memcpy(node.mem(pkt + kHdrLen, len), payload.data(), payload.size());
  sim::Cycles cycles = node.cost().udp_send_overhead;
  if (opt_.checksum) {
    std::uint32_t dummy_acc = 0;
    cycles += node.cost().udp_cksum_setup;
    cycles += sim::memops::cksum(node, pkt + kHdrLen, len, &dummy_acc);
  }
  (void)finish_packet(pkt, len);
  co_await link_.self().compute(cycles);
  const bool sent = co_await link_.send_ip(pkt, kHdrLen + len);
  co_return sent;
}

std::optional<UdpSocket::Datagram> UdpSocket::parse(const net::RxDesc& d) {
  sim::Node& node = link_.self().node();
  const std::uint32_t off = link_.rx_ip_offset();
  if (d.len < off) return std::nullopt;
  const std::uint8_t* p = node.mem(d.addr + off, d.len - off);
  if (p == nullptr) return std::nullopt;
  const auto ip = decode_ip({p, d.len - off});
  if (!ip || ip->protocol != kIpProtoUdp || ip->dst != opt_.local_ip) {
    return std::nullopt;
  }
  const std::size_t seg_len = ip->total_len - kIpHeaderLen;
  const auto udp = decode_udp({p + kIpHeaderLen, seg_len});
  if (!udp || udp->dst_port != opt_.local_port) return std::nullopt;

  Datagram out;
  out.payload_addr =
      d.addr + off + static_cast<std::uint32_t>(kIpHeaderLen + kUdpHeaderLen);
  out.payload_len = static_cast<std::uint16_t>(udp->length - kUdpHeaderLen);
  out.src_port = udp->src_port;
  out.desc = d;
  return out;
}

sim::Sub<UdpSocket::Datagram> UdpSocket::recv_in_place() {
  sim::Node& node = link_.self().node();
  for (;;) {
    const net::RxDesc d = co_await link_.recv();
    co_await link_.self().compute(node.cost().udp_recv_overhead);
    auto dg = parse(d);
    if (!dg) {
      link_.release(d);
      continue;
    }
    if (opt_.checksum) {
      // Verify over the UDP segment (header + payload), a separate pass.
      // With the transmitted checksum field in place, the ones'-complement
      // sum over pseudo-header + segment folds to 0xffff when intact.
      std::uint32_t sum = 0;
      const std::uint32_t seg = d.addr + link_.rx_ip_offset() + kIpHeaderLen;
      const std::uint32_t seg_len = kUdpHeaderLen + dg->payload_len;
      const sim::Cycles ck_cycles =
          node.cost().udp_cksum_setup +
          sim::memops::cksum(node, seg, seg_len, &sum);
      co_await link_.self().compute(ck_cycles);
      const std::uint16_t got = util::load_be16(node.mem(seg, seg_len) + 6);
      if (got != 0) {  // 0 = sender did not checksum (RFC 768)
        if (util::fold16(transport_sum_le(
                opt_.remote_ip, opt_.local_ip, kIpProtoUdp,
                static_cast<std::uint16_t>(seg_len), sum)) != 0xffff) {
          ++cksum_fail_;
          link_.release(d);
          continue;
        }
      }
    }
    co_return *dg;
  }
}

sim::Sub<UdpSocket::Datagram> UdpSocket::recv_copy(std::uint32_t app_addr,
                                                   std::uint16_t max_len) {
  sim::Node& node = link_.self().node();
  Datagram dg = co_await recv_in_place();
  const std::uint16_t n = std::min(dg.payload_len, max_len);
  const sim::Cycles cycles =
      sim::memops::copy(node, app_addr, dg.payload_addr, n);
  co_await link_.self().compute(cycles);
  release(dg);
  dg.payload_addr = app_addr;
  dg.payload_len = n;
  co_return dg;
}

}  // namespace ash::proto

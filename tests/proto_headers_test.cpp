#include "proto/headers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "sim/memops.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace ash::proto {
namespace {

TEST(Headers, EthRoundTrip) {
  EthHeader h;
  h.dst = {{{1, 2, 3, 4, 5, 6}}};
  h.src = {{{7, 8, 9, 10, 11, 12}}};
  h.ethertype = kEtherTypeIp;
  std::vector<std::uint8_t> buf(kEthHeaderLen);
  encode_eth(buf, h);
  const auto back = decode_eth(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dst, h.dst);
  EXPECT_EQ(back->src, h.src);
  EXPECT_EQ(back->ethertype, kEtherTypeIp);
  EXPECT_FALSE(decode_eth({buf.data(), 13}).has_value());
}

TEST(Headers, ArpRoundTrip) {
  ArpPacket p;
  p.opcode = kArpOpRequest;
  p.sender_mac = {{{1, 2, 3, 4, 5, 6}}};
  p.sender_ip = Ipv4Addr::of(10, 0, 0, 1);
  p.target_mac = MacAddr::broadcast();
  p.target_ip = Ipv4Addr::of(10, 0, 0, 2);
  std::vector<std::uint8_t> buf(kArpPacketLen);
  encode_arp(buf, p);
  const auto back = decode_arp(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->opcode, kArpOpRequest);
  EXPECT_EQ(back->sender_ip, p.sender_ip);
  EXPECT_EQ(back->target_ip, p.target_ip);
  EXPECT_TRUE(back->target_mac.is_broadcast());
}

TEST(Headers, IpRoundTripAndChecksum) {
  IpHeader h;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Addr::of(192, 168, 1, 1);
  h.dst = Ipv4Addr::of(192, 168, 1, 2);
  h.total_len = 48;
  h.ident = 0x1234;
  std::vector<std::uint8_t> buf(48, 0xab);
  encode_ip({buf.data(), kIpHeaderLen}, h);
  const auto back = decode_ip(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src, h.src);
  EXPECT_EQ(back->dst, h.dst);
  EXPECT_EQ(back->total_len, 48);
  EXPECT_EQ(back->protocol, kIpProtoUdp);

  buf[13] ^= 1;  // corrupt a source-address byte
  EXPECT_FALSE(decode_ip(buf).has_value());
}

TEST(Headers, IpRejectsBadTotalLen) {
  IpHeader h;
  h.total_len = 100;  // longer than the datagram we hand in
  std::vector<std::uint8_t> buf(40, 0);
  encode_ip({buf.data(), kIpHeaderLen}, h);
  EXPECT_FALSE(decode_ip(buf).has_value());
}

TEST(Headers, IpFragmentFields) {
  IpHeader h;
  h.total_len = 28;
  h.more_fragments = true;
  h.frag_offset = 0x123;
  std::vector<std::uint8_t> buf(28, 0);
  encode_ip({buf.data(), kIpHeaderLen}, h);
  const auto back = decode_ip(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->more_fragments);
  EXPECT_EQ(back->frag_offset, 0x123);
}

TEST(Headers, UdpRoundTrip) {
  UdpHeader h;
  h.src_port = 5353;
  h.dst_port = 53;
  h.length = 20;
  h.checksum = 0xbeef;
  std::vector<std::uint8_t> buf(20, 0);
  encode_udp(buf, h);
  const auto back = decode_udp(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_port, 5353);
  EXPECT_EQ(back->dst_port, 53);
  EXPECT_EQ(back->length, 20);
  EXPECT_EQ(back->checksum, 0xbeef);
}

TEST(Headers, TcpRoundTripAllFlags) {
  TcpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = {.fin = true, .syn = false, .rst = true, .psh = false,
             .ack = true};
  h.window = 8192;
  std::vector<std::uint8_t> buf(kTcpHeaderLen);
  encode_tcp(buf, h);
  const auto back = decode_tcp(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, h.seq);
  EXPECT_EQ(back->ack, h.ack);
  EXPECT_EQ(back->flags, h.flags);
  EXPECT_EQ(back->window, 8192);
}

TEST(Headers, TransportChecksumVerifies) {
  util::Rng rng(3);
  const Ipv4Addr src = Ipv4Addr::of(10, 0, 0, 1);
  const Ipv4Addr dst = Ipv4Addr::of(10, 0, 0, 2);
  std::vector<std::uint8_t> seg(kUdpHeaderLen + 33);
  for (auto& b : seg) b = static_cast<std::uint8_t>(rng.next());
  seg[6] = seg[7] = 0;  // checksum field zero
  const std::uint16_t ck = transport_checksum(src, dst, kIpProtoUdp, seg);
  seg[6] = static_cast<std::uint8_t>(ck >> 8);
  seg[7] = static_cast<std::uint8_t>(ck);

  std::uint32_t acc = pseudo_header_sum(
      src, dst, kIpProtoUdp, static_cast<std::uint16_t>(seg.size()));
  acc = util::cksum_partial(seg, acc);
  EXPECT_EQ(util::fold16(acc), 0xffff);

  seg[10] ^= 0x40;  // flip a payload bit
  acc = pseudo_header_sum(src, dst, kIpProtoUdp,
                          static_cast<std::uint16_t>(seg.size()));
  acc = util::cksum_partial(seg, acc);
  EXPECT_NE(util::fold16(acc), 0xffff);
}

// --------------------------- one charged pass instead of a second host sum

/// What the protocol paths feed transport_sum_le: the accumulator of one
/// charged memops::cksum pass over the segment in node memory.
std::uint32_t charged_le_sum(sim::Node& node, std::uint32_t addr,
                             std::span<const std::uint8_t> seg) {
  const auto len = static_cast<std::uint32_t>(seg.size());
  if (len > 0) std::memcpy(node.mem(addr, len), seg.data(), len);
  std::uint32_t sum = 0;
  sim::memops::cksum(node, addr, len, &sum);
  return sum;
}

struct SegmentCase {
  std::uint8_t protocol;
  std::size_t ck_off;  // checksum field offset within the segment
  std::vector<std::uint8_t> seg;
};

/// A TCP or UDP segment of random length (odd ones included) whose bytes
/// are random, all zero or all 0xff, with its checksum field zero.
SegmentCase random_segment(util::Rng& rng, std::size_t payload_len) {
  const bool tcp = rng.chance(1, 2);
  SegmentCase c{tcp ? kIpProtoTcp : kIpProtoUdp, tcp ? 16u : 6u, {}};
  c.seg.resize((tcp ? kTcpHeaderLen : kUdpHeaderLen) + payload_len);
  const auto fill = rng.below(3);
  for (auto& b : c.seg) {
    b = fill == 0 ? static_cast<std::uint8_t>(rng.next())
                  : (fill == 1 ? 0x00 : 0xff);
  }
  c.seg[c.ck_off] = c.seg[c.ck_off + 1] = 0;
  return c;
}

TEST(ChargedChecksum, MatchesTransportChecksumOnRandomSegments) {
  sim::Simulator s;
  sim::Node& node = s.add_node("n");
  util::Rng rng(0xc5);
  for (int k = 0; k < 3000; ++k) {
    // Every tenth segment has an empty payload.
    SegmentCase c = random_segment(rng, k % 10 == 0 ? 0 : rng.below(1500));
    const Ipv4Addr src{static_cast<std::uint32_t>(rng.next())};
    const Ipv4Addr dst{static_cast<std::uint32_t>(rng.next())};
    const auto len = static_cast<std::uint16_t>(c.seg.size());
    const auto addr = static_cast<std::uint32_t>(0x1000 + rng.below(64));

    const std::uint16_t want = transport_checksum(src, dst, c.protocol, c.seg);
    const std::uint16_t got = checksum_field(transport_sum_le(
        src, dst, c.protocol, len, charged_le_sum(node, addr, c.seg)));
    ASSERT_EQ(got, want) << "k=" << k << " len=" << len;

    // With the field in place, the receive-side sum verifies.
    c.seg[c.ck_off] = static_cast<std::uint8_t>(got >> 8);
    c.seg[c.ck_off + 1] = static_cast<std::uint8_t>(got);
    ASSERT_EQ(util::fold16(transport_sum_le(
                  src, dst, c.protocol, len,
                  charged_le_sum(node, addr, c.seg))),
              0xffff)
        << "k=" << k << " len=" << len;
  }
}

TEST(ChargedChecksum, CorruptedSegmentIsRejected) {
  sim::Simulator s;
  sim::Node& node = s.add_node("n");
  util::Rng rng(0xbad);
  const Ipv4Addr src = Ipv4Addr::of(10, 0, 0, 1);
  const Ipv4Addr dst = Ipv4Addr::of(10, 0, 0, 2);
  SegmentCase c = random_segment(rng, 333);
  const auto len = static_cast<std::uint16_t>(c.seg.size());
  const std::uint16_t ck = transport_checksum(src, dst, c.protocol, c.seg);
  c.seg[c.ck_off] = static_cast<std::uint8_t>(ck >> 8);
  c.seg[c.ck_off + 1] = static_cast<std::uint8_t>(ck);
  c.seg[len - 5] ^= 0x40;  // flip a payload bit
  const std::uint32_t sum = charged_le_sum(node, 0x2001, c.seg);
  EXPECT_NE(util::fold16(transport_sum_le(src, dst, c.protocol, len, sum)),
            0xffff);
  // The same verdict as the host pass it replaces.
  EXPECT_NE(util::fold16(util::cksum_partial(
                c.seg, pseudo_header_sum(src, dst, c.protocol, len))),
            0xffff);
}

TEST(Headers, SeqArithmeticWrapsCorrectly) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));   // across the wrap
  EXPECT_FALSE(seq_lt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_le(5, 5));
  EXPECT_EQ(seq_diff(10, 3), 7);
  EXPECT_EQ(seq_diff(3, 10), -7);
}

}  // namespace
}  // namespace ash::proto

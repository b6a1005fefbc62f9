#include "proto/tcp_control.hpp"

#include <cstring>

#include "sim/memops.hpp"
#include "sim/node.hpp"

namespace ash::proto {

void TcpSender::on_send(std::uint32_t seq, TcpFlags flags,
                        std::span<const std::uint8_t> payload,
                        sim::TimerWheel& wheel, sim::Cycles now,
                        std::uint64_t cookie) {
  retx.push_back(RetxSegment{
      seq, std::vector<std::uint8_t>(payload.begin(), payload.end()), flags,
      0});
  if (retx_timer == 0) arm_retx_timer(wheel, now, cookie);
  if (!rtt_pending) {
    rtt_pending = true;
    rtt_seq = seq + seq_space(flags, payload.size());
    rtt_sent_at = now;
  }
}

AckVerdict TcpSender::on_ack(const TcpHeader& tcp, std::uint32_t plen,
                             std::uint32_t snd_una, std::uint32_t snd_nxt,
                             bool established, sim::TimerWheel& wheel,
                             sim::Cycles now, std::uint64_t cookie) {
  if (seq_lt(snd_una, tcp.ack) && seq_le(tcp.ack, snd_nxt)) {
    on_new_data(snd_una, tcp.ack, wheel, now, cookie);
    return AckVerdict::kNewData;
  }
  if (tcp.ack != snd_una || plen != 0 || tcp.flags.syn || tcp.flags.fin ||
      !seq_lt(snd_una, snd_nxt) || !established) {
    return AckVerdict::kNone;
  }
  // Duplicate ACK with data outstanding: three trigger a fast retransmit
  // of the presumed-lost front segment.
  if (++dup_acks < 3) return AckVerdict::kNone;
  dup_acks = 0;
  cc.on_fast_retransmit(snd_nxt - snd_una);
  return AckVerdict::kFastRetransmit;
}

void TcpSender::on_new_data(std::uint32_t snd_una, std::uint32_t ack,
                            sim::TimerWheel& wheel, sim::Cycles now,
                            std::uint64_t cookie) {
  bool popped = false;
  while (!retx.empty()) {
    const RetxSegment& seg = retx.front();
    if (!seq_le(seg.seq + seq_space(seg.flags, seg.payload.size()), ack)) {
      break;
    }
    retx.pop_front();
    popped = true;
  }
  if (popped || retx.empty()) arm_retx_timer(wheel, now, cookie);
  cc.on_ack(ack - snd_una);
  dup_acks = 0;
  if (rtt_pending && seq_le(rtt_seq, ack)) {
    rtt.sample(now - rtt_sent_at);
    rtt_pending = false;
  }
  rto_cur = rtt.rto();  // a fresh ACK resets any backoff
}

bool TcpSender::on_rto(std::uint32_t flight) {
  retx_timer = 0;
  if (retx.empty()) return false;
  cc.on_timeout(flight);
  rto_cur = std::min(rto_cur * 2, rtt.max_rto());
  dup_acks = 0;
  return true;
}

const RetxSegment* TcpSender::next_resend(bool count_retry, int max_retries) {
  RetxSegment& seg = retx.front();
  if (count_retry && ++seg.retries > max_retries) return nullptr;
  rtt_pending = false;
  return &seg;
}

void TcpSender::arm_retx_timer(sim::TimerWheel& wheel, sim::Cycles now,
                               std::uint64_t cookie) {
  cancel_timer(wheel, retx_timer);
  if (retx.empty()) return;
  retx_timer = wheel.arm(now + rto_cur, cookie);
}

void TcpSender::cancel_timers(sim::TimerWheel& wheel) {
  cancel_timer(wheel, retx_timer);
  cancel_timer(wheel, persist_timer);
  cancel_timer(wheel, timewait_timer);
}

void TcpSender::drop(sim::TimerWheel& wheel) {
  retx.clear();
  dup_acks = 0;
  rtt_pending = false;
  cancel_timers(wheel);
}

void TcpSender::enter_time_wait(sim::TimerWheel& wheel, sim::Cycles deadline,
                                std::uint64_t cookie) {
  cancel_timers(wheel);
  timewait_timer = wheel.arm(deadline, cookie);
}

TcpHeader encode_tcp_headers(std::uint8_t* p, const TcpRoute& route,
                             const TcpSegmentSpec& s) {
  IpHeader ip;
  ip.protocol = kIpProtoTcp;
  ip.src = route.local_ip;
  ip.dst = route.remote_ip;
  ip.total_len = static_cast<std::uint16_t>(kSegHdrLen + s.payload.size());
  ip.ident = s.ident;
  encode_ip({p, kIpHeaderLen}, ip);
  TcpHeader tcp;
  tcp.src_port = route.local_port;
  tcp.dst_port = route.remote_port;
  tcp.seq = s.seq;
  tcp.ack = s.flags.ack ? s.ack : 0;
  tcp.flags = s.flags;
  tcp.window =
      static_cast<std::uint16_t>(std::min<std::uint32_t>(s.window, 0xffff));
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  return tcp;
}

sim::Sub<bool> send_tcp_segment(Link& link, TcpRoute route, TcpSegmentSpec s,
                                bool first_tx) {
  sim::Node& node = link.self().node();
  const auto plen = static_cast<std::uint32_t>(s.payload.size());
  const std::uint32_t total = kSegHdrLen + plen;
  const std::uint32_t pkt = link.tx_alloc_ip(total);
  std::uint8_t* p = node.mem(pkt, total);
  sim::Cycles cycles = plen > 0 || s.flags.syn || s.flags.fin
                           ? node.cost().tcp_send_overhead
                           : node.cost().tcp_ack_overhead;
  if (plen > 0) {
    std::memcpy(p + kSegHdrLen, s.payload.data(), plen);
    // Staging-copy cost (app buffer -> packet): loop + cache traffic.
    if (first_tx) {
      cycles += sim::memops::stage_store_cycles(node, pkt + kSegHdrLen, plen);
    }
  }
  TcpHeader tcp = encode_tcp_headers(p, route, s);
  if (route.checksum) {
    const std::uint32_t seg_len = kTcpHeaderLen + plen;
    if (first_tx) {
      std::uint32_t sum = 0;
      cycles += node.cost().udp_cksum_setup;
      cycles += sim::memops::cksum(node, pkt + kIpHeaderLen, seg_len, &sum);
      tcp.checksum = checksum_field(transport_sum_le(
          route.local_ip, route.remote_ip, kIpProtoTcp,
          static_cast<std::uint16_t>(seg_len), sum));
    } else {
      tcp.checksum = transport_checksum(route.local_ip, route.remote_ip,
                                        kIpProtoTcp,
                                        {p + kIpHeaderLen, seg_len});
    }
    encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  }
  co_await link.self().compute(cycles);
  const bool sent = co_await link.send_ip(pkt, total);
  co_return sent;
}

}  // namespace ash::proto

// The connection-control code both TCP tiers share (tcp_control.hpp),
// checked directly against hand-computed RFC 6298 / RFC 5681 values:
// RTT estimation, congestion window, the sender half (Karn's rule,
// duplicate-ACK fast retransmit, retransmit reaping across SYN/FIN
// sequence space, retry budget, RTO backoff), the RST verdict for every
// state, the out-of-order store and the IPv4+TCP header fill.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "proto/headers.hpp"
#include "proto/tcp_control.hpp"
#include "sim/timer_wheel.hpp"

namespace ash::proto {
namespace {

std::vector<std::uint8_t> bytes(std::uint32_t n, std::uint8_t first = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(first + i);
  }
  return v;
}

TcpHeader ack_of(std::uint32_t ack) {
  TcpHeader h;
  h.flags.ack = true;
  h.ack = ack;
  return h;
}

// ------------------------------------------------------ RttEstimator

TEST(TcpControl, RttEstimatorFollowsRfc6298Gains) {
  RttEstimator rtt(/*initial_rto=*/100, /*min_rto=*/10, /*max_rto=*/1000);
  EXPECT_FALSE(rtt.has_sample());
  EXPECT_EQ(rtt.rto(), 100u);  // no sample yet: the initial RTO

  // First sample: SRTT = R, RTTVAR = R/2, RTO = SRTT + 4 RTTVAR.
  rtt.sample(80);
  EXPECT_EQ(rtt.srtt(), 80u);
  EXPECT_EQ(rtt.rttvar(), 40u);
  EXPECT_EQ(rtt.rto(), 240u);

  // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R| = 30 + 10; SRTT = 7/8 SRTT + R/8.
  rtt.sample(120);
  EXPECT_EQ(rtt.rttvar(), 40u);
  EXPECT_EQ(rtt.srtt(), 85u);  // 80 - 10 + 15
  EXPECT_EQ(rtt.rto(), 245u);

  rtt.sample(40);
  EXPECT_EQ(rtt.rttvar(), 41u);  // 40 - 10 + 45/4
  EXPECT_EQ(rtt.srtt(), 80u);    // 85 - 85/8 + 40/8
  EXPECT_EQ(rtt.rto(), 244u);
}

TEST(TcpControl, RttEstimatorClampsToMinAndMax) {
  RttEstimator low(100, 50, 1000);
  low.sample(4);  // 4 + 4*2 = 12
  EXPECT_EQ(low.rto(), 50u);

  RttEstimator high(100, 50, 1000);
  high.sample(800);  // 800 + 4*400 = 2400
  EXPECT_EQ(high.rto(), 1000u);
  EXPECT_EQ(high.max_rto(), 1000u);

  RttEstimator initial(5000, 50, 1000);
  EXPECT_EQ(initial.rto(), 1000u);  // the initial value is clamped too
}

// -------------------------------------------------- CongestionWindow

TEST(TcpControl, CongestionWindowSlowStartAvoidanceAndLoss) {
  CongestionWindow cc(/*mss=*/100, /*limit=*/1000);
  EXPECT_EQ(cc.cwnd(), 1000u);  // the configured window is the initial one
  EXPECT_EQ(cc.ssthresh(), 1000u);

  cc.on_timeout(/*flight=*/600);  // ssthresh = max(300, 2 MSS)
  EXPECT_EQ(cc.ssthresh(), 300u);
  EXPECT_EQ(cc.cwnd(), 100u);

  // Slow start: min(acked, MSS) per ACK.
  cc.on_ack(100);
  EXPECT_EQ(cc.cwnd(), 200u);
  cc.on_ack(50);
  EXPECT_EQ(cc.cwnd(), 250u);
  cc.on_ack(500);
  EXPECT_EQ(cc.cwnd(), 350u);

  // Congestion avoidance: one MSS per cwnd of acknowledged bytes.
  cc.on_ack(100);
  cc.on_ack(100);
  cc.on_ack(100);
  EXPECT_EQ(cc.cwnd(), 350u);
  cc.on_ack(100);  // 400 >= 350
  EXPECT_EQ(cc.cwnd(), 450u);

  cc.on_fast_retransmit(/*flight=*/300);  // max(150, 200)
  EXPECT_EQ(cc.ssthresh(), 200u);
  EXPECT_EQ(cc.cwnd(), 200u);

  for (int i = 0; i < 100; ++i) cc.on_ack(100);
  EXPECT_EQ(cc.cwnd(), 1000u);  // never above the configured window
}

// --------------------------------------------------------- TcpSender

constexpr sim::Cycles kRto = 100;
constexpr sim::Cycles kMaxRto = 300;

TcpSender sender() {
  return TcpSender(kRto, /*min_rto=*/10, kMaxRto, /*mss=*/100,
                   /*window=*/1000);
}

TEST(TcpControl, NewDataAckTakesTheRttSample) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  TcpFlags data;
  data.ack = true;
  const auto payload = bytes(100);
  s.on_send(1000, data, payload, wheel, /*now=*/0, kTimerRetx);
  EXPECT_TRUE(s.rtt_pending);
  EXPECT_EQ(s.rtt_seq, 1100u);
  EXPECT_NE(s.retx_timer, 0u);

  // A second segment while one is timed starts no new sample.
  s.on_send(1100, data, payload, wheel, /*now=*/20, kTimerRetx);
  EXPECT_EQ(s.rtt_seq, 1100u);
  EXPECT_EQ(s.rtt_sent_at, 0u);

  EXPECT_EQ(s.on_ack(ack_of(1100), 0, 1000, 1200, true, wheel, 60,
                     kTimerRetx),
            AckVerdict::kNewData);
  EXPECT_FALSE(s.rtt_pending);
  ASSERT_TRUE(s.rtt.has_sample());
  EXPECT_EQ(s.rtt.srtt(), 60u);
  EXPECT_EQ(s.rto_cur, 180u);  // 60 + 4 * 30
  EXPECT_EQ(s.retx.size(), 1u);
}

TEST(TcpControl, KarnNoRttSampleAfterARetransmit) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  TcpFlags data;
  data.ack = true;
  s.on_send(1000, data, bytes(100), wheel, 0, kTimerRetx);
  ASSERT_TRUE(s.on_rto(/*flight=*/100));
  const RetxSegment* seg = s.next_resend(/*count_retry=*/true, 8);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->seq, 1000u);
  EXPECT_EQ(seg->retries, 1);
  EXPECT_FALSE(s.rtt_pending);

  EXPECT_EQ(s.on_ack(ack_of(1100), 0, 1000, 1100, true, wheel, 500,
                     kTimerRetx),
            AckVerdict::kNewData);
  EXPECT_FALSE(s.rtt.has_sample());  // the ambiguous ACK is not timed
  EXPECT_EQ(s.rto_cur, kRto);        // but it still resets the backoff
  EXPECT_TRUE(s.retx.empty());
  EXPECT_EQ(s.retx_timer, 0u);       // nothing outstanding: timer off
}

TEST(TcpControl, ThirdDuplicateAckTriggersAndFourthDoesNot) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  const TcpHeader dup = ack_of(1000);
  const auto on_dup = [&] {
    return s.on_ack(dup, 0, /*snd_una=*/1000, /*snd_nxt=*/1600, true, wheel,
                    0, kTimerRetx);
  };
  EXPECT_EQ(on_dup(), AckVerdict::kNone);
  EXPECT_EQ(s.dup_acks, 1u);
  EXPECT_EQ(on_dup(), AckVerdict::kNone);
  EXPECT_EQ(s.dup_acks, 2u);
  EXPECT_EQ(on_dup(), AckVerdict::kFastRetransmit);
  EXPECT_EQ(s.dup_acks, 0u);
  EXPECT_EQ(s.cc.ssthresh(), 300u);  // max(600 / 2, 2 MSS)
  EXPECT_EQ(s.cc.cwnd(), 300u);
  EXPECT_EQ(on_dup(), AckVerdict::kNone);
  EXPECT_EQ(s.dup_acks, 1u);

  // Not duplicates: data-bearing, SYN/FIN, nothing outstanding, not
  // established, or an ACK below snd_una.
  EXPECT_EQ(s.on_ack(dup, 10, 1000, 1600, true, wheel, 0, kTimerRetx),
            AckVerdict::kNone);
  TcpHeader fin = dup;
  fin.flags.fin = true;
  EXPECT_EQ(s.on_ack(fin, 0, 1000, 1600, true, wheel, 0, kTimerRetx),
            AckVerdict::kNone);
  EXPECT_EQ(s.on_ack(dup, 0, 1000, 1000, true, wheel, 0, kTimerRetx),
            AckVerdict::kNone);
  EXPECT_EQ(s.on_ack(dup, 0, 1000, 1600, false, wheel, 0, kTimerRetx),
            AckVerdict::kNone);
  EXPECT_EQ(s.on_ack(ack_of(900), 0, 1000, 1600, true, wheel, 0,
                     kTimerRetx),
            AckVerdict::kNone);
  EXPECT_EQ(s.dup_acks, 1u);

  // New data forgets the count.
  EXPECT_EQ(s.on_ack(ack_of(1100), 0, 1000, 1600, true, wheel, 0,
                     kTimerRetx),
            AckVerdict::kNewData);
  EXPECT_EQ(s.dup_acks, 0u);
}

TEST(TcpControl, ReapCountsSynAndFinSequenceSpace) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  TcpFlags syn;
  syn.syn = true;
  TcpFlags data;
  data.ack = true;
  TcpFlags fin;
  fin.fin = true;
  fin.ack = true;
  EXPECT_EQ(seq_space(syn, 0), 1u);
  EXPECT_EQ(seq_space(data, 10), 10u);
  EXPECT_EQ(seq_space(fin, 0), 1u);
  s.on_send(100, syn, {}, wheel, 0, kTimerRetx);
  s.on_send(101, data, bytes(10), wheel, 0, kTimerRetx);
  s.on_send(111, fin, {}, wheel, 0, kTimerRetx);
  ASSERT_EQ(s.retx.size(), 3u);

  s.on_new_data(100, 101, wheel, 5, kTimerRetx);  // the SYN
  ASSERT_EQ(s.retx.size(), 2u);
  EXPECT_EQ(s.retx.front().seq, 101u);
  s.on_new_data(101, 105, wheel, 5, kTimerRetx);  // part of the data
  ASSERT_EQ(s.retx.size(), 2u);
  s.on_new_data(105, 111, wheel, 5, kTimerRetx);  // the rest
  ASSERT_EQ(s.retx.size(), 1u);
  EXPECT_TRUE(s.retx.front().flags.fin);
  EXPECT_NE(s.retx_timer, 0u);
  s.on_new_data(111, 112, wheel, 5, kTimerRetx);  // the FIN
  EXPECT_TRUE(s.retx.empty());
  EXPECT_EQ(s.retx_timer, 0u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TcpControl, RetryBudgetExhaustsOnlyOnRtoResends) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  TcpFlags data;
  data.ack = true;
  s.on_send(1, data, bytes(4), wheel, 0, kTimerRetx);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(s.next_resend(/*count_retry=*/false, 2), nullptr);
  }
  EXPECT_NE(s.next_resend(true, 2), nullptr);
  EXPECT_NE(s.next_resend(true, 2), nullptr);
  EXPECT_EQ(s.next_resend(true, 2), nullptr);  // third RTO resend
}

TEST(TcpControl, RtoBacksOffDoublingUpToMaxRto) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  EXPECT_FALSE(s.on_rto(0));  // nothing outstanding: no backoff
  EXPECT_EQ(s.rto_cur, kRto);

  TcpFlags data;
  data.ack = true;
  s.on_send(1, data, bytes(400), wheel, 0, kTimerRetx);
  std::vector<sim::TimerWheel::Expired> fired;
  wheel.advance(kRto, fired);
  ASSERT_EQ(fired.size(), 1u);
  s.dup_acks = 2;
  ASSERT_TRUE(s.on_rto(/*flight=*/400));
  EXPECT_EQ(s.rto_cur, 200u);
  EXPECT_EQ(s.dup_acks, 0u);
  EXPECT_EQ(s.cc.cwnd(), 100u);  // collapsed to one MSS
  EXPECT_EQ(s.retx_timer, 0u);   // the fired timer is forgotten
  ASSERT_TRUE(s.on_rto(400));
  EXPECT_EQ(s.rto_cur, kMaxRto);
  ASSERT_TRUE(s.on_rto(400));
  EXPECT_EQ(s.rto_cur, kMaxRto);

  // The retx timer is armed at the backed-off RTO.
  s.arm_retx_timer(wheel, 1000, kTimerRetx);
  EXPECT_EQ(wheel.next_deadline(), 1000 + kMaxRto);
}

TEST(TcpControl, TimeWaitCancelsTheOtherTimers) {
  sim::TimerWheel wheel(10, 64);
  TcpSender s = sender();
  TcpFlags data;
  data.ack = true;
  s.on_send(1, data, bytes(4), wheel, 0, kTimerRetx);
  s.persist_timer = wheel.arm(50, kTimerPersist);
  ASSERT_EQ(wheel.size(), 2u);
  s.enter_time_wait(wheel, 70, kTimerTimeWait);
  EXPECT_EQ(s.retx_timer, 0u);
  EXPECT_EQ(s.persist_timer, 0u);
  EXPECT_EQ(wheel.size(), 1u);
  std::vector<sim::TimerWheel::Expired> fired;
  wheel.advance(200, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, kTimerTimeWait);
  EXPECT_EQ(fired[0].deadline, 70u);
}

// ------------------------------------------------------- RST verdict

TEST(TcpControl, RstVerdictForEveryState) {
  constexpr std::uint32_t kSndNxt = 5000;
  constexpr std::uint32_t kRcvNxt = 9000;
  constexpr std::uint32_t kWnd = 100;
  TcpHeader in_window;
  in_window.flags.rst = true;
  in_window.seq = kRcvNxt + 50;
  TcpHeader at_edge = in_window;
  at_edge.seq = kRcvNxt + kWnd;
  TcpHeader below = in_window;
  below.seq = kRcvNxt - 1;
  TcpHeader acks_syn = in_window;
  acks_syn.flags.ack = true;
  acks_syn.ack = kSndNxt;
  TcpHeader acks_other = acks_syn;
  acks_other.ack = kSndNxt + 1;

  const auto verdict = [&](TcpState st, const TcpHeader& h,
                           std::uint32_t wnd = 100) {
    return rst_verdict(st, h, kSndNxt, kRcvNxt, wnd);
  };
  EXPECT_EQ(verdict(TcpState::Closed, in_window), RstVerdict::kNoState);
  EXPECT_EQ(verdict(TcpState::SynSent, acks_syn), RstVerdict::kAccept);
  EXPECT_EQ(verdict(TcpState::SynSent, acks_other), RstVerdict::kIgnore);
  EXPECT_EQ(verdict(TcpState::SynSent, in_window), RstVerdict::kIgnore);
  EXPECT_EQ(verdict(TcpState::TimeWait, in_window), RstVerdict::kIgnore);
  EXPECT_EQ(verdict(TcpState::TimeWait, acks_syn), RstVerdict::kIgnore);
  for (const TcpState st :
       {TcpState::SynRcvd, TcpState::Established, TcpState::FinSent,
        TcpState::CloseWait, TcpState::LastAck}) {
    SCOPED_TRACE(static_cast<int>(st));
    EXPECT_EQ(verdict(st, in_window), RstVerdict::kAccept);
    EXPECT_EQ(verdict(st, at_edge), RstVerdict::kIgnore);
    EXPECT_EQ(verdict(st, below), RstVerdict::kIgnore);
    // A closed window still accepts a RST at exactly rcv_nxt.
    TcpHeader exact = in_window;
    exact.seq = kRcvNxt;
    EXPECT_EQ(verdict(st, exact, 0), RstVerdict::kAccept);
    EXPECT_EQ(verdict(st, in_window, 0), RstVerdict::kIgnore);
  }

  TcpCounters c;
  EXPECT_FALSE(count_rst(c, RstVerdict::kNoState));
  EXPECT_FALSE(count_rst(c, RstVerdict::kIgnore));
  EXPECT_TRUE(count_rst(c, RstVerdict::kAccept));
  EXPECT_EQ(c.rsts_ignored, 1u);
  EXPECT_EQ(c.rsts_received, 1u);
}

// ---------------------------------------------------------- OooBuffer

TEST(TcpControl, OooBufferTrimsAtRcvNxtWindowEdgeAndByteLimit) {
  OooBuffer ooo;
  const auto data = bytes(20);
  // Entirely below rcv_nxt: a duplicate.
  auto r = ooo.insert(80, data, /*rcv_nxt=*/100, /*window=*/50, 1000);
  EXPECT_TRUE(r.duplicate);
  EXPECT_EQ(ooo.bytes(), 0u);
  // Straddling rcv_nxt: the delivered head is trimmed.
  r = ooo.insert(90, data, 100, 50, 1000);
  EXPECT_EQ(r.buffered, 10u);
  // At or past the window edge: refused.
  r = ooo.insert(150, data, 100, 50, 1000);
  EXPECT_TRUE(r.dropped);
  // Straddling the edge: the tail past it is trimmed.
  r = ooo.insert(140, data, 100, 50, 1000);
  EXPECT_EQ(r.buffered, 10u);
  EXPECT_EQ(ooo.bytes(), 20u);
  // Past the byte limit: refused whole.
  r = ooo.insert(120, data, 100, 50, /*byte_limit=*/30);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(ooo.segments(), 2u);
  // The tail is clipped against the buffered neighbour at 140.
  r = ooo.insert(130, data, 100, 50, 1000);
  EXPECT_EQ(r.buffered, 10u);
  r = ooo.insert(132, bytes(4), 100, 50, 1000);
  EXPECT_TRUE(r.duplicate);  // already buffered
  EXPECT_EQ(ooo.bytes(), 30u);
  EXPECT_EQ(ooo.segments(), 3u);
}

TEST(TcpControl, OooBufferPartialPopRekeysTheRemainder) {
  OooBuffer ooo;
  ASSERT_EQ(ooo.insert(110, bytes(10, 110), 100, 100, 1000).buffered, 10u);
  EXPECT_TRUE(ooo.pop_contiguous(100, 100).empty());  // gap at 100..110

  const auto head = ooo.pop_contiguous(110, 4);
  EXPECT_EQ(head, (std::vector<std::uint8_t>{110, 111, 112, 113}));
  EXPECT_EQ(ooo.bytes(), 6u);
  EXPECT_EQ(ooo.segments(), 1u);

  const auto rest = ooo.pop_contiguous(114, 100);
  EXPECT_EQ(rest, (std::vector<std::uint8_t>{114, 115, 116, 117, 118, 119}));
  EXPECT_EQ(ooo.bytes(), 0u);
  EXPECT_EQ(ooo.segments(), 0u);

  // A segment the in-order path already delivered is purged, not popped.
  ASSERT_EQ(ooo.insert(200, bytes(10), 190, 100, 1000).buffered, 10u);
  EXPECT_TRUE(ooo.pop_contiguous(215, 100).empty());
  EXPECT_EQ(ooo.bytes(), 0u);
  // One that overlaps rcv_nxt yields only its undelivered tail.
  ASSERT_EQ(ooo.insert(200, bytes(10, 200), 190, 100, 1000).buffered, 10u);
  EXPECT_EQ(ooo.pop_contiguous(207, 100),
            (std::vector<std::uint8_t>{207, 208, 209}));
}

// ------------------------------------------------------- header fill

TEST(TcpControl, HeaderFillRoundTripsThroughTheDecoders) {
  const TcpRoute route{Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 0, 2),
                       4000, 80, true};
  const auto payload = bytes(6);
  std::array<std::uint8_t, kSegHdrLen + 6> pkt{};
  TcpFlags flags;
  flags.psh = true;  // no ACK flag: the ack field must go out zero
  const TcpSegmentSpec spec{7, 99, flags, 70000, payload, 42};
  const TcpHeader written = encode_tcp_headers(pkt.data(), route, spec);

  const auto ip = decode_ip(pkt);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kIpProtoTcp);
  EXPECT_EQ(ip->src, route.local_ip);
  EXPECT_EQ(ip->dst, route.remote_ip);
  EXPECT_EQ(ip->total_len, pkt.size());
  EXPECT_EQ(ip->ident, 42u);
  const auto tcp = decode_tcp({pkt.data() + kIpHeaderLen, kTcpHeaderLen});
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->src_port, 4000u);
  EXPECT_EQ(tcp->dst_port, 80u);
  EXPECT_EQ(tcp->seq, 7u);
  EXPECT_EQ(tcp->ack, 0u);
  EXPECT_EQ(tcp->flags, flags);
  EXPECT_EQ(tcp->window, 0xffffu);  // clamped, not truncated
  EXPECT_EQ(tcp->checksum, 0u);
  EXPECT_EQ(written.window, tcp->window);

  TcpSegmentSpec with_ack = spec;
  with_ack.flags.ack = true;
  encode_tcp_headers(pkt.data(), route, with_ack);
  EXPECT_EQ(decode_tcp({pkt.data() + kIpHeaderLen, kTcpHeaderLen})->ack, 99u);
}

}  // namespace
}  // namespace ash::proto

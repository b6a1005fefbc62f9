#include "proto/tcp.hpp"

#include <algorithm>
#include <cstring>

#include "sim/memops.hpp"
#include "sim/node.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"

namespace ash::proto {

TcpConnection::TcpConnection(Link& link, const TcpConfig& config)
    : link_(link),
      cfg_(config),
      route_{cfg_.local_ip, cfg_.remote_ip, cfg_.local_port,
             cfg_.remote_port, cfg_.checksum},
      tx_(cfg_.rto, cfg_.min_rto, cfg_.max_rto, cfg_.mss, cfg_.window) {
  sim::Node& node = link.self().node();
  const std::uint32_t shm_base = link.carve(TcbShm::size_bytes());
  const std::uint32_t stage_cap = 2 * cfg_.window;
  const std::uint32_t stage_base = link.carve(stage_cap);
  const std::uint32_t ack_scratch = link.carve(tcb::kAckBufLen);

  shm_ = TcbShm(node, shm_base);
  for (std::uint32_t w = 0; w < tcb::kWords; ++w) shm_.set(w, 0);
  shm_.set(tcb::kStageBase, stage_base);
  shm_.set(tcb::kStageCap, stage_cap);
  shm_.set(tcb::kLocalPort, cfg_.local_port);
  shm_.set(tcb::kRemotePort, cfg_.remote_port);
  shm_.set(tcb::kLocalIp, cfg_.local_ip.value);
  shm_.set(tcb::kRemoteIp, cfg_.remote_ip.value);
  shm_.set(tcb::kAckScratch, ack_scratch);
  shm_.set(tcb::kChecksumOn, cfg_.checksum ? 1 : 0);
  shm_.set(tcb::kSndWnd, cfg_.window);

  snd_nxt_ = cfg_.iss;
  shm_.set(tcb::kSndNxt, snd_nxt_);
  set_snd_una(cfg_.iss);
  set_state(TcpState::Closed);
  last_advertised_wnd_ = cfg_.window;

  shm_.set(tcb::kSndCwnd, tx_.cc.cwnd());

  // Pre-build the pure-ACK template a downloaded fast-path handler patches
  // and transmits (Section V-B): constant IP header (checksummed) and TCP
  // ports/flags; the handler fills seq/ack/window and the TCP checksum.
  {
    std::uint8_t* t = node.mem(ack_scratch, tcb::kAckBufLen);
    std::memset(t, 0, tcb::kAckBufLen);
    static_assert(tcb::kAckPacketLen == kSegHdrLen);
    TcpSegmentSpec ack;
    ack.flags.ack = true;
    ack.window = cfg_.window;
    encode_tcp_headers(t, route_, ack);
    // Little-endian-word pseudo-header partial for the handler's checksum
    // arithmetic (it sums packet bytes as little-endian words).
    const std::uint32_t pseudo = util::cksum32_accumulate(
        util::cksum32_accumulate(util::bswap32(cfg_.local_ip.value),
                                 util::bswap32(cfg_.remote_ip.value)),
        0x0600u | (static_cast<std::uint32_t>(util::bswap16(20)) << 16));
    shm_.set(tcb::kAckPseudoSum, pseudo);
  }
}

void TcpConnection::set_state(TcpState s) {
  state_ = s;
  shm_.set(tcb::kState, static_cast<std::uint32_t>(s));
}

std::uint32_t TcpConnection::advertised_window() const {
  const std::uint32_t used = shm_.get(tcb::kStageUsed);
  return used >= cfg_.window ? 0 : cfg_.window - used;
}

void TcpConnection::arm_retx_timer() {
  tx_.arm_retx_timer(wheel_, link_.self().node().now(), kTimerRetx);
}

sim::Sub<bool> TcpConnection::send_segment(
    TcpFlags flags, std::span<const std::uint8_t> payload, bool queue_retx) {
  const std::uint32_t seq = snd_nxt_;
  const std::uint32_t consumed = seq_space(flags, payload.size());
  snd_nxt_ = seq + consumed;
  shm_.set(tcb::kSndNxt, snd_nxt_);
  if (queue_retx && consumed > 0) {
    tx_.on_send(seq, flags, payload, wheel_, link_.self().node().now(),
                kTimerRetx);
  }
  if (payload.empty() && !flags.syn && !flags.fin) ++stats_.acks_sent;
  last_advertised_wnd_ = advertised_window();
  return send_tcp_segment(link_, route_,
                          {seq, rcv_nxt(), flags, last_advertised_wnd_,
                           payload, next_ident_++},
                          /*first_tx=*/true);
}

sim::Sub<bool> TcpConnection::send_ack() {
  TcpFlags flags;
  flags.ack = true;
  return send_segment(flags, {}, /*queue_retx=*/false);
}

void TcpConnection::abort_connection() {
  ++stats_.aborts;
  tx_.drop(wheel_);
  ooo_.clear();
  persist_fire_ = false;
  // Readers must not block waiting for data that can no longer arrive.
  peer_fin_seen_ = true;
  listening_ = false;
  set_state(TcpState::Closed);
}

sim::Sub<bool> TcpConnection::resend_front(bool count_retry) {
  if (tx_.retx.empty()) co_return true;
  const RetxSegment* seg = tx_.next_resend(count_retry, cfg_.max_retries);
  if (seg == nullptr) {
    // Retry budget exhausted: the peer is unreachable. A bare `false`
    // here used to strand a half-open TCB (state Established, segments
    // still queued, shared TCB claiming liveness); tear it all down.
    abort_connection();
    co_return false;
  }
  ++stats_.retransmits;
  // Rebuild the segment with its original sequence number.
  co_await send_tcp_segment(link_, route_,
                            {seg->seq, rcv_nxt(), seg->flags,
                             advertised_window(), seg->payload,
                             next_ident_++},
                            /*first_tx=*/false);
  co_return true;
}

sim::Sub<bool> TcpConnection::service_timers() {
  sim::Node& node = link_.self().node();
  std::vector<sim::TimerWheel::Expired> fired;
  wheel_.advance(node.now(), fired);
  for (const auto& t : fired) {
    switch (t.cookie) {
      case kTimerRetx: {
        if (!tx_.on_rto(snd_nxt_ - snd_una())) break;
        ++stats_.rto_timeouts;
        shm_.set(tcb::kSndCwnd, tx_.cc.cwnd());
        const bool alive = co_await resend_front(/*count_retry=*/true);
        if (!alive) co_return false;
        arm_retx_timer();
        break;
      }
      case kTimerPersist:
        tx_.persist_timer = 0;
        persist_fire_ = true;  // the writer sends the probe byte
        break;
      case kTimerTimeWait:
        tx_.timewait_timer = 0;
        if (state_ == TcpState::TimeWait) {
          tx_.retx.clear();
          set_state(TcpState::Closed);
        }
        break;
      default:
        break;
    }
  }
  co_return true;
}

sim::Sub<bool> TcpConnection::wait_step(sim::Cycles horizon) {
  sim::Node& node = link_.self().node();
  sim::Cycles timeout = horizon;
  const auto nd = wheel_.next_deadline();
  if (nd) {
    const sim::Cycles now = node.now();
    timeout = *nd > now ? std::min(horizon, *nd - now) : 0;
  }
  bool got = false;
  if (timeout > 0) {
    auto d = co_await link_.recv_for(timeout);
    if (d) {
      co_await process_packet(*d);
      got = true;
    }
  }
  const bool alive = co_await service_timers();
  co_return got && alive;
}

void TcpConnection::maybe_finish_close() {
  if (snd_una() != snd_nxt_) return;  // our FIN not yet acknowledged
  if (state_ == TcpState::FinSent && peer_fin_seen_) {
    tx_.enter_time_wait(wheel_, link_.self().node().now() + cfg_.time_wait,
                        kTimerTimeWait);
    set_state(TcpState::TimeWait);
  } else if (state_ == TcpState::LastAck) {
    cancel_timer(wheel_, tx_.retx_timer);
    set_state(TcpState::Closed);
  }
}

void TcpConnection::stage_append(const std::uint8_t* data, std::uint32_t len,
                                 sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  const std::uint32_t base = shm_.get(tcb::kStageBase);
  const std::uint32_t cap = shm_.get(tcb::kStageCap);
  std::uint32_t wr = shm_.get(tcb::kStageWr);
  std::uint32_t used = shm_.get(tcb::kStageUsed);
  if (used == 0) {
    wr = 0;
    shm_.set(tcb::kStageRd, 0);
  }

  // `data` points into sim memory (the rx buffer); compute its sim address
  // from the node's base pointer so the copy is charged properly.
  const std::uint32_t src_addr =
      static_cast<std::uint32_t>(data - node.mem(0, 1));

  std::uint32_t first = std::min(len, cap - wr);
  if (cfg_.in_place) {
    // Zero-copy mode: bytes move for simulation fidelity, free of charge.
    std::memcpy(node.mem(base + wr, first), node.mem(src_addr, first), first);
    if (first < len) {
      std::memcpy(node.mem(base, len - first),
                  node.mem(src_addr + first, len - first), len - first);
    }
  } else {
    *cycles += sim::memops::copy(node, base + wr, src_addr, first);
    if (first < len) {
      *cycles += sim::memops::copy(node, base, src_addr + first, len - first);
    }
  }
  wr = (wr + len) % cap;
  used += len;
  shm_.set(tcb::kStageWr, wr);
  shm_.set(tcb::kStageUsed, used);
}

void TcpConnection::drain_ooo(sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  for (;;) {
    const std::uint32_t used = shm_.get(tcb::kStageUsed);
    const std::uint32_t cap = shm_.get(tcb::kStageCap);
    if (used >= cap) return;
    std::vector<std::uint8_t> run = ooo_.pop_contiguous(rcv_nxt(), cap - used);
    if (run.empty()) return;
    // The bytes live in host memory (they were copied out of a released
    // rx buffer); stage them via a scratch copy in the rx area of sim
    // memory is unnecessary — append directly and charge the same copy
    // cost the in-order path pays.
    const std::uint32_t base = shm_.get(tcb::kStageBase);
    std::uint32_t wr = shm_.get(tcb::kStageWr);
    std::uint32_t u = used;
    if (u == 0) {
      wr = 0;
      shm_.set(tcb::kStageRd, 0);
    }
    const std::uint32_t len = static_cast<std::uint32_t>(run.size());
    const std::uint32_t first = std::min(len, cap - wr);
    std::memcpy(node.mem(base + wr, first), run.data(), first);
    if (first < len) {
      std::memcpy(node.mem(base, len - first), run.data() + first,
                  len - first);
    }
    if (!cfg_.in_place) {
      // The store loop walks offsets wr+off modulo the ring; the words
      // from the first one whose offset wraps restart at the ring base.
      const std::uint32_t unwrapped =
          std::min(len, (cap - wr + 3) / 4 * 4);
      *cycles += sim::memops::stage_store_cycles(node, base + wr, unwrapped);
      *cycles += sim::memops::stage_store_cycles(
          node, base + wr + unwrapped - cap, len - unwrapped);
    }
    shm_.set(tcb::kStageWr, (wr + len) % cap);
    shm_.set(tcb::kStageUsed, u + len);
    set_rcv_nxt(rcv_nxt() + len);
    stats_.ooo_reassembled += len;
  }
}

sim::Sub<void> TcpConnection::process_packet(const net::RxDesc& d) {
  sim::Node& node = link_.self().node();
  const std::uint32_t ip_off = link_.rx_ip_offset();
  if (d.len < ip_off) {
    link_.release(d);
    co_return;
  }
  const std::uint8_t* p = node.mem(d.addr + ip_off, d.len - ip_off);
  ++stats_.segments_in;

  const auto ip = decode_ip({p, d.len - ip_off});
  if (!ip || ip->protocol != kIpProtoTcp || ip->dst != cfg_.local_ip) {
    link_.release(d);
    co_return;
  }
  const std::uint32_t seg_len = ip->total_len - kIpHeaderLen;
  const auto tcp = decode_tcp({p + kIpHeaderLen, seg_len});
  if (!tcp || tcp->dst_port != cfg_.local_port ||
      (state_ != TcpState::Closed && tcp->src_port != cfg_.remote_port)) {
    link_.release(d);
    co_return;
  }
  const std::uint32_t plen =
      seg_len - static_cast<std::uint32_t>(kTcpHeaderLen);

  // Header prediction (RFC 1185-style fast path): established, plain
  // ACK(+data), exactly the next expected sequence number.
  const bool predicted =
      state_ == TcpState::Established && tcp->flags.ack && !tcp->flags.syn &&
      !tcp->flags.fin && !tcp->flags.rst && tcp->seq == rcv_nxt();
  if (predicted) {
    ++stats_.fastpath_hits;
  } else {
    ++stats_.slowpath;
  }
  co_await link_.self().compute(predicted
                                    ? node.cost().tcp_fastpath_overhead
                                    : node.cost().tcp_slowpath_overhead);

  if (cfg_.checksum) {
    std::uint32_t sum = 0;
    const sim::Cycles ck =
        node.cost().udp_cksum_setup +
        sim::memops::cksum(node, d.addr + ip_off + kIpHeaderLen, seg_len,
                           &sum);
    co_await link_.self().compute(ck);
    if (util::fold16(transport_sum_le(
            ip->src, ip->dst, kIpProtoTcp,
            static_cast<std::uint16_t>(seg_len), sum)) != 0xffff) {
      ++stats_.cksum_failures;
      link_.release(d);
      co_return;
    }
  }

  shm_.set(tcb::kLibBusy, 1);

  // --- RST ---
  if (tcp->flags.rst) {
    if (count_rst(stats_, rst_verdict(state_, *tcp, snd_nxt_, rcv_nxt(),
                                      advertised_window()))) {
      abort_connection();
    }
    shm_.set(tcb::kLibBusy, 0);
    link_.release(d);
    co_return;
  }

  bool ack_needed = false;

  // --- ACK processing ---
  if (tcp->flags.ack && state_ != TcpState::Closed) {
    const AckVerdict ack = tx_.on_ack(
        *tcp, plen, snd_una(), snd_nxt_, state_ == TcpState::Established,
        wheel_, node.now(), kTimerRetx);
    if (ack == AckVerdict::kNewData) set_snd_una(tcp->ack);
    shm_.set(tcb::kSndCwnd, tx_.cc.cwnd());
    if (ack == AckVerdict::kFastRetransmit) {
      ++stats_.fast_retransmits;
      shm_.set(tcb::kLibBusy, 0);
      link_.release(d);
      if (seq_le(tcp->ack, snd_nxt_)) shm_.set(tcb::kSndWnd, tcp->window);
      co_await resend_front(/*count_retry=*/false);
      arm_retx_timer();
      co_return;
    }
    if (seq_le(tcp->ack, snd_nxt_)) {
      shm_.set(tcb::kSndWnd, tcp->window);
      if (tcp->window > 0) cancel_timer(wheel_, tx_.persist_timer);
    }
  }

  // --- state transitions ---
  switch (state_) {
    case TcpState::Closed:
      if (listening_ && tcp->flags.syn && !tcp->flags.ack) {
        set_rcv_nxt(tcp->seq + 1);
        set_state(TcpState::SynRcvd);
        TcpFlags synack;
        synack.syn = true;
        synack.ack = true;
        shm_.set(tcb::kLibBusy, 0);
        link_.release(d);
        co_await send_segment(synack, {}, /*queue_retx=*/true);
        co_return;
      }
      if (cfg_.rst_when_closed && !listening_) {
        // No connection state for this segment: answer with RST so the
        // peer tears down instead of retrying into a void (RFC 793).
        const std::uint32_t rseq = tcp->flags.ack ? tcp->ack : 0;
        const std::uint32_t rack = tcp->seq + seq_space(tcp->flags, plen);
        shm_.set(tcb::kLibBusy, 0);
        link_.release(d);
        ++stats_.rsts_sent;
        co_await send_tcp_rst(link_, route_, rseq, rack,
                              /*with_ack=*/!tcp->flags.ack, next_ident_++);
        co_return;
      }
      break;
    case TcpState::SynSent:
      if (tcp->flags.syn && tcp->flags.ack && tcp->ack == cfg_.iss + 1) {
        set_rcv_nxt(tcp->seq + 1);
        set_state(TcpState::Established);
        ack_needed = true;
      }
      break;
    case TcpState::TimeWait:
      // 2MSL quarantine: re-ACK a retransmitted FIN (the peer's last ACK
      // was lost) and restart the clock; anything out of window is
      // counted and challenged with a bare ACK.
      if (tcp->flags.fin && seq_lt(tcp->seq, rcv_nxt())) {
        ++stats_.dup_segments;
        cancel_timer(wheel_, tx_.timewait_timer);
        tx_.timewait_timer =
            wheel_.arm(node.now() + cfg_.time_wait, kTimerTimeWait);
        ack_needed = true;
      } else if (!seq_le(rcv_nxt(), tcp->seq) ||
                 !seq_lt(tcp->seq, rcv_nxt() + std::max(advertised_window(),
                                                        1u))) {
        ++stats_.timewait_drops;
        ack_needed = true;  // challenge ACK re-asserts our view
      }
      break;
    case TcpState::SynRcvd:
      if (tcp->flags.ack && tcp->ack == snd_nxt_) {
        set_state(TcpState::Established);
      }
      [[fallthrough]];
    case TcpState::Established:
    case TcpState::CloseWait:
    case TcpState::LastAck:
    case TcpState::FinSent: {
      // --- data ---
      if (plen > 0 && state_ != TcpState::SynRcvd) {
        const std::uint32_t used = shm_.get(tcb::kStageUsed);
        const std::uint32_t cap = shm_.get(tcb::kStageCap);
        sim::Cycles cycles = 0;
        if (tcp->seq == rcv_nxt() && used + plen <= cap) {
          stage_append(p + kSegHdrLen, plen, &cycles);
          set_rcv_nxt(rcv_nxt() + plen);
          if (cfg_.reassemble) drain_ooo(&cycles);
        } else if (seq_le(tcp->seq + plen, rcv_nxt())) {
          ++stats_.dup_segments;  // retransmission of delivered data
        } else if (tcp->seq == rcv_nxt()) {
          ++stats_.stage_full_drops;  // in order, but nowhere to put it
        } else if (!cfg_.reassemble) {
          ++stats_.ooo_dropped;  // baseline receiver: reorder = drop
        } else {
          const auto r = ooo_.insert(tcp->seq, {p + kSegHdrLen, plen},
                                     rcv_nxt(), cfg_.window, ooo_limit());
          if (r.buffered > 0) {
            ++stats_.ooo_buffered;
          } else if (r.duplicate) {
            ++stats_.dup_segments;
          } else {
            ++stats_.ooo_dropped;  // out of window or store full
          }
        }
        co_await link_.self().compute(cycles);
        ack_needed = true;
      }
      // --- FIN ---
      if (tcp->flags.fin) {
        if (tcp->seq + plen == rcv_nxt()) {
          set_rcv_nxt(rcv_nxt() + 1);
          peer_fin_seen_ = true;
          if (state_ == TcpState::Established) set_state(TcpState::CloseWait);
          ack_needed = true;
        } else if (seq_lt(tcp->seq + plen, rcv_nxt())) {
          ++stats_.dup_segments;  // retransmitted FIN: re-ACK
          ack_needed = true;
        }
        // A FIN beyond rcv_nxt waits for the gap to fill; the peer
        // retransmits it.
      }
      break;
    }
  }

  maybe_finish_close();
  shm_.set(tcb::kLibBusy, 0);
  link_.release(d);
  if (ack_needed) co_await send_ack();
}

sim::Sub<bool> TcpConnection::connect() {
  listening_ = false;
  set_state(TcpState::SynSent);
  TcpFlags syn;
  syn.syn = true;
  co_await send_segment(syn, {}, /*queue_retx=*/true);
  while (state_ != TcpState::Established) {
    if (state_ == TcpState::Closed) co_return false;  // RST or exhaustion
    co_await wait_step(tx_.rto_cur);
  }
  co_return true;
}

sim::Sub<bool> TcpConnection::accept() {
  listening_ = true;
  while (state_ != TcpState::Established) {
    if (state_ == TcpState::Closed && !listening_) co_return false;
    co_await wait_step(tx_.rto_cur);
  }
  listening_ = false;
  co_return true;
}

sim::Sub<bool> TcpConnection::write_from(std::uint32_t app_addr,
                                         std::uint32_t len) {
  sim::Node& node = link_.self().node();
  const std::uint32_t end_seq = snd_nxt_ + len;
  std::uint32_t sent = 0;

  while (seq_lt(snd_una(), end_seq)) {
    if (state_ == TcpState::Closed) co_return false;

    // Fill min(peer window, congestion window).
    while (sent < len) {
      const std::uint32_t inflight = snd_nxt_ - snd_una();
      const std::uint32_t wnd =
          std::min({snd_wnd(), cfg_.window, tx_.cc.cwnd()});
      if (inflight >= wnd) break;
      const std::uint32_t chunk =
          std::min({cfg_.mss, len - sent, wnd - inflight});
      if (chunk == 0) break;
      const std::uint8_t* src = node.mem(app_addr + sent, chunk);
      TcpFlags flags;
      flags.ack = true;
      flags.psh = sent + chunk == len;
      const bool sent_ok =
          co_await send_segment(flags, {src, chunk}, /*queue_retx=*/true);
      if (!sent_ok) co_return false;
      sent += chunk;
    }

    // Zero-window persist: the peer closed its window with nothing of
    // ours in flight — without a probe, a lost window-update ACK would
    // deadlock both sides forever. The probe byte rides the normal
    // retransmission machinery, so follow-up probes back off with it.
    if (sent < len && snd_nxt_ == snd_una() && snd_wnd() == 0) {
      if (persist_fire_) {
        persist_fire_ = false;
        ++stats_.persist_probes;
        const std::uint8_t* src = node.mem(app_addr + sent, 1);
        TcpFlags flags;
        flags.ack = true;
        co_await send_segment(flags, {src, 1}, /*queue_retx=*/true);
        sent += 1;
        continue;
      }
      if (tx_.persist_timer == 0) {
        tx_.persist_timer = wheel_.arm(node.now() + tx_.rto_cur, kTimerPersist);
      }
    }

    // Wait for ACK progress.
    if (handler_attached_) {
      const std::uint32_t before = snd_una();
      const sim::Cycles deadline = node.now() + tx_.rto_cur;
      while (snd_una() == before) {
        if (auto d = link_.try_recv()) {
          co_await process_packet(*d);  // handler fallback path
          break;
        }
        if (node.now() >= deadline) break;
        co_await link_.self().spin(
            node.cost().poll_iteration, deadline, [this, before] {
              return snd_una() != before || link_.rx_pending();
            });
      }
      const std::uint32_t after = snd_una();
      if (after == before) {
        // A segment may have landed between the last poll and the
        // deadline check; process it instead of discarding the dequeued
        // descriptor (which would lose the segment and leak its buffer).
        if (auto d = link_.try_recv()) {
          co_await process_packet(*d);
        } else {
          const bool alive = co_await service_timers();
          if (!alive) co_return false;
          if (wheel_.size() == 0 && !tx_.retx.empty()) arm_retx_timer();
        }
      } else if (seq_lt(before, after)) {
        // The downloaded handler consumed the ACKs: reconcile the
        // retransmit queue and grow the congestion window here. The
        // sample's ACK was consumed unseen, so no RTT sample.
        tx_.rtt_pending = false;
        tx_.on_new_data(before, after, wheel_, node.now(), kTimerRetx);
        shm_.set(tcb::kSndCwnd, tx_.cc.cwnd());
      }
    } else {
      co_await wait_step(tx_.rto_cur);
    }
  }
  co_return true;
}

sim::Sub<std::uint32_t> TcpConnection::read_into(std::uint32_t app_addr,
                                                 std::uint32_t max_len) {
  return read_stage(app_addr, max_len, /*copy=*/true);
}

sim::Sub<std::uint32_t> TcpConnection::read_discard(std::uint32_t max_len) {
  return read_stage(0, max_len, /*copy=*/false);
}

sim::Sub<std::uint32_t> TcpConnection::read_stage(std::uint32_t app_addr,
                                                  std::uint32_t max_len,
                                                  bool copy) {
  sim::Node& node = link_.self().node();
  for (;;) {
    const std::uint32_t used = shm_.get(tcb::kStageUsed);
    if (used > 0) {
      const std::uint32_t cap = shm_.get(tcb::kStageCap);
      const std::uint32_t rd = shm_.get(tcb::kStageRd);
      const std::uint32_t n = std::min(used, max_len);
      sim::Cycles cycles = 0;
      if (copy) {
        const std::uint32_t base = shm_.get(tcb::kStageBase);
        const std::uint32_t first = std::min(n, cap - rd);
        cycles += sim::memops::copy(node, app_addr, base + rd, first);
        if (first < n) {
          cycles +=
              sim::memops::copy(node, app_addr + first, base, n - first);
        }
      }
      shm_.set(tcb::kStageRd, (rd + n) % cap);
      shm_.set(tcb::kStageUsed, used - n);
      if (used - n == 0) {
        shm_.set(tcb::kStageRd, 0);
        shm_.set(tcb::kStageWr, 0);
      }
      if (handler_attached_) {
        cycles += node.cost().tcp_handler_read_overhead *
                  ((n + cfg_.mss - 1) / cfg_.mss);
      }
      if (copy || handler_attached_) co_await link_.self().compute(cycles);
      // Window update if consumption re-opened it: a full MSS of fresh
      // space, or ANY space after advertising zero (a sub-MSS reader
      // must still un-wedge a persisting peer).
      const std::uint32_t adv = advertised_window();
      if (adv >= last_advertised_wnd_ + cfg_.mss ||
          (last_advertised_wnd_ == 0 && adv > 0)) {
        ++stats_.window_updates;
        co_await send_ack();
      }
      co_return n;
    }
    if (peer_fin_seen_) co_return 0;
    if (state_ == TcpState::Closed) co_return 0;

    if (handler_attached_) {
      if (auto d = link_.try_recv()) {
        co_await process_packet(*d);
      } else {
        const bool alive = co_await service_timers();
        if (!alive) co_return 0;
        // Charge this check first: service_timers() may have run the
        // clock or closed the connection, so the next check is a period
        // on. Then poll until a check above can pass (staged bytes, FIN,
        // close, a frame) or the next timer is due.
        const sim::Cycles poll = node.cost().poll_iteration;
        co_await link_.self().compute(poll);
        co_await link_.self().spin(
            poll, wheel_.next_deadline().value_or(sim::kNever), [this] {
              return shm_.get(tcb::kStageUsed) > 0 || peer_fin_seen_ ||
                     state_ == TcpState::Closed || link_.rx_pending();
            });
      }
    } else {
      co_await wait_step(tx_.rto_cur);
    }
  }
}

sim::Sub<void> TcpConnection::close() {
  if (state_ == TcpState::SynSent) {
    // Nothing of ours is established; just delete the half-open TCB.
    abort_connection();
    co_return;
  }
  if (state_ == TcpState::Established || state_ == TcpState::SynRcvd) {
    TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    co_await send_segment(fin, {}, /*queue_retx=*/true);
    set_state(TcpState::FinSent);
  } else if (state_ == TcpState::CloseWait) {
    TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    co_await send_segment(fin, {}, /*queue_retx=*/true);
    set_state(TcpState::LastAck);
  }
  maybe_finish_close();

  int idle_rounds = 0;
  while (state_ != TcpState::Closed) {
    if (state_ == TcpState::TimeWait) {
      // Only the 2MSL clock (or a retransmitted FIN) matters now.
      co_await wait_step(cfg_.time_wait);
      continue;
    }
    const bool got = co_await wait_step(tx_.rto_cur);
    maybe_finish_close();
    if (got) {
      idle_rounds = 0;
    } else if (++idle_rounds > cfg_.max_retries &&
               state_ != TcpState::Closed) {
      // FIN_WAIT_2-style give-up: our FIN is acked but the peer never
      // sends its own. Drop what's left rather than wait forever.
      tx_.retx.clear();
      tx_.cancel_timers(wheel_);
      set_state(TcpState::Closed);
    }
  }
}

}  // namespace ash::proto

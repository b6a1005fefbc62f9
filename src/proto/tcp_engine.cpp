#include "proto/tcp_engine.hpp"

#include <algorithm>

#include "sim/memops.hpp"
#include "sim/node.hpp"
#include "util/checksum.hpp"

namespace ash::proto {

namespace {
// Cap the pure-ACK debt per flow: beyond this the extra dup-ACKs carry
// no more information (fast retransmit triggers at three).
constexpr std::uint32_t kMaxAcksOwed = 4;
}  // namespace

TcpEngine::TcpEngine(Link& link, const Config& config)
    : link_(link),
      cfg_(config),
      wheel_(config.wheel_granularity, config.wheel_buckets) {
  shards_.resize(std::max<std::size_t>(1, cfg_.shards));
}

TcpEngine::~TcpEngine() = default;

// --------------------------------------------------------------- lookup

TcpEngine::Tcb* TcpEngine::find(ConnId id) noexcept {
  const auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second->dead) return nullptr;
  return it->second;
}

const TcpEngine::Tcb* TcpEngine::find(ConnId id) const noexcept {
  const auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second->dead) return nullptr;
  return it->second;
}

std::size_t TcpEngine::shard_for(const FlowKey& key) const {
  if (shards_.size() <= 1) return 0;  // pick() would return 0 unhashed
  return cfg_.steering.pick(flow_channel(cfg_.local_ip, key), nullptr,
                            shards_.size());
}

TcpEngine::Tcb* TcpEngine::lookup(const FlowKey& key) noexcept {
  auto& map = shards_[shard_for(key)];
  const auto it = map.find(key);
  return it == map.end() ? nullptr : it->second.get();
}

TcpEngine::Tcb& TcpEngine::create_tcb(const FlowKey& key, Callbacks cbs) {
  const std::size_t shard = shard_for(key);
  auto tcb = std::make_unique<Tcb>();
  Tcb& t = *tcb;
  t.id = next_id_++;
  t.key = key;
  t.shard = shard;
  t.cbs = std::move(cbs);
  // Distinct ISS per flow keeps sequence spaces from aliasing in traces.
  const std::uint32_t iss = cfg_.iss + t.id * 0x01000000u;
  t.snd_nxt = iss;
  t.snd_una = iss;
  t.peer_wnd = cfg_.window;
  t.last_adv_wnd = cfg_.rcv_limit;
  t.tx = TcpSender(cfg_.rto, cfg_.min_rto, cfg_.max_rto, cfg_.mss,
                   cfg_.window);
  shards_[shard].emplace(key, std::move(tcb));
  by_id_.emplace(t.id, &t);
  return t;
}

void TcpEngine::destroy_tcb(Tcb& t) {
  if (t.dead) return;
  t.dead = true;
  t.tx.drop(wheel_);
  if (t.listener != nullptr && t.state == TcpState::SynRcvd) {
    --t.listener->pending;
  }
  t.state = TcpState::Closed;
  t.sndbuf.release();
  t.rcvbuf.release();
  t.ooo.clear();
  dead_.push_back(t.id);
}

void TcpEngine::reap_dead() {
  // on_closed may destroy more flows, which land in dead_ while this
  // batch runs; the two buffers trade places and both keep capacity.
  while (!dead_.empty()) {
    reaping_.clear();
    reaping_.swap(dead_);
    for (const ConnId id : reaping_) {
      const auto it = by_id_.find(id);
      if (it == by_id_.end()) continue;
      Tcb* t = it->second;
      // The upcall sees the id one last time; the TCB is unreachable
      // through the public API already (find() skips dead flows).
      if (t->cbs.on_closed) t->cbs.on_closed(id);
      ++stats_.conns_closed;
      by_id_.erase(it);
      shards_[t->shard].erase(t->key);  // frees *t
    }
  }
}

void TcpEngine::mark_dirty(Tcb& t) {
  if (t.dirty || t.dead) return;
  t.dirty = true;
  dirty_.push_back(t.id);
}

// --------------------------------------------------------------- timers

void TcpEngine::service_timers() {
  expired_.clear();
  wheel_.advance(link_.self().node().now(), expired_);
  for (const auto& e : expired_) {
    const auto id = static_cast<ConnId>(e.cookie >> 2);
    const auto kind = static_cast<TcpTimerKind>(e.cookie & 3);
    const auto it = by_id_.find(id);
    if (it == by_id_.end() || it->second->dead) continue;
    Tcb& t = *it->second;
    switch (kind) {
      case kTimerRetx:
        if (!t.tx.on_rto(t.snd_nxt - t.snd_una)) break;
        ++stats_.rto_timeouts;
        t.retx_fired = true;
        mark_dirty(t);
        break;
      case kTimerPersist:
        t.tx.persist_timer = 0;
        t.persist_fire = true;
        mark_dirty(t);
        break;
      case kTimerTimeWait:
        // 2MSL expiry, or the FIN_WAIT_2 give-up for a peer that never
        // sent its FIN. Either way the flow is done.
        t.tx.timewait_timer = 0;
        destroy_tcb(t);
        break;
    }
  }
}

// -------------------------------------------------------- control plane

TcpEngine::TcpListener& TcpEngine::listen(std::uint16_t port,
                                          ListenConfig cfg) {
  TcpListener& l = listeners_[port];
  l.port = port;
  l.cfg = std::move(cfg);
  return l;
}

TcpEngine::ConnId TcpEngine::connect(Ipv4Addr remote_ip,
                                     std::uint16_t remote_port,
                                     std::uint16_t local_port,
                                     Callbacks callbacks) {
  const FlowKey key{remote_ip, remote_port, local_port};
  if (lookup(key) != nullptr) return 0;  // 4-tuple already in use
  Tcb& t = create_tcb(key, std::move(callbacks));
  t.state = TcpState::SynSent;
  t.syn_queued = true;
  ++stats_.conns_opened;
  mark_dirty(t);
  return t.id;
}

void TcpEngine::close(ConnId id) {
  Tcb* t = find(id);
  if (t == nullptr) return;
  switch (t->state) {
    case TcpState::SynSent:
    case TcpState::SynRcvd:
      destroy_tcb(*t);  // nothing established to tear down politely
      break;
    case TcpState::Established:
    case TcpState::CloseWait:
      t->fin_pending = true;
      mark_dirty(*t);
      break;
    default:
      break;  // already closing or closed
  }
}

void TcpEngine::abort(ConnId id) {
  Tcb* t = find(id);
  if (t == nullptr) return;
  abort_flow(*t, /*rst_peer=*/true);
}

void TcpEngine::abort_flow(Tcb& t, bool rst_peer) {
  ++stats_.aborts;
  if (rst_peer && t.state != TcpState::Closed) {
    raw_rsts_.push_back(RawRst{t.key, t.snd_nxt, t.rcv_nxt, true});
  }
  destroy_tcb(t);
}

// ----------------------------------------------------------- data plane

bool TcpEngine::write(ConnId id, std::span<const std::uint8_t> data) {
  Tcb* t = find(id);
  if (t == nullptr || t->fin_pending || t->fin_sent) return false;
  switch (t->state) {
    case TcpState::SynSent:
    case TcpState::SynRcvd:
    case TcpState::Established:
    case TcpState::CloseWait:
      break;
    default:
      return false;
  }
  t->sndbuf.append(data);
  if (t->state == TcpState::Established ||
      t->state == TcpState::CloseWait) {
    mark_dirty(*t);
  }
  return true;
}

std::size_t TcpEngine::read(ConnId id, std::uint8_t* out,
                            std::size_t max_len) {
  Tcb* t = find(id);
  if (t == nullptr) return 0;
  const std::size_t n = t->rcvbuf.take(out, max_len);
  // Receiver-side deadlock fix shared with TcpConnection: reopening the
  // window in sub-MSS steps must still tell a persist-probing sender.
  const std::uint32_t adv = adv_window(*t);
  if (n > 0 && (adv >= t->last_adv_wnd + cfg_.mss ||
                (t->last_adv_wnd == 0 && adv > 0))) {
    ++stats_.window_updates;
    if (t->acks_owed == 0) t->acks_owed = 1;
    mark_dirty(*t);
  }
  return n;
}

std::size_t TcpEngine::readable(ConnId id) const {
  const Tcb* t = find(id);
  return t == nullptr ? 0 : t->rcvbuf.size();
}

bool TcpEngine::at_eof(ConnId id) const {
  const Tcb* t = find(id);
  if (t == nullptr) return true;
  return t->peer_fin && t->rcvbuf.empty();
}

std::optional<TcpState> TcpEngine::state(ConnId id) const {
  const Tcb* t = find(id);
  if (t == nullptr) return std::nullopt;
  return t->state;
}

std::size_t TcpEngine::unsent(ConnId id) const {
  const Tcb* t = find(id);
  return t == nullptr ? 0 : t->sndbuf.size();
}

std::size_t TcpEngine::shard_of(ConnId id) const {
  const Tcb* t = find(id);
  return t == nullptr ? 0 : t->shard;
}

std::vector<std::size_t> TcpEngine::shard_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s.size());
  return out;
}

std::uint32_t TcpEngine::adv_window(const Tcb& t) const {
  const auto used = static_cast<std::uint32_t>(t.rcvbuf.size());
  return used >= cfg_.rcv_limit ? 0 : cfg_.rcv_limit - used;
}

// -------------------------------------------------------------- receive

void TcpEngine::signal_readable(Tcb& t) {
  if (!t.cbs.on_readable) return;
  if (t.rcvbuf.empty() && t.peer_fin) {
    if (t.readable_eof_signaled) return;
    t.readable_eof_signaled = true;
  }
  t.cbs.on_readable(t.id);
}

void TcpEngine::process_frame(const net::RxDesc& d, sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  const std::uint32_t ip_off = link_.rx_ip_offset();
  if (d.len < ip_off) return;
  const std::uint8_t* p = node.mem(d.addr + ip_off, d.len - ip_off);
  ++stats_.segments_in;

  const auto ip = decode_ip({p, d.len - ip_off});
  if (!ip || ip->protocol != kIpProtoTcp || ip->dst != cfg_.local_ip) {
    return;
  }
  const std::uint32_t seg_len = ip->total_len - kIpHeaderLen;
  const auto tcp = decode_tcp({p + kIpHeaderLen, seg_len});
  if (!tcp) return;
  const std::uint32_t plen =
      seg_len - static_cast<std::uint32_t>(kTcpHeaderLen);

  *cycles += node.cost().tcp_slowpath_overhead;
  if (cfg_.checksum) {
    std::uint32_t sum = 0;
    *cycles += node.cost().udp_cksum_setup;
    *cycles += sim::memops::cksum(node, d.addr + ip_off + kIpHeaderLen,
                                  seg_len, &sum);
    if (util::fold16(transport_sum_le(
            ip->src, ip->dst, kIpProtoTcp,
            static_cast<std::uint16_t>(seg_len), sum)) != 0xffff) {
      ++stats_.cksum_failures;
      return;
    }
  }

  const FlowKey key{ip->src, tcp->src_port, tcp->dst_port};
  Tcb* t = lookup(key);
  if (t != nullptr && !t->dead) {
    process_segment(*t, *tcp, {p + kIpHeaderLen + kTcpHeaderLen, plen},
                    cycles);
    return;
  }

  // No flow state. A fresh SYN may match a listener; anything else is
  // answered with a RST (RFC 793 CLOSED rules), never with one for an
  // inbound RST (no RST storms).
  if (tcp->flags.syn && !tcp->flags.ack) {
    handle_syn(key, *tcp);
    return;
  }
  if (tcp->flags.rst || !cfg_.rst_unknown) return;
  ++stats_.unknown_flow_rsts;
  RawRst r;
  r.key = key;
  if (tcp->flags.ack) {
    r.seq = tcp->ack;
    r.with_ack = false;
  } else {
    r.seq = 0;
    r.ack = tcp->seq + plen + (tcp->flags.syn ? 1 : 0) +
            (tcp->flags.fin ? 1 : 0);
    r.with_ack = true;
  }
  raw_rsts_.push_back(r);
}

void TcpEngine::handle_syn(const FlowKey& key, const TcpHeader& tcp) {
  const auto lit = listeners_.find(key.local_port);
  if (lit == listeners_.end()) {
    if (cfg_.rst_unknown) {
      ++stats_.unknown_flow_rsts;
      raw_rsts_.push_back(RawRst{key, 0, tcp.seq + 1, true});
    }
    return;
  }
  TcpListener& l = lit->second;
  if (l.pending >= l.cfg.backlog) {
    // Full backlog: drop silently — the client's SYN retransmit is the
    // retry path, exactly like a kernel with a full SYN queue.
    ++l.backlog_drops;
    ++stats_.syn_backlog_drops;
    return;
  }
  Tcb& t = create_tcb(key, l.cfg.callbacks);
  t.listener = &l;
  ++l.pending;
  t.state = TcpState::SynRcvd;
  t.rcv_nxt = tcp.seq + 1;
  t.peer_wnd = tcp.window;
  t.synack_queued = true;
  mark_dirty(t);
}

void TcpEngine::process_ack(Tcb& t, const TcpHeader& tcp,
                            std::uint32_t plen) {
  const AckVerdict ack =
      t.tx.on_ack(tcp, plen, t.snd_una, t.snd_nxt,
                  t.state == TcpState::Established, wheel_,
                  link_.self().node().now(), cookie(t, kTimerRetx));
  if (ack == AckVerdict::kNewData) {
    t.snd_una = tcp.ack;
    if (!t.sndbuf.empty() || t.fin_pending) mark_dirty(t);
  } else if (ack == AckVerdict::kFastRetransmit) {
    ++stats_.fast_retransmits;
    t.fast_retx_pending = true;
    mark_dirty(t);
  }
  if (seq_le(tcp.ack, t.snd_nxt)) {
    t.peer_wnd = tcp.window;
    if (t.peer_wnd > 0) {
      cancel_timer(wheel_, t.tx.persist_timer);
      t.persist_fire = false;
      if (!t.sndbuf.empty() || t.fin_pending) mark_dirty(t);
    }
  }
}

void TcpEngine::process_data(Tcb& t, const TcpHeader& tcp,
                             std::span<const std::uint8_t> payload,
                             sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  const auto plen = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t space = adv_window(t);
  const auto owe_ack = [this, &t] {
    if (t.acks_owed < kMaxAcksOwed) ++t.acks_owed;
    mark_dirty(t);
  };

  if (tcp.seq == t.rcv_nxt) {
    if (plen <= space) {
      t.rcvbuf.append(payload);
      t.rcv_nxt += plen;
      // Network-buffer-to-socket-buffer copy, charged per word like the
      // library's staging append.
      *cycles += (plen + 3) / 4 * node.cost().copy_loop_insns_per_word;
      // Anything now contiguous in the OOO store rides along.
      if (cfg_.reassemble) {
        const std::vector<std::uint8_t> run =
            t.ooo.pop_contiguous(t.rcv_nxt, adv_window(t));
        const auto len = static_cast<std::uint32_t>(run.size());
        t.rcvbuf.append(run);
        t.rcv_nxt += len;
        stats_.ooo_reassembled += len;
        *cycles += (len + 3) / 4 * node.cost().copy_loop_insns_per_word;
      }
      if (t.acks_owed == 0) t.acks_owed = 1;
      mark_dirty(t);
      signal_readable(t);
    } else {
      ++stats_.rcv_overflow_drops;
      owe_ack();
    }
    return;
  }
  if (seq_le(tcp.seq + plen, t.rcv_nxt)) {
    ++stats_.dup_segments;
    owe_ack();
    return;
  }
  if (!cfg_.reassemble) {
    // The pre-refactor receiver: anything not exactly in order is
    // dropped and the sender must resend from rcv_nxt.
    ++stats_.ooo_dropped;
    owe_ack();
    return;
  }
  const auto outcome =
      t.ooo.insert(tcp.seq, payload, t.rcv_nxt, space, ooo_limit());
  if (outcome.buffered > 0) {
    ++stats_.ooo_buffered;
  } else if (outcome.duplicate) {
    ++stats_.dup_segments;
  } else {
    ++stats_.ooo_dropped;
  }
  owe_ack();  // distinct dup-ACK: feeds the peer's fast retransmit
}

void TcpEngine::enter_established(Tcb& t) {
  t.state = TcpState::Established;
  if (t.listener != nullptr) {
    --t.listener->pending;
    ++t.listener->accepted;
    ++stats_.conns_accepted;
    t.listener = nullptr;
  }
  if (!t.sndbuf.empty() || t.fin_pending) mark_dirty(t);
  if (t.cbs.on_established) t.cbs.on_established(t.id);
}

void TcpEngine::maybe_finish_close(Tcb& t) {
  if (!t.fin_sent || t.snd_una != t.snd_nxt) return;
  if (t.state == TcpState::FinSent) {
    if (t.peer_fin) {
      t.tx.enter_time_wait(wheel_, link_.self().node().now() + cfg_.time_wait,
                           cookie(t, kTimerTimeWait));
      t.state = TcpState::TimeWait;
    } else if (t.tx.timewait_timer == 0) {
      // FIN_WAIT_2: our side is done; give the peer a bounded window to
      // send its FIN before the flow is reclaimed.
      t.tx.timewait_timer =
          wheel_.arm(link_.self().node().now() + cfg_.fin_wait,
                     cookie(t, kTimerTimeWait));
    }
  } else if (t.state == TcpState::LastAck) {
    destroy_tcb(t);
  }
}

void TcpEngine::process_segment(Tcb& t, const TcpHeader& tcp,
                                std::span<const std::uint8_t> payload,
                                sim::Cycles* cycles) {
  const auto plen = static_cast<std::uint32_t>(payload.size());

  if (tcp.flags.rst) {
    if (count_rst(stats_, rst_verdict(t.state, tcp, t.snd_nxt, t.rcv_nxt,
                                      adv_window(t)))) {
      abort_flow(t, /*rst_peer=*/false);
    }
    return;
  }

  switch (t.state) {
    case TcpState::SynSent: {
      if (tcp.flags.syn && tcp.flags.ack && tcp.ack == t.snd_nxt) {
        t.rcv_nxt = tcp.seq + 1;
        process_ack(t, tcp, plen);
        if (t.acks_owed == 0) t.acks_owed = 1;  // complete the handshake
        enter_established(t);
        mark_dirty(t);
      }
      // A bare SYN would be a simultaneous open; the engine's peers are
      // engines and libraries that never do that. Ignore.
      return;
    }
    case TcpState::SynRcvd: {
      if (tcp.flags.syn) {
        // Retransmitted SYN: our SYN/ACK was lost; resend it.
        ++stats_.dup_segments;
        if (!t.tx.retx.empty()) {
          t.fast_retx_pending = true;
          mark_dirty(t);
        } else {
          t.synack_queued = true;
          mark_dirty(t);
        }
        return;
      }
      if (!tcp.flags.ack) return;
      process_ack(t, tcp, plen);
      if (t.snd_una != t.snd_nxt) return;  // not our SYN/ACK's ack
      enter_established(t);
      break;  // the completing ACK may carry data and/or FIN
    }
    case TcpState::TimeWait: {
      // Only a retransmitted FIN is interesting: re-ACK it and restart
      // 2MSL (the peer never saw our last ACK). Anything else draws a
      // challenge ACK.
      if (tcp.flags.fin) {
        ++stats_.dup_segments;
        cancel_timer(wheel_, t.tx.timewait_timer);
        t.tx.timewait_timer =
            wheel_.arm(link_.self().node().now() + cfg_.time_wait,
                       cookie(t, kTimerTimeWait));
      } else {
        ++stats_.timewait_drops;
      }
      if (t.acks_owed < kMaxAcksOwed) ++t.acks_owed;
      mark_dirty(t);
      return;
    }
    default:
      if (tcp.flags.ack) process_ack(t, tcp, plen);
      break;
  }

  if (t.dead) return;  // the ACK processing may have torn the flow down

  if (plen > 0) {
    switch (t.state) {
      case TcpState::Established:
      case TcpState::FinSent:
        process_data(t, tcp, payload, cycles);
        break;
      default:
        // Data after the peer's FIN is a protocol violation; re-ACK.
        ++stats_.dup_segments;
        if (t.acks_owed < kMaxAcksOwed) ++t.acks_owed;
        mark_dirty(t);
        break;
    }
  }

  if (tcp.flags.fin) {
    const std::uint32_t fin_seq = tcp.seq + plen;
    if (!t.peer_fin && fin_seq == t.rcv_nxt) {
      t.peer_fin = true;
      t.rcv_nxt += 1;
      if (t.acks_owed < kMaxAcksOwed) ++t.acks_owed;
      if (t.state == TcpState::Established ||
          t.state == TcpState::SynRcvd) {
        t.state = TcpState::CloseWait;
      }
      mark_dirty(t);
      signal_readable(t);  // EOF becomes visible
    } else if (seq_lt(fin_seq, t.rcv_nxt)) {
      // Old FIN (our ACK was lost): re-ACK it.
      ++stats_.dup_segments;
      if (t.acks_owed < kMaxAcksOwed) ++t.acks_owed;
      mark_dirty(t);
    }
    // A FIN beyond a sequence gap waits for reassembly to close it.
  }

  maybe_finish_close(t);
}

// ------------------------------------------------------------- transmit

sim::Sub<bool> TcpEngine::send_flow(Tcb& t, TcpFlags flags,
                                    std::span<const std::uint8_t> payload,
                                    bool queue_retx) {
  const std::uint32_t seq = t.snd_nxt;
  const std::uint32_t consumed = seq_space(flags, payload.size());
  t.snd_nxt = seq + consumed;
  if (queue_retx && consumed > 0) {
    t.tx.on_send(seq, flags, payload, wheel_, link_.self().node().now(),
                 cookie(t, kTimerRetx));
  }
  ++stats_.segments_out;
  if (payload.empty() && !flags.syn && !flags.fin) ++stats_.acks_sent;
  t.last_adv_wnd = adv_window(t);
  return send_tcp_segment(link_, route(t.key),
                          {seq, t.rcv_nxt, flags, t.last_adv_wnd, payload,
                           t.next_ident++},
                          /*first_tx=*/true);
}

sim::Sub<bool> TcpEngine::resend_front(Tcb& t) {
  if (t.tx.retx.empty()) co_return true;
  const RetxSegment* seg = t.tx.next_resend(t.retx_fired, cfg_.max_retries);
  if (seg == nullptr) {
    abort_flow(t, /*rst_peer=*/false);
    co_return false;
  }
  ++stats_.retransmits;
  ++stats_.segments_out;
  co_await send_tcp_segment(link_, route(t.key),
                            {seg->seq, t.rcv_nxt, seg->flags, adv_window(t),
                             seg->payload, t.next_ident++},
                            /*first_tx=*/false);
  co_return true;
}

sim::Sub<void> TcpEngine::pump_tcb(Tcb& t) {
  if (t.dead) co_return;

  // Handshake segments.
  if (t.syn_queued) {
    t.syn_queued = false;
    TcpFlags f;
    f.syn = true;
    const bool sent = co_await send_flow(t, f, {}, /*queue_retx=*/true);
    (void)sent;
  }
  if (t.synack_queued && !t.dead) {
    t.synack_queued = false;
    TcpFlags f;
    f.syn = true;
    f.ack = true;
    const bool sent = co_await send_flow(t, f, {}, /*queue_retx=*/true);
    (void)sent;
  }

  // Loss recovery: fast retransmit (no retry charge) or RTO resend
  // (charges the retry budget; may tear the flow down).
  if ((t.fast_retx_pending || t.retx_fired) && !t.dead) {
    const bool alive = co_await resend_front(t);
    t.fast_retx_pending = false;
    t.retx_fired = false;
    if (!alive) co_return;
    t.tx.arm_retx_timer(wheel_, link_.self().node().now(),
                        cookie(t, kTimerRetx));
  }

  // Data, segmented at the MSS under min(peer window, cwnd).
  bool sent_data = false;
  while (!t.dead && !t.sndbuf.empty() &&
         (t.state == TcpState::Established ||
          t.state == TcpState::CloseWait)) {
    const std::uint32_t in_flight = t.snd_nxt - t.snd_una;
    const std::uint32_t wnd = std::min(t.peer_wnd, t.tx.cc.cwnd());
    if (wnd <= in_flight) break;
    const std::uint32_t n = std::min<std::uint32_t>(
        {wnd - in_flight, cfg_.mss,
         static_cast<std::uint32_t>(t.sndbuf.size())});
    if (n == 0) break;
    // The consumed bytes stay in place until the next append, and
    // send_flow copies them (retransmit queue, then the packet) before
    // its first suspension, so no write() can move them first.
    const auto seg = t.sndbuf.bytes().first(n);
    t.sndbuf.consume(n);
    TcpFlags f;
    f.ack = true;
    f.psh = t.sndbuf.empty();
    const bool sent = co_await send_flow(t, f, seg, /*queue_retx=*/true);
    (void)sent;
    sent_data = true;
  }
  if (sent_data) t.acks_owed = 0;  // data segments carried the ACK

  // Zero-window persist: without it, a window that reopens via a lost
  // ACK deadlocks both sides (satellite fix shared with the library).
  if (!t.dead && !t.sndbuf.empty() && t.peer_wnd == 0 &&
      t.snd_nxt == t.snd_una) {
    if (t.persist_fire) {
      t.persist_fire = false;
      ++stats_.persist_probes;
      std::uint8_t probe = 0;
      t.sndbuf.take(&probe, 1);
      TcpFlags f;
      f.ack = true;
      // The probe byte rides the normal retransmission machinery, so
      // backoff and retry exhaustion come for free.
      const bool sent =
          co_await send_flow(t, f, {&probe, 1}, /*queue_retx=*/true);
      (void)sent;
    } else if (t.tx.persist_timer == 0) {
      t.tx.persist_timer = wheel_.arm(
          link_.self().node().now() + t.tx.rto_cur, cookie(t, kTimerPersist));
    }
  }

  // FIN once the send buffer has drained.
  if (!t.dead && t.fin_pending && !t.fin_sent && t.sndbuf.empty() &&
      (t.state == TcpState::Established ||
       t.state == TcpState::CloseWait)) {
    t.state = t.state == TcpState::Established ? TcpState::FinSent
                                               : TcpState::LastAck;
    t.fin_sent = true;
    TcpFlags f;
    f.fin = true;
    f.ack = true;
    const bool sent = co_await send_flow(t, f, {}, /*queue_retx=*/true);
    (void)sent;
    t.acks_owed = 0;
  }

  // Pure ACKs: each owed ACK goes out separately (out-of-order arrivals
  // owe distinct duplicates — they feed the peer's fast retransmit).
  while (!t.dead && t.acks_owed > 0) {
    --t.acks_owed;
    TcpFlags f;
    f.ack = true;
    const bool sent = co_await send_flow(t, f, {}, /*queue_retx=*/false);
    (void)sent;
  }
}

sim::Sub<void> TcpEngine::flush() {
  while (!dirty_.empty() || !raw_rsts_.empty()) {
    std::vector<RawRst> rsts;
    rsts.swap(raw_rsts_);
    for (const RawRst& r : rsts) {
      ++stats_.rsts_sent;
      ++stats_.segments_out;
      co_await send_tcp_rst(link_, route(r.key), r.seq, r.ack, r.with_ack,
                            /*ident=*/0);
    }
    std::vector<ConnId> work;
    work.swap(dirty_);
    for (const ConnId id : work) {
      const auto it = by_id_.find(id);
      if (it == by_id_.end()) continue;
      Tcb& t = *it->second;
      t.dirty = false;
      if (t.dead) continue;
      co_await pump_tcb(t);
    }
  }
}

// ------------------------------------------------------------ event loop

sim::Sub<bool> TcpEngine::step(sim::Cycles max_wait) {
  sim::Node& node = link_.self().node();
  co_await flush();
  reap_dead();

  sim::Cycles timeout = max_wait;
  const auto nd = wheel_.next_deadline();
  if (nd) {
    const sim::Cycles now = node.now();
    timeout = *nd > now ? std::min(max_wait, *nd - now) : 0;
  }

  bool got = false;
  sim::Cycles cycles = 0;
  if (timeout > 0) {
    auto d = co_await link_.recv_for(timeout);
    if (d) {
      process_frame(*d, &cycles);
      link_.release(*d);
      got = true;
      // Drain the burst that arrived behind the first frame, bounded so
      // timers and transmissions interleave under sustained load.
      for (std::uint32_t i = 1; i < cfg_.rx_batch; ++i) {
        auto m = link_.try_recv();
        if (!m) break;
        cycles += node.cost().poll_iteration;
        process_frame(*m, &cycles);
        link_.release(*m);
      }
    }
  }
  if (cycles > 0) {
    co_await link_.self().compute(cycles);
  }

  service_timers();
  co_await flush();
  reap_dead();
  co_return got;
}

sim::Sub<void> TcpEngine::run(const bool& done, sim::Cycles deadline,
                              sim::Cycles idle_wait) {
  sim::Node& node = link_.self().node();
  while (!done) {
    if (deadline != 0 && node.now() >= deadline) break;
    sim::Cycles wait = idle_wait;
    if (deadline != 0) {
      wait = std::min(wait, deadline - node.now());
    }
    const bool got = co_await step(wait);
    (void)got;
  }
  co_await flush();
  reap_dead();
}

}  // namespace ash::proto

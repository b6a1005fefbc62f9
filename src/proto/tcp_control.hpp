// Connection-control code shared by the blocking TcpConnection library
// and the event-driven TcpEngine: RFC 6298 RTT estimation, RFC 5681-shaped
// congestion accounting, an out-of-order segment store for reassembly,
// and the sender half both tiers run — retransmit queue, ACK and
// duplicate-ACK processing, RTO backoff, RST acceptance, the connection
// timers and the one IPv4+TCP segment writer. Each tier keeps its own I/O
// order, flush policy and receive path (DESIGN §7c).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "proto/headers.hpp"
#include "proto/link.hpp"
#include "sim/event_queue.hpp"
#include "sim/timer_wheel.hpp"

namespace ash::proto {

// Values 0–5 are shared with the VCODE fast-path handler via tcb::kState;
// new states append only.
enum class TcpState : std::uint32_t {
  Closed = 0,
  SynSent,
  SynRcvd,
  Established,
  FinSent,    // we sent FIN, awaiting its ACK (and possibly peer FIN)
  CloseWait,  // peer sent FIN; we still may send
  TimeWait,   // both FINs done, we closed actively: hold 2MSL
  LastAck,    // passive close: our FIN sent after peer's, awaiting its ACK
};

inline constexpr std::uint32_t kSegHdrLen =
    static_cast<std::uint32_t>(kIpHeaderLen + kTcpHeaderLen);

/// RFC 6298 retransmission-timeout estimator: SRTT/RTTVAR with the
/// standard 1/8 and 1/4 gains, RTO = SRTT + 4*RTTVAR clamped to
/// [min_rto, max_rto]. Backoff and Karn's rule (only samples from
/// segments that were never retransmitted) live in TcpSender.
class RttEstimator {
 public:
  RttEstimator() = default;
  RttEstimator(sim::Cycles initial_rto, sim::Cycles min_rto,
               sim::Cycles max_rto)
      : initial_(initial_rto), min_(min_rto), max_(max_rto) {}

  void sample(sim::Cycles rtt) {
    if (!has_sample_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      has_sample_ = true;
    } else {
      const sim::Cycles err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
      rttvar_ = rttvar_ - rttvar_ / 4 + err / 4;
      srtt_ = srtt_ - srtt_ / 8 + rtt / 8;
    }
  }

  sim::Cycles rto() const {
    if (!has_sample_) return clamp(initial_);
    return clamp(srtt_ + 4 * rttvar_);
  }

  bool has_sample() const noexcept { return has_sample_; }
  sim::Cycles max_rto() const noexcept { return max_; }
  sim::Cycles srtt() const noexcept { return srtt_; }
  sim::Cycles rttvar() const noexcept { return rttvar_; }

 private:
  sim::Cycles clamp(sim::Cycles v) const {
    if (v < min_) return min_;
    if (v > max_) return max_;
    return v;
  }

  sim::Cycles initial_ = sim::us(100000.0);
  sim::Cycles min_ = sim::us(1000.0);
  sim::Cycles max_ = sim::us(4000000.0);
  sim::Cycles srtt_ = 0;
  sim::Cycles rttvar_ = 0;
  bool has_sample_ = false;
};

/// Minimal RFC 5681 congestion window: slow start below ssthresh (one
/// MSS per new-data ACK), congestion avoidance above it (one MSS per
/// window), multiplicative decrease on loss. The effective send window
/// is min(cwnd, peer window) — applied by the caller.
class CongestionWindow {
 public:
  CongestionWindow() = default;
  CongestionWindow(std::uint32_t mss, std::uint32_t limit) {
    reset(mss, limit);
  }

  void reset(std::uint32_t mss, std::uint32_t limit) {
    mss_ = mss == 0 ? 1 : mss;
    limit_ = limit == 0 ? mss_ : limit;
    // The configured window doubles as the initial window: on a clean
    // link the sender fills it exactly as the pre-congestion-control
    // stack did (the handler benches calibrate against that tiling).
    // Slow start engages after the first loss event, when cwnd has
    // collapsed below ssthresh.
    cwnd_ = limit_;
    ssthresh_ = limit_;
    accum_ = 0;
  }

  std::uint32_t cwnd() const noexcept { return cwnd_; }
  std::uint32_t ssthresh() const noexcept { return ssthresh_; }

  /// `acked` bytes of new data were acknowledged.
  void on_ack(std::uint32_t acked) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(acked, mss_);  // slow start
    } else {
      accum_ += std::min(acked, mss_);  // congestion avoidance
      if (accum_ >= cwnd_) {
        accum_ = 0;
        cwnd_ += mss_;
      }
    }
    if (cwnd_ > limit_) cwnd_ = limit_;
  }

  /// Triple duplicate ACK: halve into fast retransmit.
  void on_fast_retransmit(std::uint32_t flight) {
    ssthresh_ = std::max(flight / 2, 2 * mss_);
    cwnd_ = ssthresh_;
    accum_ = 0;
  }

  /// Retransmission timeout: collapse to one segment, restart slow start.
  void on_timeout(std::uint32_t flight) {
    ssthresh_ = std::max(flight / 2, 2 * mss_);
    cwnd_ = mss_;
    accum_ = 0;
  }

 private:
  std::uint32_t mss_ = 1;
  std::uint32_t limit_ = 1;
  std::uint32_t cwnd_ = 1;
  std::uint32_t ssthresh_ = 1;
  std::uint32_t accum_ = 0;
};

/// Out-of-order segment store: buffers data above rcv_nxt for later
/// reassembly instead of dropping it. Keys are absolute sequence
/// numbers; all live entries sit within one receive window of rcv_nxt,
/// so the wraparound-aware comparator is a consistent ordering.
class OooBuffer {
 public:
  struct InsertOutcome {
    std::uint32_t buffered = 0;  // fresh bytes accepted into the store
    bool duplicate = false;      // fully below rcv_nxt or already buffered
    bool dropped = false;        // out of window or store full
  };

  /// Offer `data` at `seq` given the receiver state. Overlap with
  /// delivered data (below rcv_nxt) and with buffered segments is
  /// trimmed; anything beyond rcv_nxt + window or past `byte_limit`
  /// is refused.
  InsertOutcome insert(std::uint32_t seq, std::span<const std::uint8_t> data,
                       std::uint32_t rcv_nxt, std::uint32_t window,
                       std::size_t byte_limit) {
    InsertOutcome out;
    std::uint32_t len = static_cast<std::uint32_t>(data.size());
    if (len == 0) {
      out.duplicate = true;
      return out;
    }
    // Trim the head already delivered.
    if (seq_lt(seq, rcv_nxt)) {
      const std::uint32_t cut = rcv_nxt - seq;
      if (cut >= len) {
        out.duplicate = true;
        return out;
      }
      seq = rcv_nxt;
      data = data.subspan(cut);
      len -= cut;
    }
    // Refuse anything past the advertised window edge.
    const std::uint32_t edge = rcv_nxt + window;
    if (seq_le(edge, seq)) {
      out.dropped = true;
      return out;
    }
    if (seq_lt(edge, seq + len)) {
      len = edge - seq;
      data = data.first(len);
    }
    // Clip against the buffered neighbours. Retransmissions in this
    // stack resend identical segments, so partial overlaps reduce to
    // prefix/suffix trims against the immediate neighbours.
    auto next = segs_.lower_bound(seq);
    if (next != segs_.begin()) {
      auto prev = std::prev(next);
      const std::uint32_t prev_end =
          prev->first + static_cast<std::uint32_t>(prev->second.size());
      if (seq_lt(seq, prev_end)) {
        const std::uint32_t cut = prev_end - seq;
        if (cut >= len) {
          out.duplicate = true;
          return out;
        }
        seq = prev_end;
        data = data.subspan(cut);
        len -= cut;
        next = segs_.lower_bound(seq);
      }
    }
    if (next != segs_.end() && seq_lt(next->first, seq + len)) {
      if (seq_le(next->first, seq)) {
        out.duplicate = true;  // an existing segment covers our start
        return out;
      }
      len = next->first - seq;
      data = data.first(len);
    }
    if (bytes_ + len > byte_limit) {
      out.dropped = true;
      return out;
    }
    segs_.emplace(seq, std::vector<std::uint8_t>(data.begin(), data.end()));
    bytes_ += len;
    out.buffered = len;
    return out;
  }

  /// Move up to `max_len` bytes contiguous at rcv_nxt out of the store
  /// (empty when nothing is).
  std::vector<std::uint8_t> pop_contiguous(std::uint32_t rcv_nxt,
                                           std::uint32_t max_len) {
    purge_stale(rcv_nxt);
    std::vector<std::uint8_t> out;
    std::uint32_t at = rcv_nxt;
    while (out.size() < max_len) {
      auto it = segs_.begin();
      if (it == segs_.end() || !seq_le(it->first, at)) break;
      std::vector<std::uint8_t> seg = std::move(it->second);
      const std::uint32_t seg_seq = it->first;
      segs_.erase(it);
      bytes_ -= seg.size();
      std::uint32_t off = at - seg_seq;  // overlap with already-taken bytes
      if (off >= seg.size()) continue;
      const std::uint32_t avail = static_cast<std::uint32_t>(seg.size()) - off;
      const std::uint32_t take = std::min<std::uint32_t>(
          avail, max_len - static_cast<std::uint32_t>(out.size()));
      out.insert(out.end(), seg.begin() + off, seg.begin() + off + take);
      at += take;
      if (take < avail) {
        // Re-key the remainder and stop: the caller ran out of room.
        bytes_ += avail - take;
        segs_.emplace(at, std::vector<std::uint8_t>(
                              seg.begin() + off + take, seg.end()));
        break;
      }
    }
    return out;
  }

  std::size_t bytes() const noexcept { return bytes_; }
  std::size_t segments() const noexcept { return segs_.size(); }
  void clear() {
    segs_.clear();
    bytes_ = 0;
  }

 private:
  struct SeqLess {
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return seq_lt(a, b);
    }
  };

  void purge_stale(std::uint32_t rcv_nxt) {
    // Drop segments that fell entirely below rcv_nxt (delivered by the
    // in-order path while they sat here).
    while (!segs_.empty()) {
      auto it = segs_.begin();
      const std::uint32_t end =
          it->first + static_cast<std::uint32_t>(it->second.size());
      if (!seq_le(end, rcv_nxt)) break;
      bytes_ -= it->second.size();
      segs_.erase(it);
    }
  }

  std::map<std::uint32_t, std::vector<std::uint8_t>, SeqLess> segs_;
  std::size_t bytes_ = 0;
};

/// Counters both tiers keep under the same names.
struct TcpCounters {
  std::uint64_t segments_in = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_timeouts = 0;
  std::uint64_t cksum_failures = 0;
  std::uint64_t aborts = 0;  // torn down on retry exhaustion or RST
  // Retransmission noise (already-delivered data) vs. genuine reordering.
  std::uint64_t dup_segments = 0;     // entirely below rcv_nxt
  std::uint64_t ooo_buffered = 0;     // segments parked for reassembly
  std::uint64_t ooo_reassembled = 0;  // bytes later drained in order
  /// Genuinely unbufferable arrivals: out of window, or the OOO store
  /// was full (with reassembly off: every non-in-order segment).
  std::uint64_t ooo_dropped = 0;
  std::uint64_t rsts_received = 0;   // acceptable RSTs (tore us down)
  std::uint64_t rsts_ignored = 0;    // RSTs failing seq validation
  std::uint64_t rsts_sent = 0;
  std::uint64_t persist_probes = 0;  // zero-window probes sent
  std::uint64_t window_updates = 0;  // reopen ACKs from the read path
  std::uint64_t timewait_drops = 0;  // out-of-window segs in TIME_WAIT
};

/// What an inbound RST does to a connection.
enum class RstVerdict { kNoState, kAccept, kIgnore };

/// RST acceptance: nothing to reset while Closed; in SYN_SENT only a RST
/// acking our SYN counts (RFC 793); TIME_WAIT ignores RSTs (RFC 1337,
/// TIME-WAIT assassination); otherwise the RST's sequence must fall in
/// the receive window, always at least one sequence number wide (RFC
/// 5961).
inline RstVerdict rst_verdict(TcpState state, const TcpHeader& rst,
                              std::uint32_t snd_nxt, std::uint32_t rcv_nxt,
                              std::uint32_t rcv_wnd) {
  bool ok = false;
  switch (state) {
    case TcpState::Closed:
      return RstVerdict::kNoState;
    case TcpState::SynSent:
      ok = rst.flags.ack && rst.ack == snd_nxt;
      break;
    case TcpState::TimeWait:
      break;
    default:
      ok = seq_le(rcv_nxt, rst.seq) &&
           seq_lt(rst.seq, rcv_nxt + std::max(rcv_wnd, 1u));
      break;
  }
  return ok ? RstVerdict::kAccept : RstVerdict::kIgnore;
}

/// Count an inbound RST's verdict; true when it tears the connection down.
inline bool count_rst(TcpCounters& stats, RstVerdict v) {
  if (v == RstVerdict::kAccept) ++stats.rsts_received;
  if (v == RstVerdict::kIgnore) ++stats.rsts_ignored;
  return v == RstVerdict::kAccept;
}

/// Sequence space a segment occupies: its payload plus one for SYN or FIN.
inline std::uint32_t seq_space(TcpFlags flags, std::size_t plen) {
  return static_cast<std::uint32_t>(plen) + (flags.syn || flags.fin ? 1 : 0);
}

/// One unacknowledged segment, kept for retransmission.
struct RetxSegment {
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
  TcpFlags flags;
  int retries = 0;
};

/// Per-connection timers; each tier's wheel cookie encodes the kind.
enum TcpTimerKind : std::uint64_t {
  kTimerRetx = 0,
  kTimerPersist = 1,
  kTimerTimeWait = 2,  // also the engine's FIN_WAIT_2 give-up
};

inline void cancel_timer(sim::TimerWheel& wheel, sim::TimerWheel::Id& id) {
  if (id != 0) {
    wheel.cancel(id);
    id = 0;
  }
}

/// How the sender half classified an inbound ACK.
enum class AckVerdict { kNone, kNewData, kFastRetransmit };

/// The sender half of one connection: the retransmit queue, RTT sampling
/// under Karn's rule, the congestion window, RTO backoff, duplicate-ACK
/// counting, and the connection's timers on a wheel the caller owns (and
/// whose cookies it picks). snd_una and snd_wnd stay with the caller: the
/// library keeps them in the shared TCB, where a downloaded fast-path
/// handler advances them.
struct TcpSender {
  TcpSender() = default;
  TcpSender(sim::Cycles rto, sim::Cycles min_rto, sim::Cycles max_rto,
            std::uint32_t mss, std::uint32_t window)
      : rtt(rto, std::min(min_rto, rto), max_rto),
        cc(mss, window),
        rto_cur(rto) {}

  /// A segment occupying sequence space went out at `now`: queue it,
  /// arm the retx timer if idle, and time it unless a sample is already
  /// in flight (one per window, RFC 6298).
  void on_send(std::uint32_t seq, TcpFlags flags,
               std::span<const std::uint8_t> payload, sim::TimerWheel& wheel,
               sim::Cycles now, std::uint64_t cookie);

  /// The ACK field of an inbound segment of `plen` payload bytes, given
  /// the caller's snd_una/snd_nxt before it. New data reaps the queue
  /// (re-arming the retx timer at the pre-ACK RTO), grows cwnd, ends the
  /// RTT sample and resets any backoff. A duplicate ACK while
  /// `established` with data outstanding counts toward fast retransmit;
  /// the third halves cwnd (RFC 5681).
  AckVerdict on_ack(const TcpHeader& tcp, std::uint32_t plen,
                    std::uint32_t snd_una, std::uint32_t snd_nxt,
                    bool established, sim::TimerWheel& wheel,
                    sim::Cycles now, std::uint64_t cookie);
  /// [snd_una, ack) acknowledged: the new-data half of on_ack.
  void on_new_data(std::uint32_t snd_una, std::uint32_t ack,
                   sim::TimerWheel& wheel, sim::Cycles now,
                   std::uint64_t cookie);

  /// The retx timer fired. False when nothing is outstanding; otherwise
  /// collapse cwnd, double the RTO (capped at max_rto) and forget
  /// duplicate ACKs.
  bool on_rto(std::uint32_t flight);

  /// The front segment to resend (the queue must be non-empty), or null
  /// when an RTO resend (`count_retry`) exhausts the retry budget. Karn:
  /// a retransmitted flight is never timed.
  const RetxSegment* next_resend(bool count_retry, int max_retries);

  void arm_retx_timer(sim::TimerWheel& wheel, sim::Cycles now,
                      std::uint64_t cookie);
  void cancel_timers(sim::TimerWheel& wheel);
  /// The connection is torn down: forget everything in flight.
  void drop(sim::TimerWheel& wheel);
  /// Cancel every timer and start the 2MSL hold ending at `deadline`.
  void enter_time_wait(sim::TimerWheel& wheel, sim::Cycles deadline,
                       std::uint64_t cookie);

  std::deque<RetxSegment> retx;
  RttEstimator rtt;
  CongestionWindow cc;
  sim::Cycles rto_cur = 0;
  std::uint32_t dup_acks = 0;
  bool rtt_pending = false;   // a timed segment is in flight
  std::uint32_t rtt_seq = 0;  // an ack covering this ends the sample
  sim::Cycles rtt_sent_at = 0;
  sim::TimerWheel::Id retx_timer = 0;
  sim::TimerWheel::Id persist_timer = 0;
  sim::TimerWheel::Id timewait_timer = 0;
};

/// Addressing and checksum policy of one flow's outgoing segments.
struct TcpRoute {
  Ipv4Addr local_ip;
  Ipv4Addr remote_ip;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  bool checksum = true;
};

/// One outgoing segment's fields.
struct TcpSegmentSpec {
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;     // sent only with flags.ack
  TcpFlags flags;
  std::uint32_t window = 0;  // clamped to 16 bits
  std::span<const std::uint8_t> payload;
  std::uint16_t ident = 0;   // IPv4 identification
};

/// The IPv4 and TCP headers of `s` at `p` (kSegHdrLen bytes, the TCP
/// checksum field zero). Returns the TCP header it wrote.
TcpHeader encode_tcp_headers(std::uint8_t* p, const TcpRoute& route,
                             const TcpSegmentSpec& s);

/// The segment writer both tiers transmit through: allocate a tx buffer
/// on `link`, copy the payload, fill both headers and the checksum,
/// charge the send (data/SYN/FIN) or ACK overhead, and transmit. A first
/// transmission also pays the payload store and a charged checksum pass;
/// retransmits and RSTs compute their checksum for free (DESIGN §7c).
/// The bytes `s.payload` views must live until the returned Sub is
/// awaited: the copy happens when it starts.
sim::Sub<bool> send_tcp_segment(Link& link, TcpRoute route, TcpSegmentSpec s,
                                bool first_tx);

/// A RST at `seq` (carrying `ack` when `with_ack`): the answer to a
/// segment no connection state accepts.
inline sim::Sub<bool> send_tcp_rst(Link& link, const TcpRoute& route,
                                   std::uint32_t seq, std::uint32_t ack,
                                   bool with_ack, std::uint16_t ident) {
  TcpFlags flags;
  flags.rst = true;
  flags.ack = with_ack;
  return send_tcp_segment(link, route, {seq, ack, flags, 0, {}, ident},
                          /*first_tx=*/false);
}

}  // namespace ash::proto

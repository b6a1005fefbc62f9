// Event-driven multi-connection TCP: one process, one link, many flows.
//
// TcpConnection (tcp.hpp) is the paper's shape — one process per
// connection, a blocking read/write API, and a shared TCB so a downloaded
// handler can run the fast path. That shape cannot scale to a c10k
// workload inside the simulator: every process owns a fixed 1 MB segment
// and a node holds 16 MB, so ten thousand blocking connections are
// impossible by construction. TcpEngine is the classic answer — an
// event loop multiplexing every connection over a single link binding:
//
//  * a connection table sharded by the same flow hash the multi-queue
//    receive path steers on (net::SteeringPolicy::flow_channel), so an
//    RX queue's segments land in a shard owned by that queue's CPU;
//  * a TcpListener with a SYN backlog that spawns per-connection TCBs on
//    inbound SYNs, instead of the library's one-pre-created-TCB accept();
//  * per-flow payload buffers in host memory (the sim charges the copy
//    cycles, the bytes never occupy the 1 MB segment), which is what
//    makes ten thousand concurrent TCBs fit;
//  * one shared timer wheel for every flow's retransmission / persist /
//    TIME_WAIT timers, cookie-keyed by (conn id << 2 | kind);
//  * segments for which no flow state exists answered with a RST, like
//    a real host (the library's connections predate their peer's first
//    segment, so it could afford silence — a listener cannot).
//
// The sender half is TcpConnection's own code (tcp_control.hpp):
// TcpSender's retransmit queue, RFC 6298 adaptive RTO with backoff, RFC
// 5681 congestion window and dup-ACK fast retransmit, the RST verdict,
// TIME_WAIT entry, the counters and the one segment writer. What stays
// here is the engine's shape: state mutation while parsing and one
// deferred flush per step, the host-side rcvbuf receive path with
// out-of-order reassembly against its free space, SYN_RCVD SYN
// retransmission, the FIN_WAIT_2 give-up timer and zero-window persist
// probes (DESIGN §7c).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/rx_queue.hpp"
#include "proto/headers.hpp"
#include "proto/link.hpp"
#include "proto/tcp.hpp"
#include "proto/tcp_control.hpp"
#include "sim/timer_wheel.hpp"
#include "util/byte_fifo.hpp"

namespace ash::proto {

/// Identity of one flow from the engine's point of view. The local IP is
/// engine-wide, so it is not part of the key.
struct FlowKey {
  Ipv4Addr remote_ip;
  std::uint16_t remote_port = 0;
  std::uint16_t local_port = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// The flow label the receive path and the connection table share: both
/// sides hash the 4-tuple the same way, so SteeringPolicy::pick sends a
/// flow's segments to the RX queue that owns the flow's table shard.
inline int flow_channel(Ipv4Addr local_ip, const FlowKey& key) {
  return net::SteeringPolicy::flow_channel(local_ip.value,
                                           key.remote_ip.value,
                                           key.local_port, key.remote_port);
}

class TcpEngine {
 public:
  using ConnId = std::uint32_t;

  struct Config {
    Ipv4Addr local_ip;
    std::uint32_t mss = 1456;
    std::uint32_t window = 8192;
    bool checksum = true;
    sim::Cycles rto = sim::us(100000.0);
    sim::Cycles min_rto = sim::us(25000.0);
    sim::Cycles max_rto = sim::us(2000000.0);
    sim::Cycles time_wait = sim::us(10000.0);
    /// Half-closed give-up: our FIN is acknowledged but the peer never
    /// sends its own (FIN_WAIT_2 in RFC terms).
    sim::Cycles fin_wait = sim::us(1000000.0);
    int max_retries = 8;
    bool reassemble = true;
    std::uint32_t ooo_limit = 0;     // bytes; 0 = 2 * window
    /// Host-side receive buffer cap per connection; doubles as the
    /// advertised window bound.
    std::uint32_t rcv_limit = 16384;
    std::uint32_t iss = 1;           // per-flow ISS derives from this
    /// Answer segments addressed to no flow and no listener with a RST.
    bool rst_unknown = true;
    /// Connection-table shards; align with the RX queue count so each
    /// queue's flows hash into its own shard.
    std::size_t shards = 4;
    net::SteeringPolicy steering{};
    sim::Cycles wheel_granularity = sim::us(1000.0);
    std::size_t wheel_buckets = 256;
    /// Max frames drained per step before timers/output run again.
    std::uint32_t rx_batch = 64;
  };

  /// Per-connection upcalls. All fire from within step(); they may call
  /// back into the data-plane API (write/read/close) freely.
  struct Callbacks {
    std::function<void(ConnId)> on_established;
    /// New bytes are readable, or EOF arrived (readable()==0 + eof()).
    std::function<void(ConnId)> on_readable;
    /// The TCB is gone (orderly close, RST, or retry exhaustion); the id
    /// is invalid after this returns.
    std::function<void(ConnId)> on_closed;
  };

  struct ListenConfig {
    Callbacks callbacks;
    /// Connections allowed in SYN_RCVD at once; SYNs beyond it dropped.
    std::uint32_t backlog = 128;
  };

  /// Passive-open endpoint: spawns a TCB per acceptable inbound SYN.
  struct TcpListener {
    std::uint16_t port = 0;
    ListenConfig cfg;
    std::uint32_t pending = 0;        // TCBs currently in SYN_RCVD
    std::uint64_t accepted = 0;       // reached ESTABLISHED
    std::uint64_t backlog_drops = 0;  // SYNs dropped at full backlog
  };

  struct Stats : TcpCounters {
    std::uint64_t segments_out = 0;
    std::uint64_t conns_opened = 0;    // active opens issued
    std::uint64_t conns_accepted = 0;  // passive opens established
    std::uint64_t conns_closed = 0;    // TCBs destroyed (any cause)
    std::uint64_t syn_backlog_drops = 0;
    std::uint64_t unknown_flow_rsts = 0;
    std::uint64_t rcv_overflow_drops = 0;  // in-order but rcvbuf full
  };

  TcpEngine(Link& link, const Config& config);
  ~TcpEngine();
  TcpEngine(const TcpEngine&) = delete;
  TcpEngine& operator=(const TcpEngine&) = delete;

  Link& link() noexcept { return link_; }
  const Config& config() const noexcept { return cfg_; }
  const Stats& stats() const noexcept { return stats_; }

  // ---- control plane ----

  /// Start listening on `port`. One listener per port.
  TcpListener& listen(std::uint16_t port, ListenConfig cfg);

  /// Active open: queues a SYN (sent by the next step()) and returns the
  /// new connection's id immediately. 0 on failure (port collision).
  ConnId connect(Ipv4Addr remote_ip, std::uint16_t remote_port,
                 std::uint16_t local_port, Callbacks callbacks);

  /// Graceful close: FIN once the send buffer drains.
  void close(ConnId id);
  /// Abortive close: RST now, TCB destroyed this step.
  void abort(ConnId id);

  // ---- data plane (host-side byte streams) ----

  /// Append bytes to the connection's send buffer; transmitted as window
  /// allows. False if the id is unknown or past its sending states.
  bool write(ConnId id, std::span<const std::uint8_t> data);

  /// Copy up to `max_len` received bytes out (host memory). Reopening
  /// the receive window may queue a window-update ACK.
  std::size_t read(ConnId id, std::uint8_t* out, std::size_t max_len);

  std::size_t readable(ConnId id) const;
  /// True once the peer's FIN is processed and the buffer is drained.
  bool at_eof(ConnId id) const;
  std::optional<TcpState> state(ConnId id) const;
  std::size_t unsent(ConnId id) const;

  // ---- event loop ----

  /// One iteration: flush pending output, wait up to `max_wait` for a
  /// frame (bounded by the next timer deadline), drain a batch, service
  /// timers, flush again. Returns true if any frame was processed.
  sim::Sub<bool> step(sim::Cycles max_wait);

  /// Run step() until `done` is set or `deadline` (absolute sim time,
  /// 0 = no deadline) passes.
  sim::Sub<void> run(const bool& done, sim::Cycles deadline = 0,
                     sim::Cycles idle_wait = sim::us(500.0));

  // ---- introspection ----

  std::size_t open_connections() const noexcept { return by_id_.size(); }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of(ConnId id) const;
  std::vector<std::size_t> shard_sizes() const;

 private:
  struct Tcb {
    ConnId id = 0;
    FlowKey key;
    std::size_t shard = 0;
    TcpState state = TcpState::Closed;
    TcpListener* listener = nullptr;  // set on passive opens until est.
    Callbacks cbs;

    std::uint32_t snd_nxt = 0;
    std::uint32_t snd_una = 0;
    std::uint32_t rcv_nxt = 0;
    std::uint32_t peer_wnd = 0;
    std::uint32_t last_adv_wnd = 0;
    std::uint16_t next_ident = 1;

    util::ByteFifo sndbuf;  // queued, not yet segmented
    util::ByteFifo rcvbuf;  // in-order, not yet read
    OooBuffer ooo;
    TcpSender tx;  // retransmission, RTO, congestion window, timers

    bool syn_queued = false;      // active open: SYN not yet sent
    bool synack_queued = false;   // passive open: SYN/ACK not yet sent
    bool fin_pending = false;     // close() called; FIN after sndbuf
    bool fin_sent = false;
    bool peer_fin = false;
    bool readable_eof_signaled = false;
    std::uint32_t acks_owed = 0;  // distinct pure ACKs to emit
    bool retx_fired = false;      // RTO expired; resend + count retry
    bool fast_retx_pending = false;
    bool persist_fire = false;
    bool dirty = false;           // queued on the flush list
    bool dead = false;            // queued for destruction
  };

  /// Bucket hash of a shard's table: one multiply-xorshift of the packed
  /// key. The shard itself is chosen by flow_channel (shard_for).
  struct FlowHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(k.remote_ip.value) << 32) |
          (static_cast<std::uint64_t>(k.local_port) << 16) | k.remote_port;
      const std::uint64_t x = key * 0x9e3779b97f4a7c15ull;
      return static_cast<std::size_t>(x ^ (x >> 32));
    }
  };

  Tcb* find(ConnId id) noexcept;
  const Tcb* find(ConnId id) const noexcept;
  /// The table shard that owns `key`: the RX queue its segments steer to.
  std::size_t shard_for(const FlowKey& key) const;
  Tcb* lookup(const FlowKey& key) noexcept;
  Tcb& create_tcb(const FlowKey& key, Callbacks cbs);
  void destroy_tcb(Tcb& t);      // deferred: marks dead, reaped per step
  void reap_dead();
  void mark_dirty(Tcb& t);

  std::uint64_t cookie(const Tcb& t, TcpTimerKind kind) const {
    return (static_cast<std::uint64_t>(t.id) << 2) | kind;
  }
  TcpRoute route(const FlowKey& key) const {
    return {cfg_.local_ip, key.remote_ip, key.local_port, key.remote_port,
            cfg_.checksum};
  }

  std::uint32_t adv_window(const Tcb& t) const;
  std::uint32_t ooo_limit() const {
    return cfg_.ooo_limit ? cfg_.ooo_limit : 2 * cfg_.window;
  }

  /// Parse + dispatch one frame. Pure state mutation: all transmission
  /// is deferred to the flush pass (segments batch per step).
  void process_frame(const net::RxDesc& d, sim::Cycles* cycles);
  void process_segment(Tcb& t, const TcpHeader& tcp,
                       std::span<const std::uint8_t> payload,
                       sim::Cycles* cycles);
  void process_ack(Tcb& t, const TcpHeader& tcp, std::uint32_t plen);
  void process_data(Tcb& t, const TcpHeader& tcp,
                    std::span<const std::uint8_t> payload,
                    sim::Cycles* cycles);
  void handle_syn(const FlowKey& key, const TcpHeader& tcp);
  void enter_established(Tcb& t);
  void maybe_finish_close(Tcb& t);
  void abort_flow(Tcb& t, bool rst_peer);
  void signal_readable(Tcb& t);

  void service_timers();
  sim::Sub<void> flush();
  sim::Sub<void> pump_tcb(Tcb& t);
  /// Transmit one new segment at snd_nxt; queued for retransmission
  /// when `queue_retx` and it carries data or SYN/FIN. The sender state
  /// moves at the call; await the result at once.
  sim::Sub<bool> send_flow(Tcb& t, TcpFlags flags,
                           std::span<const std::uint8_t> payload,
                           bool queue_retx);
  sim::Sub<bool> resend_front(Tcb& t);

  /// RST owed to a segment that matched no flow (and no listener).
  struct RawRst {
    FlowKey key;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    bool with_ack = false;
  };

  Link& link_;
  Config cfg_;
  Stats stats_;

  std::vector<std::unordered_map<FlowKey, std::unique_ptr<Tcb>, FlowHash>>
      shards_;
  std::unordered_map<ConnId, Tcb*> by_id_;
  std::unordered_map<std::uint16_t, TcpListener> listeners_;
  ConnId next_id_ = 1;

  sim::TimerWheel wheel_;
  std::vector<sim::TimerWheel::Expired> expired_;  // service_timers scratch
  std::vector<ConnId> dirty_;
  std::vector<ConnId> dead_;
  std::vector<ConnId> reaping_;  // reap_dead's batch; keeps its capacity
  std::vector<RawRst> raw_rsts_;  // unknown-flow RSTs, sent during flush
};

}  // namespace ash::proto

// Multi-queue receive scaling: per-CPU RX queues, steering, coalescing.
//
// The paper runs every ASH synchronously from the driver — one interrupt
// crossing per message, all on the one CPU. That is the serial bottleneck
// the receive-scaling subsystem removes, following the modern recipe:
//
//  * steering — the NIC already demultiplexes (AN2 VC index, Ethernet
//    DPF match), so the demux *result* picks a receive queue via a
//    pluggable SteeringPolicy (RSS-style channel hash, owner-affinity,
//    or explicit pins). Steering happens on the board, so it charges no
//    CPU cycles — exactly like the AN2's hardware VC demux.
//
//  * per-CPU queues — each RxQueue runs its kernel work (driver pass +
//    the channel's frame hook, i.e. batched ASH dispatch) on its own
//    sim::KernelCpu. Queue 0 uses the node's main CPU, so a 1-queue
//    configuration keeps the paper's single-CPU contention semantics;
//    queues 1..N-1 use auxiliary rx CPUs (Node::add_rx_cpu).
//
//  * coalescing — with CoalesceConfig::enabled, arrivals accumulate and
//    the queue charges ONE interrupt entry per fired batch instead of
//    one per frame. A batch fires when max_frames are pending or when
//    the oldest frame has waited max_delay (a timer armed per first
//    pending frame); with `adaptive` set the queue switches NAPI-style
//    into polling mode under load, where a batch pickup costs
//    CostModel::rxq_poll_pass instead of a full interrupt entry.
//
// With coalescing off, every enqueue fires immediately as a batch of
// one charging interrupt_entry + the frame's driver work — cycle-for-
// cycle the inline path's charge, which is what the single-queue
// equivalence tests pin.
//
// Invariants (tests/net_rxqueue_test.cpp):
//   enqueued == dispatched + pending + dropped, always;
//   no batch exceeds max_frames;
//   every frame's batch fires within max_delay of its enqueue.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"
#include "trace/metrics.hpp"

namespace ash::net {

class NicProcessor;
class RxSink;

/// One received frame, demultiplexed to a channel. The device fills
/// everything at steer time; `driver_cycles` is the per-frame driver/demux
/// work the batch fire charges (excluding the per-batch interrupt entry).
struct RxFrame {
  RxSink* sink = nullptr;
  int channel = -1;              // AN2 VC or Ethernet endpoint id
  std::uint32_t addr = 0;        // delivered message location
  std::uint32_t len = 0;
  std::uint32_t stripe_chunk = 0;  // nonzero: `addr` is device-striped
  std::uint32_t buf_addr = 0;    // original rx buffer (recycled on drop)
  std::uint32_t buf_len = 0;
  sim::Process* owner = nullptr;
  sim::Cycles driver_cycles = 0;
  sim::Cycles enqueued_at = 0;
};

/// A channel's kernel receive hook over a run of its frames: the ASH
/// attachment point on both devices. `queued` is true when an RxQueue
/// fired the batch, false for an inline delivery (one frame, on the
/// node's main CPU). The hook charges its own work on `cpu` and sets
/// consumed[i] for each frame it consumed; the device sends the unset
/// ones down its normal delivery path.
using FrameHook = std::function<void(std::span<const RxFrame> frames,
                                     const sim::KernelCpu& cpu, bool queued,
                                     bool* consumed)>;

/// Device-side consumer of a fired batch. Both NIC models implement this;
/// the queue groups consecutive same-(sink, channel) frames before
/// calling rx_batch so handlers see maximal same-channel runs.
class RxSink {
 public:
  virtual ~RxSink() = default;
  /// Deliver a run of frames (same sink and channel) in kernel context on
  /// `cpu`. Called from the batch's kernel_work completion; any further
  /// work (handler execution, copies, wakeups) is charged on `cpu` by the
  /// sink itself.
  virtual void rx_batch(std::span<const RxFrame> frames,
                        const sim::KernelCpu& cpu) = 0;
  /// Reclaim a frame the queue dropped before dispatch (overflow).
  virtual void rx_drop(const RxFrame& frame) = 0;

  // ---- smart-NIC offload (net::NicProcessor) ----
  //
  // Default no-ops so sinks that never offload (tests' FakeSinks) need
  // not care. A device that hands frames to a NicProcessor overrides
  // both.

  /// The NIC committed `frame` entirely on-device: recycle its receive
  /// buffer. Charges nothing — the device owns buffer bookkeeping.
  virtual void nic_consumed(const RxFrame& frame) { (void)frame; }
  /// The NIC punted `frame`: complete it on the host path, charging the
  /// host-side receive pass on `cpu` (the steered queue's CPU). The
  /// handler must NOT run again — it already executed (at most) once on
  /// the device; this is fallback-ring delivery only.
  virtual void nic_punt(const RxFrame& frame, const sim::KernelCpu& cpu) {
    (void)frame;
    (void)cpu;
  }
  /// The handler processor in front of this device's queues, if any.
  virtual NicProcessor* nic() const noexcept { return nullptr; }

  // ---- ASH attachment (core::AshSystem::attach/offload/detach) ----
  //
  // Default no-ops for the same reason as the offload calls above.

  /// Install the channel's frame hook (a null hook removes it).
  virtual void set_kernel_batch_hook(int channel, FrameHook hook) {
    (void)channel;
    (void)hook;
  }
  /// Remove every kernel hook on the channel: the frame hook and any
  /// device-specific per-frame hook. Its frames then take the normal path.
  virtual void clear_kernel_hooks(int channel) { (void)channel; }
  /// Transmit a handler's reply (a released TSend) on this device.
  virtual bool reply(int channel, std::span<const std::uint8_t> bytes) {
    (void)channel;
    (void)bytes;
    return false;
  }
  /// Kernel-side transmit work per reply (charged per TSend).
  virtual sim::Cycles tx_kernel_work() const noexcept { return 0; }

 protected:
  /// `n` cleared consumed flags for one FrameHook call. The buffer is
  /// reused from call to call, so a batch allocates nothing.
  bool* consumed_flags(std::size_t n);

 private:
  std::unique_ptr<bool[]> consumed_;
  std::size_t consumed_cap_ = 0;
};

/// Why an RxQueue dropped a frame before dispatch (RxDrop arg1; keep in
/// sync with the namer in trace/format.cpp and QueueMetrics).
enum class RxDropReason : std::uint8_t {
  Overflow,     // the queue itself was full
  TenantQuota,  // the owning tenant exceeded its occupancy quota
};
inline constexpr std::size_t kRxDropReasonCount = 2;
const char* to_string(RxDropReason r) noexcept;

/// Per-tenant RX-queue occupancy accounting, consulted at enqueue time.
/// Implemented by core::TenantScheduler (net cannot depend on core, so the
/// interface lives here). All three calls are host-side bookkeeping: they
/// charge no simulated cycles.
///
/// Contract: try_admit() charges one unit of occupancy to `owner` when it
/// returns true; on_dispatched() releases it when the frame leaves the
/// queue. A dropped frame was never charged — enqueue short-circuits on
/// overflow before consulting the quota — so on_drop() only attributes the
/// loss to the offender, it never releases.
class RxQuota {
 public:
  virtual ~RxQuota() = default;
  /// May frame-owner `owner` park one more frame? true charges occupancy.
  virtual bool try_admit(const sim::Process* owner) = 0;
  /// A previously admitted frame left the queue (batch delivery).
  virtual void on_dispatched(const sim::Process* owner) = 0;
  /// A frame owned by `owner` was dropped at enqueue for `reason`.
  virtual void on_drop(const sim::Process* owner, RxDropReason reason) = 0;
};

enum class SteerMode : std::uint8_t {
  ChannelHash,    // RSS-style: demux id picks the queue (default)
  OwnerAffinity,  // owning process pid picks the queue
  Pinned,         // explicit channel->queue pins; unpinned go to queue 0
};

struct SteeringPolicy {
  SteerMode mode = SteerMode::ChannelHash;
  /// Explicit channel->queue pins, consulted first in every mode.
  std::unordered_map<int, std::size_t> pins;

  std::size_t pick(int channel, const sim::Process* owner,
                   std::size_t queues) const;

  /// RSS-style flow label for a TCP/UDP 4-tuple (FNV-1a, folded to a
  /// non-negative int). Both the receive path and a connection table can
  /// hash with this, so a flow's frames steer to the queue that owns the
  /// flow's table shard.
  static int flow_channel(std::uint32_t local_ip, std::uint32_t remote_ip,
                          std::uint16_t local_port,
                          std::uint16_t remote_port) noexcept;
};

struct CoalesceConfig {
  /// Off (default): one fire — one interrupt charge — per frame, the
  /// paper's per-message path.
  bool enabled = false;
  std::uint32_t max_frames = 8;
  sim::Cycles max_delay = sim::us(50.0);
  /// NAPI-style: after a full batch the queue stays in polling mode
  /// (cheap rxq_poll_pass per batch) until a timer-drained batch shows
  /// the load has dropped.
  bool adaptive = false;
};

/// Why a batch fired (CoalesceFire arg1; keep in sync with the namer in
/// trace/format.cpp).
enum class FireReason : std::uint8_t { Immediate, Full, Timer, Poll };
inline constexpr std::size_t kFireReasonCount = 4;
const char* to_string(FireReason r) noexcept;

class RxQueue {
 public:
  RxQueue(sim::KernelCpu cpu, std::size_t index, const CoalesceConfig& co,
          std::size_t capacity, RxQuota* quota = nullptr);

  void enqueue(RxFrame frame);

  std::size_t index() const noexcept { return index_; }
  const sim::KernelCpu& cpu() const noexcept { return cpu_; }
  bool polling() const noexcept { return poll_mode_; }
  std::size_t depth() const noexcept { return pending_.size(); }

  // Conservation counters: enqueued == dispatched + depth + dropped,
  // and dropped == overflow_drops + quota_drops.
  std::uint64_t enqueued() const noexcept { return enqueued_; }
  std::uint64_t dispatched() const noexcept { return dispatched_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t overflow_drops() const noexcept { return overflow_drops_; }
  std::uint64_t quota_drops() const noexcept { return quota_drops_; }
  std::uint64_t batches() const noexcept { return batches_; }

  /// Enqueue-to-delivery delay (cycles) of every dispatched frame — the
  /// queueing component of tail latency. Host-side observer: recording it
  /// charges nothing.
  const trace::Histogram& sojourn() const noexcept { return sojourn_; }

 private:
  void fire(FireReason reason);
  void arm_timer(sim::Cycles deadline);
  void deliver_batch(std::vector<RxFrame> batch);

  sim::KernelCpu cpu_;
  std::size_t index_;
  CoalesceConfig co_;
  std::size_t capacity_;
  RxQuota* quota_ = nullptr;
  std::deque<RxFrame> pending_;
  bool timer_armed_ = false;
  std::uint64_t timer_gen_ = 0;
  bool poll_mode_ = false;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t overflow_drops_ = 0;
  std::uint64_t quota_drops_ = 0;
  std::uint64_t batches_ = 0;
  trace::Histogram sojourn_;
};

/// The set of receive queues a device steers into. Queue 0 runs on the
/// node's main CPU; queues 1..N-1 each get an auxiliary rx CPU.
class RxQueueSet {
 public:
  struct Config {
    std::size_t queues = 1;
    SteeringPolicy steering;
    CoalesceConfig coalesce;
    /// Per-queue pending-frame cap; overflow frames are dropped back to
    /// the device (counted in RxQueue::dropped, attributed per owner via
    /// `quota` and the RxDrop trace event).
    std::size_t capacity = 256;
    /// Optional per-tenant occupancy accounting, consulted on every
    /// enqueue (core::TenantScheduler implements this).
    RxQuota* quota = nullptr;
  };

  RxQueueSet(sim::Node& node, const Config& cfg);

  std::size_t size() const noexcept { return queues_.size(); }
  RxQueue& queue(std::size_t i) noexcept { return *queues_[i]; }
  const Config& config() const noexcept { return cfg_; }

  /// The queue the policy steers (channel, owner) to.
  RxQueue& steer(int channel, const sim::Process* owner);

 private:
  Config cfg_;
  std::vector<std::unique_ptr<RxQueue>> queues_;
};

}  // namespace ash::net

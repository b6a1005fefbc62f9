// The AN2 ATM network interface (Section IV-A).
//
// Digital's AN2 is modelled the way the paper uses it:
//  * processes bind to a virtual circuit and supply pinned receive buffers
//    from their own memory; the device DMAs arriving payloads directly
//    into those buffers ("can DMA messages into any location in physical
//    memory" — the zero-copy path);
//  * kernel and user share a per-VC notification ring: a polling process
//    discovers arrivals by reading the ring, with no kernel involvement;
//  * alternatively a VC can run in interrupt mode (blocked owner is woken
//    by driver work) or have a kernel receive hook installed — the hook is
//    how the ASH system attaches ("ASHs are invoked directly from the AN2
//    device driver, just after it performs a software cache flush of the
//    message location");
//  * link timing: fixed one-way board/switch latency plus serialization at
//    the payload rate plus a fixed per-packet DMA/cell-framing overhead —
//    calibrated so a 4-byte hardware round trip costs the paper's 96 us
//    and a 4 KB train tops out near 16.1 MB/s (Fig. 3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/fault.hpp"
#include "net/rx_queue.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"

namespace ash::net {

class An2Switch;
class NicProcessor;

/// Where a received message landed in the owner's memory.
struct RxDesc {
  std::uint32_t addr = 0;
  std::uint32_t len = 0;
};

struct An2Config {
  /// Maximum payload rate ("about 16.8 Mbytes/s per link").
  double bandwidth_mbytes_per_sec = 16.8;
  /// Fixed one-way hardware latency (boards + switch + DMA). Together
  /// with per_packet_overhead this gives a tiny message a one-way
  /// hardware cost of ~48 us — the paper's 96 us hardware RTT.
  sim::Cycles one_way_latency = sim::us(37.8);
  /// Per-packet fixed transmit overhead (DMA setup, AAL5 framing) — this
  /// is what keeps a 4 KB train at 16.1 rather than 16.8 MB/s (Fig. 3).
  sim::Cycles per_packet_overhead = sim::us(10.0);
  /// Driver work per received packet when the kernel is involved
  /// (interrupt entry handled separately via CostModel).
  sim::Cycles rx_driver_work = sim::us(1.0);
  /// Software cache flush of the message location after DMA.
  sim::Cycles rx_cache_flush = sim::us(0.5);
  /// Kernel-side transmit work (descriptor + board register writes).
  sim::Cycles tx_kernel_work = sim::us(4.0);
  /// Injected faults for protocol testing (defaults: a perfect link).
  /// Applied on this device's transmit side, so each link direction has
  /// its own deterministic fault schedule.
  FaultConfig faults;
};

class An2Device : public RxSink {
 public:
  An2Device(sim::Node& node, const An2Config& config = {});

  /// Connect both directions to a peer device (point-to-point). May be
  /// called once per device pair; exclusive with attach_switch().
  void connect(An2Device& peer);

  /// Attach this device to a switch instead of a point-to-point peer;
  /// sends are then routed by the switch's circuit table.
  void attach_switch(An2Switch& sw);

  sim::Node& node() noexcept { return node_; }
  const An2Config& config() const noexcept { return config_; }

  // ---- virtual circuits ----

  /// Event delivered to a kernel receive hook (the ASH attachment point).
  struct RxEvent {
    int vc;
    RxDesc desc;
    sim::Process* owner;
  };
  /// Runs in kernel context right after the driver's cache flush. Return
  /// true if the message was consumed; false falls back to the normal
  /// notification path.
  using KernelHook = std::function<bool(const RxEvent&)>;

  /// Bind a VC owned by `owner`. Returns the VC id.
  int bind_vc(sim::Process& owner);

  /// Supply a pinned receive buffer (within the owner's memory).
  void supply_buffer(int vc, std::uint32_t addr, std::uint32_t len);

  /// Poll the notification ring: pop the next arrival, if any. Free — the
  /// caller charges poll-iteration cycles itself, and the contract is
  /// check-then-charge: charge poll_iteration only AFTER an empty poll,
  /// and charge the receive-processing overhead (an2_user_recv_overhead)
  /// INSTEAD of — never in addition to — a poll_iteration on the
  /// iteration that finds a frame. A frame arriving mid-iteration is
  /// discovered by the next check at no extra poll charge; the cycle-
  /// exact expectation is pinned by tests/net_poll_charge_test.cpp.
  std::optional<RxDesc> poll(int vc);
  /// True exactly when poll(vc) would return an arrival; never pops (for
  /// Process::spin predicates).
  bool rx_pending(int vc) const { return !vc_at(vc).notify_ring.empty(); }

  /// Channel notified on arrivals in interrupt mode (token semantics).
  sim::WaitChannel& arrival_channel(int vc);

  /// Interrupt mode: arrivals perform kernel work and wake the owner.
  /// Off (default): pure polling, no kernel involvement per packet.
  void set_interrupt_mode(int vc, bool on);

  /// Install/remove the per-frame kernel receive hook for a VC. Passing a
  /// null hook clears it; arrivals then take the normal notification
  /// path with no kernel involvement.
  void set_kernel_hook(int vc, KernelHook hook);
  /// True while either hook slot (per-frame or frame hook) is set.
  bool has_kernel_hook(int vc) const {
    const Vc& v = vc_at(vc);
    return v.hook || v.frame_hook;
  }

  /// The frame hook (RxSink) takes priority over the per-frame hook on
  /// both the inline and the multi-queue path. Consumed frames' buffers
  /// are recycled; the rest go to the notification ring.
  void set_kernel_batch_hook(int vc, FrameHook hook) override;
  void clear_kernel_hooks(int vc) override;

  /// Steer arrivals through a multi-queue receive set instead of the
  /// inline per-frame path; nullptr (default) restores the inline path.
  /// The set must outlive the device's traffic.
  void set_rx_queues(RxQueueSet* queues) noexcept { rxq_ = queues; }
  RxQueueSet* rx_queues() const noexcept { return rxq_; }

  /// Put a smart-NIC handler processor in front of the queue set: frames
  /// for NIC-resident VCs are offered to it at steer time (before the
  /// host RxQueueSet). Requires set_rx_queues; nullptr restores the pure
  /// host path. The processor must outlive the device's traffic.
  void set_nic(NicProcessor* nic) noexcept { nic_ = nic; }
  NicProcessor* nic() const noexcept override { return nic_; }

  // RxSink: batch delivery from an RxQueue (kernel context, queue CPU).
  void rx_batch(std::span<const RxFrame> frames,
                const sim::KernelCpu& cpu) override;
  void rx_drop(const RxFrame& frame) override;
  void nic_consumed(const RxFrame& frame) override;
  void nic_punt(const RxFrame& frame, const sim::KernelCpu& cpu) override;
  bool reply(int vc, std::span<const std::uint8_t> bytes) override {
    return send(vc, bytes);
  }
  sim::Cycles tx_kernel_work() const noexcept override {
    return config_.tx_kernel_work;
  }

  /// Return a consumed buffer to the free ring (its full original length).
  void return_buffer(int vc, std::uint32_t addr, std::uint32_t len);

  std::size_t free_buffers(int vc) const;
  std::uint64_t drops(int vc) const;

  /// Per-fault-class event counts for this device's transmit direction.
  const FaultCounters& fault_counters() const noexcept {
    return faults_.counters();
  }
  /// Swap the fault schedule mid-run (loss sweeps, link-heal tests).
  void set_faults(const FaultConfig& faults) { faults_.set_config(faults); }

  // ---- transmit ----

  /// Send `len` bytes at `addr` in this node's memory to the peer's VC
  /// `dst_vc`. CPU cost is the caller's business (tx_kernel_work is
  /// exposed for that); this accounts wire time only. Returns false if
  /// not connected or the range is bad.
  bool send_from(int dst_vc, std::uint32_t addr, std::uint32_t len);

  /// Send a byte string (kernel-originated control traffic, tests).
  bool send(int dst_vc, std::span<const std::uint8_t> bytes);

  /// Serialization + fixed per-packet cost for `len` bytes (for benches).
  sim::Cycles tx_wire_cycles(std::uint32_t len) const;

 private:
  struct Vc {
    sim::Process* owner = nullptr;
    std::deque<RxDesc> free_bufs;
    std::deque<RxDesc> notify_ring;
    sim::WaitChannel arrival;
    KernelHook hook;
    FrameHook frame_hook;
    bool interrupt_mode = false;
    std::uint64_t drops = 0;
  };

  friend class An2Switch;

  Vc& vc_at(int vc);
  const Vc& vc_at(int vc) const;
  void deliver(int vc, std::vector<std::uint8_t> bytes);
  /// Offer same-VC frames to the VC's hook (the frame hook, else the
  /// per-frame hook), recycle the consumed ones and post the rest to the
  /// ring with one boosted wakeup. Serves inline deliveries and queued
  /// batches with a frame hook; rx_batch keeps its own per-frame branch.
  void run_hooks(std::span<const RxFrame> frames, const sim::KernelCpu& cpu,
                 bool queued);
  /// Post a frame no hook consumed to the notification ring (traced as
  /// an upcall fallback); the caller wakes the owner.
  void fall_back(const RxFrame& f, const sim::KernelCpu& cpu);

  sim::Node& node_;
  An2Config config_;
  An2Device* peer_ = nullptr;
  An2Switch* switch_ = nullptr;
  int switch_port_ = -1;
  std::vector<Vc> vcs_;
  RxQueueSet* rxq_ = nullptr;
  NicProcessor* nic_ = nullptr;
  sim::Cycles tx_free_at_ = 0;  // link serialization pipeline
  FaultInjector faults_;
};

}  // namespace ash::net

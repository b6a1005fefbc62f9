// The 10 Mb/s Ethernet interface (Section IV-A).
//
// Modelled after the DECstation's LANCE as the paper characterizes it:
//  * the device DMAs frames into a small pool of kernel receive buffers —
//    and stripes them: "our Ethernet DMA engine stripes an N-byte
//    contiguous packet into a 2N-byte buffer, alternating 16 bytes of data
//    and 16 bytes of padding" (Section III-C);
//  * buffers are scarce, so "a message must not stay in them very long. In
//    this case, at least one copy is always necessary" (Section V-A1) —
//    the kernel (or an ASH) must copy the frame out promptly or new frames
//    are dropped;
//  * demultiplexing runs DPF over the frame in the interrupt handler; the
//    winning endpoint's receive path (default copy-out, or its ASH hook)
//    then runs in kernel context.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dpf/dpf.hpp"
#include "net/an2.hpp"  // RxDesc
#include "net/fault.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"

namespace ash::net {

struct EthernetConfig {
  double bandwidth_mbits_per_sec = 10.0;
  /// Preamble + interframe gap, charged per frame on the wire.
  std::uint32_t framing_bytes = 20;
  std::uint32_t min_frame_bytes = 64;
  std::uint32_t max_frame_bytes = 1518;
  /// One-way latency through the (thin) wire + board.
  sim::Cycles one_way_latency = sim::us(10.0);
  /// Number of kernel receive buffers (the scarce on-board/ring pool).
  std::size_t rx_buffers = 8;
  /// Interrupt-handler driver work per frame, beyond DPF and the copy
  /// (the LANCE is a slow device to program over the TURBOchannel).
  sim::Cycles rx_driver_work = sim::us(12.0);
  sim::Cycles tx_kernel_work = sim::us(20.0);
  /// Use the compiled DPF engine (true) or the interpreted baseline.
  bool compiled_dpf = true;
  /// Injected faults for protocol testing (defaults: a perfect link).
  /// Same surface as An2Config::faults — one injector per link direction.
  FaultConfig faults;
};

class EthernetDevice : public RxSink {
 public:
  /// Kernel receive buffers live in the node's kernel area (segment 0).
  /// Each holds one striped frame (2 x max_frame_bytes).
  EthernetDevice(sim::Node& node, const EthernetConfig& config = {});

  void connect(EthernetDevice& peer);

  sim::Node& node() noexcept { return node_; }
  const EthernetConfig& config() const noexcept { return config_; }

  // ---- endpoints ----

  /// A frame, staged in a kernel buffer, offered to a kernel hook. `addr`
  /// points at the STRIPED kernel buffer (use memops::copy_destripe or a
  /// striping-aware DILP loop to move it). The hook must finish with the
  /// data copied out; the buffer is recycled when it returns.
  struct RxEvent {
    int endpoint;
    RxDesc striped;        // addr of striped kernel buffer, len = frame len
    sim::Process* owner;
  };
  using KernelHook = std::function<bool(const RxEvent&)>;

  /// Attach an endpoint: frames matching `filter` (DPF) belong to `owner`.
  /// Returns the endpoint id.
  int attach(sim::Process& owner, dpf::Filter filter);

  /// Supply an app-memory buffer the kernel default path copies frames
  /// into (destriped).
  void supply_buffer(int endpoint, std::uint32_t addr, std::uint32_t len);

  /// Poll the notification ring: pop the next copied-out arrival, if any.
  /// Free — the caller charges poll-iteration cycles itself, with the
  /// same check-then-charge contract as An2Device::poll: poll_iteration
  /// only after an empty poll, receive-processing overhead instead of
  /// (never in addition to) a poll charge on the iteration that finds a
  /// frame. Pinned cycle-exactly by tests/net_poll_charge_test.cpp.
  std::optional<RxDesc> poll(int endpoint);
  /// True exactly when poll(endpoint) would return an arrival; never pops
  /// (for Process::spin predicates).
  bool rx_pending(int endpoint) const {
    return !ep_at(endpoint).notify_ring.empty();
  }
  sim::WaitChannel& arrival_channel(int endpoint);
  void set_interrupt_mode(int endpoint, bool on);
  /// Install/remove the per-frame kernel receive hook. Passing a null
  /// hook clears it; frames then take the default copy-out path.
  void set_kernel_hook(int endpoint, KernelHook hook);
  /// True while either hook slot (per-frame or frame hook) is set.
  bool has_kernel_hook(int endpoint) const {
    const Endpoint& ep = ep_at(endpoint);
    return ep.hook || ep.frame_hook;
  }

  /// The frame hook (RxSink) takes priority over the per-frame hook on
  /// both the inline and the multi-queue path. Its frames are offered in
  /// the STRIPED kernel buffer (RxFrame::stripe_chunk = 16); a consumed
  /// frame's kernel buffer is recycled, the rest take the default
  /// copy-out path.
  void set_kernel_batch_hook(int endpoint, FrameHook hook) override;
  void clear_kernel_hooks(int endpoint) override;

  /// Steer matched frames through a multi-queue receive set; nullptr
  /// (default) restores the inline path. Unmatched frames are always
  /// counted and dropped inline (there is no endpoint to steer by).
  void set_rx_queues(RxQueueSet* queues) noexcept { rxq_ = queues; }
  RxQueueSet* rx_queues() const noexcept { return rxq_; }

  /// Put a smart-NIC handler processor in front of the queue set (same
  /// contract as An2Device::set_nic): matched frames for NIC-resident
  /// endpoints are offered to it at steer time.
  void set_nic(NicProcessor* nic) noexcept { nic_ = nic; }
  NicProcessor* nic() const noexcept override { return nic_; }

  // RxSink: batch delivery from an RxQueue (kernel context, queue CPU).
  void rx_batch(std::span<const RxFrame> frames,
                const sim::KernelCpu& cpu) override {
    receive(frames, cpu, /*queued=*/true);
  }
  void rx_drop(const RxFrame& frame) override;
  void nic_consumed(const RxFrame& frame) override;
  void nic_punt(const RxFrame& frame, const sim::KernelCpu& cpu) override;
  /// One Ethernet segment: the reply goes to the peer, whatever `channel`.
  bool reply(int channel, std::span<const std::uint8_t> bytes) override {
    (void)channel;
    return send(bytes);
  }
  sim::Cycles tx_kernel_work() const noexcept override {
    return config_.tx_kernel_work;
  }
  void return_buffer(int endpoint, std::uint32_t addr, std::uint32_t len);

  std::uint64_t drops() const noexcept { return drops_; }
  std::uint64_t unmatched() const noexcept { return unmatched_; }

  /// Per-fault-class event counts for this device's transmit direction.
  const FaultCounters& fault_counters() const noexcept {
    return faults_.counters();
  }
  /// Swap the fault schedule mid-run (loss sweeps, link-heal tests).
  void set_faults(const FaultConfig& faults) { faults_.set_config(faults); }

  /// Kernel receive buffers currently held by in-flight receive paths.
  /// Zero once all deliveries have drained — the fuzz harness's
  /// kernel-buffer leak check.
  std::size_t kernel_bufs_in_use() const noexcept {
    std::size_t n = 0;
    for (const KernelBuf& kb : kernel_bufs_) n += kb.in_use ? 1 : 0;
    return n;
  }

  // ---- transmit ----

  bool send_from(std::uint32_t addr, std::uint32_t len);
  bool send(std::span<const std::uint8_t> bytes);
  sim::Cycles tx_wire_cycles(std::uint32_t len) const;

 private:
  struct Endpoint {
    sim::Process* owner = nullptr;
    std::deque<RxDesc> free_bufs;
    std::deque<RxDesc> notify_ring;
    sim::WaitChannel arrival;
    KernelHook hook;
    FrameHook frame_hook;
    bool interrupt_mode = false;
  };

  struct KernelBuf {
    std::uint32_t addr;
    bool in_use = false;
  };

  Endpoint& ep_at(int id);
  const Endpoint& ep_at(int id) const;
  void deliver(std::vector<std::uint8_t> bytes);
  /// The endpoint's receive path for a run of its frames, inline (one
  /// frame, main CPU) or from an RxQueue: hooks, then the default copy-out
  /// for every frame they did not consume.
  void receive(std::span<const RxFrame> frames, const sim::KernelCpu& cpu,
               bool queued);
  /// Default copy-out of one frame: copy the striped kernel buffer into
  /// the endpoint's next app buffer (charged on `cpu`), post it to the
  /// ring and recycle the kernel buffer. `declined` (a hook passed on the
  /// frame) traces the fallback. False: no app buffer fits; dropped.
  bool copy_out(const RxFrame& f, const sim::KernelCpu& cpu, bool declined);
  /// Wake the endpoint's owner after copy-outs: a wakeup charged on `cpu`
  /// in interrupt mode, else a polling token.
  void wake(int endpoint, const sim::KernelCpu& cpu);
  void release_kernel_buf(std::uint32_t addr);

  sim::Node& node_;
  EthernetConfig config_;
  EthernetDevice* peer_ = nullptr;
  std::vector<Endpoint> endpoints_;
  std::vector<KernelBuf> kernel_bufs_;
  RxQueueSet* rxq_ = nullptr;
  NicProcessor* nic_ = nullptr;
  std::unique_ptr<dpf::Engine> demux_;
  sim::Cycles tx_free_at_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t unmatched_ = 0;
  FaultInjector faults_;
};

}  // namespace ash::net

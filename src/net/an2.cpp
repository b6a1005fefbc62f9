#include "net/an2.hpp"

#include <cstring>
#include <stdexcept>

#include "net/an2_switch.hpp"
#include "net/nic_offload.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

An2Device::An2Device(sim::Node& node, const An2Config& config)
    : node_(node), config_(config), faults_(config.faults) {}

void An2Device::connect(An2Device& peer) {
  if (peer_ != nullptr || peer.peer_ != nullptr || switch_ != nullptr ||
      peer.switch_ != nullptr) {
    throw std::logic_error("An2Device: already connected");
  }
  peer_ = &peer;
  peer.peer_ = this;
}

void An2Device::attach_switch(An2Switch& sw) {
  if (peer_ != nullptr || switch_ != nullptr) {
    throw std::logic_error("An2Device: already connected");
  }
  switch_ = &sw;
  switch_port_ = static_cast<int>(sw.ports_.size());
  sw.ports_.push_back(this);
}

int An2Device::bind_vc(sim::Process& owner) {
  vcs_.emplace_back();
  vcs_.back().owner = &owner;
  return static_cast<int>(vcs_.size() - 1);
}

An2Device::Vc& An2Device::vc_at(int vc) {
  if (vc < 0 || static_cast<std::size_t>(vc) >= vcs_.size()) {
    throw std::out_of_range("An2Device: bad vc");
  }
  return vcs_[static_cast<std::size_t>(vc)];
}

const An2Device::Vc& An2Device::vc_at(int vc) const {
  return const_cast<An2Device*>(this)->vc_at(vc);
}

void An2Device::supply_buffer(int vc, std::uint32_t addr, std::uint32_t len) {
  Vc& v = vc_at(vc);
  if (node_.mem(addr, len) == nullptr) {
    throw std::out_of_range("An2Device: buffer outside node memory");
  }
  v.free_bufs.push_back({addr, len});
}

std::optional<RxDesc> An2Device::poll(int vc) {
  Vc& v = vc_at(vc);
  if (v.notify_ring.empty()) return std::nullopt;
  const RxDesc d = v.notify_ring.front();
  v.notify_ring.pop_front();
  return d;
}

sim::WaitChannel& An2Device::arrival_channel(int vc) {
  return vc_at(vc).arrival;
}

void An2Device::set_interrupt_mode(int vc, bool on) {
  vc_at(vc).interrupt_mode = on;
}

void An2Device::set_kernel_hook(int vc, KernelHook hook) {
  vc_at(vc).hook = std::move(hook);
}

void An2Device::set_kernel_batch_hook(int vc, FrameHook hook) {
  vc_at(vc).frame_hook = std::move(hook);
}

void An2Device::clear_kernel_hooks(int vc) {
  Vc& v = vc_at(vc);
  v.hook = nullptr;
  v.frame_hook = nullptr;
}

void An2Device::return_buffer(int vc, std::uint32_t addr, std::uint32_t len) {
  supply_buffer(vc, addr, len);
}

std::size_t An2Device::free_buffers(int vc) const {
  return vc_at(vc).free_bufs.size();
}

std::uint64_t An2Device::drops(int vc) const { return vc_at(vc).drops; }

sim::Cycles An2Device::tx_wire_cycles(std::uint32_t len) const {
  const double cycles_per_byte =
      sim::kCpuMhz / config_.bandwidth_mbytes_per_sec;
  return config_.per_packet_overhead +
         static_cast<sim::Cycles>(cycles_per_byte * len);
}

bool An2Device::send_from(int dst_vc, std::uint32_t addr, std::uint32_t len) {
  const std::uint8_t* p = node_.mem(addr, len);
  if (p == nullptr) return false;
  return send(dst_vc, {p, len});
}

bool An2Device::send(int dst_vc, std::span<const std::uint8_t> bytes) {
  if (peer_ == nullptr && switch_ == nullptr) return false;

  // Link serialization pipelines behind earlier packets.
  const sim::Cycles now = node_.now();
  const sim::Cycles start = now > tx_free_at_ ? now : tx_free_at_;
  tx_free_at_ = start + tx_wire_cycles(static_cast<std::uint32_t>(bytes.size()));
  const sim::Cycles arrive = tx_free_at_ + config_.one_way_latency;

  std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
  const FaultInjector::Decision fault = faults_.inject(copy);
  if (fault.drop) return true;  // vanished on the wire

  // One delivery closure serves the switched and point-to-point paths, so
  // every fault class (including duplication) behaves identically on both.
  const auto dispatch = [this, dst_vc](sim::Cycles at,
                                       std::vector<std::uint8_t> frame) {
    if (switch_ != nullptr) {
      An2Switch* sw = switch_;
      const int port = switch_port_;
      node_.queue().schedule_at(at, [sw, port, dst_vc,
                                     frame = std::move(frame)]() mutable {
        sw->forward(port, dst_vc, std::move(frame));
      });
    } else {
      An2Device* peer = peer_;
      node_.queue().schedule_at(at, [peer, dst_vc,
                                     frame = std::move(frame)]() mutable {
        peer->deliver(dst_vc, std::move(frame));
      });
    }
  };

  if (fault.duplicate) {
    dispatch(arrive + fault.extra_delay + faults_.config().dup_delay, copy);
  }
  dispatch(arrive + fault.extra_delay, std::move(copy));
  return true;
}

void An2Device::deliver(int vc_id, std::vector<std::uint8_t> bytes) {
  if (vc_id < 0 || static_cast<std::size_t>(vc_id) >= vcs_.size()) return;
  Vc& vc = vcs_[static_cast<std::size_t>(vc_id)];

  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::FrameArrival, node_.cpu_id(), node_.now(), vc_id,
        static_cast<std::uint32_t>(bytes.size()),
        static_cast<std::uint32_t>(trace::NicKind::An2)));
    // On the AN2, the VC identifier IS the demux decision (hardware
    // steering, no classifier walk): zero nodes visited, fixed cost.
    trace::global().emit(trace::make_event(
        trace::EventType::DemuxDecision, node_.cpu_id(), node_.now(), vc_id,
        0, static_cast<std::uint32_t>(trace::NicKind::An2),
        node_.cost().demux_an2));
  }

  if (vc.free_bufs.empty()) {
    ++vc.drops;
    return;
  }
  RxDesc buf = vc.free_bufs.front();
  if (bytes.size() > buf.len) {
    // Message larger than the supplied buffer: the real board would scatter
    // across buffers; we model single-buffer VCs and drop oversize frames.
    ++vc.drops;
    return;
  }
  vc.free_bufs.pop_front();

  // DMA: payload lands in the owner's pinned memory; the cached copies of
  // those lines are now stale. Zero-length messages are legal on the VC
  // (an empty AAL5 payload) and must not touch memory at all.
  if (!bytes.empty()) {
    std::uint8_t* dst =
        node_.mem(buf.addr, static_cast<std::uint32_t>(bytes.size()));
    std::memcpy(dst, bytes.data(), bytes.size());
    node_.dcache().invalidate_range(buf.addr,
                                    static_cast<std::uint32_t>(bytes.size()));
  }
  const RxDesc desc{buf.addr, static_cast<std::uint32_t>(bytes.size())};
  RxFrame f;
  f.sink = this;
  f.channel = vc_id;
  f.addr = desc.addr;
  f.len = desc.len;
  f.buf_addr = buf.addr;
  f.buf_len = buf.len;
  f.owner = vc.owner;
  f.driver_cycles = config_.rx_driver_work + node_.cost().demux_an2 +
                    config_.rx_cache_flush;

  if (rxq_ != nullptr) {
    // Multi-queue path: the board's VC demux result steers the frame to a
    // receive queue (free, hardware steering); all kernel work — the
    // per-frame driver/demux/flush pass and hook or notification delivery
    // — happens when the queue's batch fires, on the queue's CPU.
    //
    // Smart-NIC offload: frames for NIC-resident VCs never reach a host
    // queue — the processor runs the handler on a device execution unit
    // (or counts a punt/drop). false means "host path, as usual".
    if (nic_ != nullptr && nic_->offer(f)) return;
    rxq_->steer(vc_id, vc.owner).enqueue(f);
    return;
  }

  // Kernel receive hooks (the ASH path): interrupt entry + driver work +
  // cache flush, then the hook runs in kernel context and charges its own
  // execution. When the handler consumes the message, the kernel recycles
  // the receive buffer immediately (the handler has copied out what it
  // wanted) — otherwise the VC would starve after rx_buffers consumed
  // messages.
  if (vc.frame_hook || vc.hook) {
    node_.kernel_work(node_.cost().interrupt_entry + f.driver_cycles,
                      [this, f] {
                        run_hooks({&f, 1}, sim::KernelCpu(node_),
                                  /*queued=*/false);
                      });
    return;
  }

  // Normal path: the board posts the notification ring entry directly
  // (visible to a polling process immediately, no kernel work).
  vc.notify_ring.push_back(desc);
  if (vc.interrupt_mode) {
    const sim::Cycles driver = node_.cost().interrupt_entry +
                               config_.rx_driver_work +
                               node_.cost().demux_an2 + node_.cost().wakeup;
    node_.kernel_work(driver, [this, vc_id] {
      Vc& v = vcs_[static_cast<std::size_t>(vc_id)];
      v.arrival.notify(/*boost=*/true);
    });
  } else {
    // Pure polling: no CPU involvement. Still post a token so coroutines
    // that mix poll-and-wait do not race.
    vc.arrival.notify(/*boost=*/false);
  }
}

void An2Device::rx_batch(std::span<const RxFrame> frames,
                         const sim::KernelCpu& cpu) {
  if (frames.empty()) return;
  // The queue groups by (sink, channel): all frames share one VC. Hooks
  // are re-checked here, at delivery time, because the supervisor may
  // have revoked them while the batch sat in the queue.
  const int vc_id = frames.front().channel;
  Vc& v = vcs_[static_cast<std::size_t>(vc_id)];

  if (v.frame_hook) {
    run_hooks(frames, cpu, /*queued=*/true);
    return;
  }

  // Per-frame hook (no frame hook installed): run it per message.
  for (const RxFrame& f : frames) {
    if (!v.hook) {
      v.notify_ring.push_back(RxDesc{f.addr, f.len});
    } else if (v.hook(RxEvent{vc_id, RxDesc{f.addr, f.len}, f.owner})) {
      v.free_bufs.push_back(RxDesc{f.buf_addr, f.buf_len});
    } else {
      fall_back(f, cpu);
    }
  }
  if (v.interrupt_mode) {
    // One coalesced wakeup per batch (vs one per frame inline).
    cpu.kernel_work(node_.cost().wakeup, [this, vc_id] {
      vcs_[static_cast<std::size_t>(vc_id)].arrival.notify(/*boost=*/true);
    });
  } else {
    v.arrival.notify(/*boost=*/false);
  }
}

void An2Device::run_hooks(std::span<const RxFrame> frames,
                          const sim::KernelCpu& cpu, bool queued) {
  const int vc_id = frames.front().channel;
  Vc& v = vcs_[static_cast<std::size_t>(vc_id)];
  bool* consumed = consumed_flags(frames.size());
  // Neither hook is set when it was cleared (detach, revocation) after
  // the frames were accepted: they all fall back.
  if (v.frame_hook) {
    v.frame_hook(frames, cpu, queued, consumed);
  } else if (v.hook) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const RxFrame& f = frames[i];
      consumed[i] = v.hook(RxEvent{vc_id, RxDesc{f.addr, f.len}, f.owner});
    }
  }
  bool any_fallback = false;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const RxFrame& f = frames[i];
    if (consumed[i]) {
      v.free_bufs.push_back(RxDesc{f.buf_addr, f.buf_len});
    } else {
      fall_back(f, cpu);
      any_fallback = true;
    }
  }
  if (any_fallback) v.arrival.notify(/*boost=*/true);
}

void An2Device::fall_back(const RxFrame& f, const sim::KernelCpu& cpu) {
  // Hooked VC falling back to the normal delivery path (handler denied,
  // aborted without consuming, punted by the NIC, or detached
  // mid-flight).
  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::UpcallFallback, cpu.cpu_id(), node_.now(),
        f.channel, static_cast<std::uint32_t>(trace::NicKind::An2)));
  }
  vcs_[static_cast<std::size_t>(f.channel)].notify_ring.push_back(
      RxDesc{f.addr, f.len});
}

void An2Device::rx_drop(const RxFrame& frame) {
  Vc& v = vcs_[static_cast<std::size_t>(frame.channel)];
  v.free_bufs.push_back(RxDesc{frame.buf_addr, frame.buf_len});
  ++v.drops;
}

void An2Device::nic_consumed(const RxFrame& frame) {
  // The handler committed on-device: the board recycles the pinned
  // receive buffer itself, no host cycles.
  Vc& v = vcs_[static_cast<std::size_t>(frame.channel)];
  v.free_bufs.push_back(RxDesc{frame.buf_addr, frame.buf_len});
}

void An2Device::nic_punt(const RxFrame& frame, const sim::KernelCpu& cpu) {
  // The NIC handed the frame back: charge the host's normal per-frame
  // receive pass on the steered queue's CPU, then deliver through the
  // fallback notification path. The handler is NOT re-run — it already
  // executed (at most) once on the device.
  const sim::Cycles host_pass =
      cpu.node().cost().interrupt_entry + frame.driver_cycles;
  cpu.kernel_work(host_pass, [this, frame, cpu] {
    fall_back(frame, cpu);
    vcs_[static_cast<std::size_t>(frame.channel)].arrival.notify(
        /*boost=*/true);
  });
}

}  // namespace ash::net

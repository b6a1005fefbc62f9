#include "net/ethernet.hpp"

#include <cstring>
#include <stdexcept>

#include "net/nic_offload.hpp"
#include "sim/kernel.hpp"
#include "sim/memops.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

namespace {
/// Kernel receive buffers are carved from the node's kernel area
/// (segment 0, below the first process segment), starting here.
constexpr std::uint32_t kKernelBufBase = 0x8000;
}  // namespace

EthernetDevice::EthernetDevice(sim::Node& node, const EthernetConfig& config)
    : node_(node), config_(config), faults_(config.faults) {
  if (config_.compiled_dpf) {
    demux_ = std::make_unique<dpf::CompiledEngine>();
  } else {
    demux_ = std::make_unique<dpf::InterpretedEngine>();
  }
  const std::uint32_t buf_bytes = 2 * config_.max_frame_bytes;
  for (std::size_t i = 0; i < config_.rx_buffers; ++i) {
    const std::uint32_t addr =
        kKernelBufBase + static_cast<std::uint32_t>(i) * buf_bytes;
    if (node_.mem(addr, buf_bytes) == nullptr) {
      throw std::length_error("EthernetDevice: kernel area too small");
    }
    kernel_bufs_.push_back({addr, false});
  }
}

void EthernetDevice::connect(EthernetDevice& peer) {
  if (peer_ != nullptr || peer.peer_ != nullptr) {
    throw std::logic_error("EthernetDevice: already connected");
  }
  peer_ = &peer;
  peer.peer_ = this;
}

int EthernetDevice::attach(sim::Process& owner, dpf::Filter filter) {
  endpoints_.emplace_back();
  endpoints_.back().owner = &owner;
  const int id = static_cast<int>(endpoints_.size() - 1);
  demux_->insert(std::move(filter), id);
  return id;
}

EthernetDevice::Endpoint& EthernetDevice::ep_at(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= endpoints_.size()) {
    throw std::out_of_range("EthernetDevice: bad endpoint");
  }
  return endpoints_[static_cast<std::size_t>(id)];
}

const EthernetDevice::Endpoint& EthernetDevice::ep_at(int id) const {
  return const_cast<EthernetDevice*>(this)->ep_at(id);
}

void EthernetDevice::supply_buffer(int endpoint, std::uint32_t addr,
                                   std::uint32_t len) {
  if (node_.mem(addr, len) == nullptr) {
    throw std::out_of_range("EthernetDevice: buffer outside node memory");
  }
  ep_at(endpoint).free_bufs.push_back({addr, len});
}

std::optional<RxDesc> EthernetDevice::poll(int endpoint) {
  Endpoint& ep = ep_at(endpoint);
  if (ep.notify_ring.empty()) return std::nullopt;
  const RxDesc d = ep.notify_ring.front();
  ep.notify_ring.pop_front();
  return d;
}

sim::WaitChannel& EthernetDevice::arrival_channel(int endpoint) {
  return ep_at(endpoint).arrival;
}

void EthernetDevice::set_interrupt_mode(int endpoint, bool on) {
  ep_at(endpoint).interrupt_mode = on;
}

void EthernetDevice::set_kernel_hook(int endpoint, KernelHook hook) {
  ep_at(endpoint).hook = std::move(hook);
}

void EthernetDevice::set_kernel_batch_hook(int endpoint, FrameHook hook) {
  ep_at(endpoint).frame_hook = std::move(hook);
}

void EthernetDevice::clear_kernel_hooks(int endpoint) {
  Endpoint& ep = ep_at(endpoint);
  ep.hook = nullptr;
  ep.frame_hook = nullptr;
}

void EthernetDevice::return_buffer(int endpoint, std::uint32_t addr,
                                   std::uint32_t len) {
  supply_buffer(endpoint, addr, len);
}

sim::Cycles EthernetDevice::tx_wire_cycles(std::uint32_t len) const {
  std::uint32_t wire_len = len + config_.framing_bytes;
  const std::uint32_t min_wire =
      config_.min_frame_bytes + config_.framing_bytes;
  if (wire_len < min_wire) wire_len = min_wire;
  const double cycles_per_byte =
      sim::kCpuMhz * 8.0 / config_.bandwidth_mbits_per_sec;
  return static_cast<sim::Cycles>(cycles_per_byte * wire_len);
}

bool EthernetDevice::send_from(std::uint32_t addr, std::uint32_t len) {
  const std::uint8_t* p = node_.mem(addr, len);
  if (p == nullptr) return false;
  return send({p, len});
}

bool EthernetDevice::send(std::span<const std::uint8_t> bytes) {
  if (peer_ == nullptr || bytes.size() > config_.max_frame_bytes) {
    return false;
  }
  const sim::Cycles now = node_.now();
  const sim::Cycles start = now > tx_free_at_ ? now : tx_free_at_;
  tx_free_at_ =
      start + tx_wire_cycles(static_cast<std::uint32_t>(bytes.size()));
  const sim::Cycles arrive = tx_free_at_ + config_.one_way_latency;

  std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
  const FaultInjector::Decision fault = faults_.inject(copy);
  if (fault.drop) return true;  // vanished on the wire

  EthernetDevice* peer = peer_;
  if (fault.duplicate) {
    std::vector<std::uint8_t> dup = copy;
    node_.queue().schedule_at(
        arrive + fault.extra_delay + faults_.config().dup_delay,
        [peer, dup = std::move(dup)]() mutable { peer->deliver(std::move(dup)); });
  }
  node_.queue().schedule_at(arrive + fault.extra_delay,
                            [peer, copy = std::move(copy)]() mutable {
                              peer->deliver(std::move(copy));
                            });
  return true;
}

void EthernetDevice::release_kernel_buf(std::uint32_t addr) {
  for (KernelBuf& kb : kernel_bufs_) {
    if (kb.addr == addr) {
      kb.in_use = false;
      return;
    }
  }
}

void EthernetDevice::deliver(std::vector<std::uint8_t> bytes) {
  // Grab a kernel receive buffer; the pool is small, and an exhausted pool
  // means the frame is lost — the pressure that makes the prompt copy-out
  // (and ASH-directed placement) matter.
  KernelBuf* kb = nullptr;
  for (KernelBuf& candidate : kernel_bufs_) {
    if (!candidate.in_use) {
      kb = &candidate;
      break;
    }
  }
  if (kb == nullptr) {
    ++drops_;
    return;
  }
  kb->in_use = true;

  // DMA, striped: 16 bytes of data, 16 bytes of padding, repeated.
  const auto len = static_cast<std::uint32_t>(bytes.size());
  std::uint8_t* buf = node_.mem(kb->addr, 2 * len);
  for (std::uint32_t i = 0; i < len; ++i) {
    buf[(i / 16) * 32 + (i % 16)] = bytes[i];
  }
  node_.dcache().invalidate_range(kb->addr, 2 * len);

  // Interrupt handler: DPF demux, then the endpoint's receive path.
  dpf::MatchStats stats;
  const int ep_id = demux_->match(bytes, &stats);

  sim::Cycles demux_cost;
  std::uint32_t visited;
  if (config_.compiled_dpf) {
    visited = stats.nodes_visited;
    demux_cost = stats.nodes_visited * node_.cost().dpf_node_cost;
  } else {
    visited = stats.atoms_evaluated;
    demux_cost = stats.atoms_evaluated * node_.cost().dpf_interp_atom_cost;
  }

  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::FrameArrival, node_.cpu_id(), node_.now(), ep_id,
        len, static_cast<std::uint32_t>(trace::NicKind::Ethernet)));
    trace::global().emit(trace::make_event(
        trace::EventType::DemuxDecision, node_.cpu_id(), node_.now(), ep_id,
        visited, static_cast<std::uint32_t>(trace::NicKind::Ethernet),
        demux_cost));
  }
  RxFrame f;
  f.sink = this;
  f.channel = ep_id;
  f.addr = kb->addr;  // striped kernel buffer
  f.len = len;
  f.stripe_chunk = 16;
  f.buf_addr = kb->addr;
  f.buf_len = len;
  f.owner = ep_id >= 0 ? endpoints_[static_cast<std::size_t>(ep_id)].owner
                       : nullptr;
  f.driver_cycles = config_.rx_driver_work + demux_cost;
  if (rxq_ != nullptr && ep_id >= 0) {
    // Multi-queue path: the DPF match result steers the frame; the
    // driver/demux work and the endpoint's receive path are charged when
    // the queue's batch fires, on the queue's CPU. Unmatched frames stay
    // inline below (no endpoint to steer by).
    //
    // Smart-NIC offload: frames for NIC-resident endpoints run on a
    // device execution unit; false means "host path, as usual".
    if (nic_ != nullptr && nic_->offer(f)) return;
    rxq_->steer(ep_id, f.owner).enqueue(f);
    return;
  }

  // Inline: the interrupt handler runs the endpoint's receive path right
  // here, in kernel context on the main CPU.
  node_.kernel_work(node_.cost().interrupt_entry + f.driver_cycles, [this, f] {
    if (f.channel < 0) {
      ++unmatched_;
      release_kernel_buf(f.buf_addr);
      return;
    }
    receive({&f, 1}, sim::KernelCpu(node_), /*queued=*/false);
  });
}

void EthernetDevice::receive(std::span<const RxFrame> frames,
                             const sim::KernelCpu& cpu, bool queued) {
  if (frames.empty()) return;
  const int ep_id = frames.front().channel;
  Endpoint& ep = endpoints_[static_cast<std::size_t>(ep_id)];
  bool* consumed = consumed_flags(frames.size());
  if (ep.frame_hook) ep.frame_hook(frames, cpu, queued, consumed);
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const RxFrame& f = frames[i];
    // A per-frame hook runs frame by frame, interleaved with copy-outs.
    const bool hooked = ep.frame_hook || ep.hook;
    if (ep.frame_hook ? consumed[i]
                      : ep.hook && ep.hook(RxEvent{ep_id, RxDesc{f.addr, f.len},
                                                   f.owner})) {
      release_kernel_buf(f.buf_addr);
    } else if (copy_out(f, cpu, /*declined=*/hooked)) {
      ++delivered;
    }
  }
  if (delivered != 0) wake(ep_id, cpu);
}

bool EthernetDevice::copy_out(const RxFrame& f, const sim::KernelCpu& cpu,
                              bool declined) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(f.channel)];
  if (declined && trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::UpcallFallback, cpu.cpu_id(), node_.now(),
        f.channel, static_cast<std::uint32_t>(trace::NicKind::Ethernet)));
  }
  if (ep.free_bufs.empty() || ep.free_bufs.front().len < f.len) {
    drops_ += 1;
    release_kernel_buf(f.buf_addr);
    return false;
  }
  const RxDesc dst = ep.free_bufs.front();
  ep.free_bufs.pop_front();
  const sim::Cycles copy_cycles =
      sim::memops::copy_destripe(node_, dst.addr, f.buf_addr, f.len);
  cpu.kernel_work(copy_cycles);
  release_kernel_buf(f.buf_addr);
  ep.notify_ring.push_back({dst.addr, f.len});
  return true;
}

void EthernetDevice::wake(int endpoint, const sim::KernelCpu& cpu) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(endpoint)];
  if (ep.interrupt_mode) {
    // One coalesced wakeup per batch (vs one per frame inline).
    cpu.kernel_work(node_.cost().wakeup, [this, endpoint] {
      endpoints_[static_cast<std::size_t>(endpoint)].arrival.notify(true);
    });
  } else {
    ep.arrival.notify(/*boost=*/false);
  }
}

void EthernetDevice::rx_drop(const RxFrame& frame) {
  release_kernel_buf(frame.buf_addr);
  ++drops_;
}

void EthernetDevice::nic_consumed(const RxFrame& frame) {
  // The handler copied the frame out on-device; the scarce kernel buffer
  // is free again without any host involvement.
  release_kernel_buf(frame.buf_addr);
}

void EthernetDevice::nic_punt(const RxFrame& frame,
                              const sim::KernelCpu& cpu) {
  // Hand-back from the device: charge the host's per-frame receive pass
  // on the steered queue's CPU, then take the default copy-out path (the
  // handler is NOT re-run — it already executed at most once on-device).
  const sim::Cycles host_pass =
      cpu.node().cost().interrupt_entry + frame.driver_cycles;
  cpu.kernel_work(host_pass, [this, frame, cpu] {
    if (copy_out(frame, cpu, /*declined=*/true)) wake(frame.channel, cpu);
  });
}

}  // namespace ash::net

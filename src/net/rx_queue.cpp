#include "net/rx_queue.hpp"

#include <algorithm>

#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

const char* to_string(RxDropReason r) noexcept {
  switch (r) {
    case RxDropReason::Overflow: return "overflow";
    case RxDropReason::TenantQuota: return "tenant-quota";
  }
  return "?";
}

const char* to_string(FireReason r) noexcept {
  switch (r) {
    case FireReason::Immediate: return "immediate";
    case FireReason::Full: return "full";
    case FireReason::Timer: return "timer";
    case FireReason::Poll: return "poll";
  }
  return "?";
}

bool* RxSink::consumed_flags(std::size_t n) {
  if (n > consumed_cap_) {
    consumed_ = std::make_unique<bool[]>(n);
    consumed_cap_ = n;
  }
  std::fill_n(consumed_.get(), n, false);
  return consumed_.get();
}

std::size_t SteeringPolicy::pick(int channel, const sim::Process* owner,
                                 std::size_t queues) const {
  if (queues <= 1) return 0;
  if (const auto it = pins.find(channel); it != pins.end()) {
    return it->second % queues;
  }
  switch (mode) {
    case SteerMode::Pinned:
      return 0;  // unpinned channels share queue 0
    case SteerMode::OwnerAffinity:
      if (owner != nullptr) {
        return static_cast<std::size_t>(owner->pid()) % queues;
      }
      [[fallthrough]];
    case SteerMode::ChannelHash:
      break;
  }
  // The demux id is the hardware's flow label; modulo over it is the
  // RSS indirection table with an identity hash.
  return static_cast<std::size_t>(channel < 0 ? 0 : channel) % queues;
}

int SteeringPolicy::flow_channel(std::uint32_t local_ip,
                                 std::uint32_t remote_ip,
                                 std::uint16_t local_port,
                                 std::uint16_t remote_port) noexcept {
  // FNV-1a over the 4-tuple, folded to 31 bits so the label is a valid
  // channel id (channels are non-negative ints everywhere else).
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint32_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(local_ip, 4);
  mix(remote_ip, 4);
  mix(local_port, 2);
  mix(remote_port, 2);
  const auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
  return static_cast<int>(folded & 0x7fffffffu);
}

RxQueue::RxQueue(sim::KernelCpu cpu, std::size_t index,
                 const CoalesceConfig& co, std::size_t capacity,
                 RxQuota* quota)
    : cpu_(cpu), index_(index), co_(co), capacity_(capacity), quota_(quota) {
  if (co_.max_frames == 0) co_.max_frames = 1;
  if (capacity_ == 0) capacity_ = 1;
}

void RxQueue::enqueue(RxFrame frame) {
  sim::Node& node = cpu_.node();
  ++enqueued_;  // counts offered frames, so drops stay in the balance
  // Overflow is checked first so a full queue never charges the tenant's
  // occupancy account (try_admit charges only when it admits).
  const bool overflow = pending_.size() >= capacity_;
  if (overflow || (quota_ != nullptr && !quota_->try_admit(frame.owner))) {
    const RxDropReason why =
        overflow ? RxDropReason::Overflow : RxDropReason::TenantQuota;
    ++dropped_;
    if (why == RxDropReason::Overflow) {
      ++overflow_drops_;
    } else {
      ++quota_drops_;
    }
    if (quota_ != nullptr) quota_->on_drop(frame.owner, why);
    if (trace::enabled()) {
      trace::global().emit(trace::make_event(
          trace::EventType::RxDrop, cpu_.cpu_id(), node.now(),
          static_cast<std::int32_t>(index_),
          frame.owner != nullptr ? frame.owner->pid() : 0,
          static_cast<std::uint32_t>(why), 0,
          static_cast<std::uint64_t>(
              frame.channel < 0 ? 0 : frame.channel)));
    }
    if (frame.sink != nullptr) frame.sink->rx_drop(frame);
    return;
  }
  frame.enqueued_at = node.now();
  pending_.push_back(frame);
  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::RxEnqueue, cpu_.cpu_id(), node.now(),
        static_cast<std::int32_t>(index_),
        static_cast<std::uint32_t>(frame.channel),
        static_cast<std::uint32_t>(pending_.size())));
  }

  if (!co_.enabled) {
    // Coalescing off: one fire per frame, charging exactly the inline
    // path's interrupt entry + driver work.
    fire(FireReason::Immediate);
    return;
  }
  while (pending_.size() >= co_.max_frames) {
    fire(poll_mode_ ? FireReason::Poll : FireReason::Full);
  }
  if (!pending_.empty() && !timer_armed_) {
    arm_timer(pending_.front().enqueued_at + co_.max_delay);
  }
}

void RxQueue::arm_timer(sim::Cycles deadline) {
  timer_armed_ = true;
  const std::uint64_t gen = ++timer_gen_;
  cpu_.node().queue().schedule_at(deadline, [this, gen] {
    if (gen != timer_gen_ || !timer_armed_) return;
    timer_armed_ = false;
    if (!pending_.empty()) fire(FireReason::Timer);
  });
}

void RxQueue::fire(FireReason reason) {
  // Any armed timer covered frames now being taken; invalidate it. If
  // frames remain after the batch, the enqueue path re-arms for the new
  // front.
  timer_armed_ = false;
  ++timer_gen_;

  std::vector<RxFrame> batch;
  const std::size_t take =
      pending_.size() < co_.max_frames ? pending_.size() : co_.max_frames;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(pending_.front());
    pending_.pop_front();
  }
  if (batch.empty()) return;

  // NAPI-style mode switch: full batches mean backlog — stay on the CPU
  // and pick up the next batch with a cheap poll pass. A timer-fired
  // (or immediate) batch means the load dropped — back to interrupts.
  if (co_.adaptive) {
    poll_mode_ = reason == FireReason::Full || reason == FireReason::Poll;
  }

  sim::Node& node = cpu_.node();
  const sim::Cycles entry = reason == FireReason::Poll
                                ? node.cost().rxq_poll_pass
                                : node.cost().interrupt_entry;
  sim::Cycles total = entry;
  for (const RxFrame& f : batch) total += f.driver_cycles;

  ++batches_;
  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::CoalesceFire, cpu_.cpu_id(), node.now(),
        static_cast<std::int32_t>(index_),
        static_cast<std::uint32_t>(batch.size()),
        static_cast<std::uint32_t>(reason), total));
  }
  cpu_.kernel_work(total, [this, batch = std::move(batch)]() mutable {
    deliver_batch(std::move(batch));
  });
}

void RxQueue::deliver_batch(std::vector<RxFrame> batch) {
  // The frames leave the queue here: record their sojourn and release the
  // per-tenant occupancy charged at enqueue (both host-side observers).
  const sim::Cycles now = cpu_.node().now();
  for (const RxFrame& f : batch) {
    sojourn_.observe(now - f.enqueued_at);
    if (quota_ != nullptr) quota_->on_dispatched(f.owner);
  }
  // Group consecutive same-(sink, channel) runs so each sink sees a
  // maximal batch for one demux point (what its frame hook amortizes).
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].sink == batch[i].sink &&
           batch[j].channel == batch[i].channel) {
      ++j;
    }
    if (batch[i].sink != nullptr) {
      batch[i].sink->rx_batch(
          std::span<const RxFrame>(batch.data() + i, j - i), cpu_);
    }
    i = j;
  }
  dispatched_ += batch.size();
}

RxQueueSet::RxQueueSet(sim::Node& node, const Config& cfg) : cfg_(cfg) {
  if (cfg_.queues == 0) cfg_.queues = 1;
  for (std::size_t i = 0; i < cfg_.queues; ++i) {
    const sim::KernelCpu cpu =
        i == 0 ? sim::KernelCpu(node) : sim::KernelCpu(node, &node.add_rx_cpu());
    queues_.push_back(std::make_unique<RxQueue>(cpu, i, cfg_.coalesce,
                                                cfg_.capacity, cfg_.quota));
  }
}

RxQueue& RxQueueSet::steer(int channel, const sim::Process* owner) {
  return *queues_[cfg_.steering.pick(channel, owner, queues_.size())];
}

}  // namespace ash::net

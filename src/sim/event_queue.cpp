#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ash::sim {

EventId EventQueue::schedule_at(Cycles at, EventFn fn) {
  if (at < now_) at = now_;
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const std::uint32_t gen = ++s.gen;  // even (free) -> odd (occupied)
  heap_.push_back(Key{at, next_seq_++, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return (EventId{gen} << 32) | slot;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // odd -> even: the id and its heap key are dead from here on
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
  // Keep tombstones bounded by the live population: once they outnumber
  // live events, one O(n) sweep rebuilds the heap without them.
  if (cancelled_backlog() > live_) compact();
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // Fired, cancelled, never issued, or a stale id for a reused slot.
  if (slot >= slots_.size() || slots_[slot].gen != gen || (gen & 1u) == 0) {
    return;
  }
  EventFn fn;
  fn.swap(slots_[slot].fn);
  release(slot);
  // `fn` is destroyed here, once the queue is consistent again: a capture's
  // destructor may itself schedule or cancel.
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Key& k) { return dead(k); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

Cycles EventQueue::next_time() {
  while (!heap_.empty()) {
    if (!dead(heap_.front())) return heap_.front().at;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return ~Cycles{0};
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key k = heap_.back();
    heap_.pop_back();
    if (dead(k)) continue;  // tombstone of a cancelled event
    // Move the callback out and free its slot before running it: it may
    // schedule (growing slots_) or cancel, including its own id.
    EventFn fn;
    fn.swap(slots_[k.slot].fn);
    release(k.slot);
    now_ = k.at;
    fn();
    return true;
  }
  return false;
}

std::size_t EventQueue::run_until_idle(Cycles limit) {
  std::size_t executed = 0;
  // next_time() prunes cancelled heads, so the limit check sees live events.
  while (next_time() <= limit && step()) ++executed;
  if (now_ < limit && limit != ~Cycles{0}) now_ = limit;
  return executed;
}

}  // namespace ash::sim

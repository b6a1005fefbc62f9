#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ash::sim {

namespace {

/// First of the boundaries `first + k * period` (k >= 0) that is >= `t`;
/// kNever when it would overflow.
Cycles boundary_at_or_after(Cycles first, Cycles period, Cycles t) {
  if (t <= first) return first;
  const Cycles d = t - first;
  const Cycles n = d / period + (d % period != 0 ? 1 : 0);
  if (n > (kNever - first) / period) return kNever;
  return first + n * period;
}

}  // namespace

EventId EventQueue::schedule_at(Cycles at, EventFn fn) {
  if (at < now_) at = now_;
  return push(at, next_seq_++, std::move(fn));
}

EventId EventQueue::push(Cycles at, std::uint64_t seq, EventFn fn) {
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
  heap_.push_back(Key{at, seq, slot, gen});
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

void EventQueue::park(Spinner& s, Cycles first, Cycles period, Cycles until) {
  assert(!parked_);
  parked_ = Parked{&s, first, period, next_seq_++};
  parked_wake_ =
      until == kNever ? kNever : boundary_at_or_after(first, period, until);
}

void EventQueue::materialize(Cycles t) {
  const Parked p = *parked_;
  parked_.reset();
  parked_wake_ = kNever;
  const Cycles at = boundary_at_or_after(p.first, p.period, t);
  // The boundary at `first` keeps the seq reserved when its chunk was
  // scheduled. A later one would have been scheduled by the implicit
  // boundary before it, which is later than every event pending now was
  // scheduled: it fires after those and before anything scheduled from
  // here on.
  push(at, at == p.first ? p.seq : next_seq_++,
       [s = p.s] { s->boundary(); });
  p.s->chunk_ends_at(at);
}

void EventQueue::settle(Cycles limit) {
  if (!parked_ || limit == kNever || parked_->first > limit) return;
  // The parked `until` boundary is past `limit` (the run would have fired
  // it), so the implicit boundaries <= limit were failed checks. The last
  // one sets the clock and schedules the next chunk, before anything the
  // caller schedules after the run.
  Parked& p = *parked_;
  const Cycles last = p.first + (limit - p.first) / p.period * p.period;
  if (last > now_) now_ = last;
  p.first = last + p.period;
  p.seq = next_seq_++;
  p.s->chunk_ends_at(p.first);
}

Cycles EventQueue::next_time() {
  while (!heap_.empty() && dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  const Cycles t = heap_.empty() ? kNever : heap_.front().at;
  return t < parked_wake_ ? t : parked_wake_;
}

bool EventQueue::step() {
  if (parked_) {
    const Cycles t = next_time();
    if (t == kNever) return false;
    materialize(t);
  }
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
  settle(limit);
  if (now_ < limit && limit != kNever) now_ = limit;
  return executed;
}

}  // namespace ash::sim

// Discrete-event core: a cancellable time-ordered event queue.
//
// All simulated time in this library is measured in CPU cycles of the
// 40 MHz DECstation 5000/240 the paper measured on; helpers convert to
// microseconds for reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ash::sim {

/// Simulated time in CPU cycles (40 MHz unless reconfigured).
using Cycles = std::uint64_t;

inline constexpr double kCpuMhz = 40.0;

/// Convert cycles to microseconds at the simulated clock rate.
constexpr double to_us(Cycles c) noexcept {
  return static_cast<double>(c) / kCpuMhz;
}

/// Convert microseconds to cycles.
constexpr Cycles us(double microseconds) noexcept {
  return static_cast<Cycles>(microseconds * kCpuMhz);
}

using EventFn = std::function<void()>;
/// `(generation << 32) | slot`. Generations issued to callers are odd, so
/// 0 is never a valid id.
using EventId = std::uint64_t;

/// A slot table plus a binary heap of small keys. Each pending event owns
/// one slot, which holds its callback; the heap orders `(at, seq)` keys
/// that name a slot and the generation it had when the key was pushed.
/// Firing or cancelling an event frees its slot and bumps the slot's
/// generation, so any key (or id) still naming the old generation is dead:
/// cancel() is an O(1) range-and-generation check, and a stale id can
/// never reach a later event that reuses the slot.
///
/// Cancelled keys stay in the heap as tombstones until they surface, but
/// whenever they outnumber live events (after a cancel or a fire) the heap
/// is compacted in one pass.
/// Workloads that re-arm and cancel timers indefinitely (TCP retransmit
/// timers) therefore hold memory proportional to the live event count, not
/// to history.
class EventQueue {
 public:
  Cycles now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `at` (clamped to now). Events at equal
  /// times run in scheduling order. Returns an id usable with cancel().
  EventId schedule_at(Cycles at, EventFn fn);

  /// Schedule `fn` after `delay` cycles.
  EventId schedule_in(Cycles delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event and destroy its callback. Ignored if the id
  /// already fired, was already cancelled or was never issued.
  void cancel(EventId id);

  /// Run the earliest pending event, advancing the clock. Returns false
  /// when no events remain.
  bool step();

  /// Run until the queue drains or the clock passes `limit`.
  /// Returns the number of events executed.
  std::size_t run_until_idle(Cycles limit = ~Cycles{0});

  bool empty() const noexcept { return live_ == 0; }
  std::size_t pending() const noexcept { return live_; }

  /// Cancelled entries still parked in the heap. Bounded by pending() via
  /// compaction; exposed so tests can pin the no-leak invariant.
  std::size_t cancelled_backlog() const noexcept {
    return heap_.size() - live_;
  }

  /// Time of the next live event, or ~0 when the queue is empty. Discards
  /// cancelled entries encountered at the head.
  Cycles next_time();

 private:
  struct Key {
    Cycles at;
    std::uint64_t seq;  // schedule order: breaks ties between equal `at`
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(Key) == 24);
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;  // odd while an event occupies the slot
    std::uint32_t next_free = 0;
  };

  bool dead(const Key& k) const noexcept { return slots_[k.slot].gen != k.gen; }
  /// Bump the slot's generation (killing its id and key), free it, and
  /// compact if tombstones now outnumber live events.
  void release(std::uint32_t slot);
  /// Drop every tombstoned key from the heap in one O(n) pass.
  void compact();

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;               // occupied slots == live keys in heap_
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through slots_
  std::vector<Slot> slots_;
  std::vector<Key> heap_;  // binary heap ordered by Later
};

}  // namespace ash::sim

// Discrete-event core: a cancellable time-ordered event queue.
//
// All simulated time in this library is measured in CPU cycles of the
// 40 MHz DECstation 5000/240 the paper measured on; helpers convert to
// microseconds for reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
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

/// "Never": a time no event reaches.
inline constexpr Cycles kNever = ~Cycles{0};

using EventFn = std::function<void()>;
/// `(generation << 32) | slot`. Generations issued to callers are odd, so
/// 0 is never a valid id.
using EventId = std::uint64_t;

/// A process polling at a fixed period while parked in the queue (see
/// Process::spin). Before every event the queue turns it back into a real
/// event at its next boundary, where it checks again.
class Spinner {
 public:
  /// The spinner's poll chunk in progress now ends at `at`.
  virtual void chunk_ends_at(Cycles at) = 0;
  /// The boundary event the queue scheduled for it fired.
  virtual void boundary() = 0;

 protected:
  ~Spinner() = default;
};

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
///
/// A parked spinner (park()) is a polling process whose periodic boundary
/// events exist only implicitly: before firing any event at time T, the
/// queue schedules it as a real event at its first boundary >= T.
/// DESIGN.md §5 explains why this is cycle-exact.
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

  /// Park `s`, whose poll chunk in progress ends at `first` and which
  /// then polls every `period` cycles until its first boundary >= `until`
  /// (kNever: no such bound). Called as the last act of an event (a
  /// process suspends there), after the spinner's failed check; an event
  /// resumes one process, so at most one spinner is parked at a time.
  void park(Spinner& s, Cycles first, Cycles period, Cycles until);

  /// Schedule a parked spinner at its next boundary. Outside events,
  /// call this before changing anything it depends on: what its
  /// predicate reads, or its node's CPU or ready queue (Node::kernel_work
  /// and the Scheduler do it themselves).
  void unpark() {
    if (parked_) materialize(now_);
  }

  /// Run the earliest pending event, advancing the clock. Returns false
  /// when no events remain (a parked spinner without an `until` never
  /// fires on its own: only an event can change what it polls).
  bool step();

  /// Run until the queue drains or the clock passes `limit`, settle(limit),
  /// and leave the clock at `limit`. Returns the number of events executed.
  std::size_t run_until_idle(Cycles limit = kNever);

  /// End of a run up to `limit`: move the clock to the last implicit
  /// boundary <= `limit`, as an uninterrupted run would have left it, and
  /// advance the parked spinner's chunk in progress to the one after.
  /// No-op for limit == kNever or without a parked spinner.
  void settle(Cycles limit);

  bool empty() const noexcept { return live_ == 0 && !parked_; }
  /// Live events plus a parked spinner.
  std::size_t pending() const noexcept { return live_ + (parked_ ? 1 : 0); }

  /// Cancelled entries still in the heap. Bounded by pending() via
  /// compaction; exposed so tests can pin the no-leak invariant.
  std::size_t cancelled_backlog() const noexcept {
    return heap_.size() - live_;
  }

  /// Time of the next event: the next live one, or the parked spinner's
  /// first boundary >= its `until`, whichever is earlier; kNever when
  /// there is neither. Discards cancelled entries encountered at the head.
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

  struct Parked {
    Spinner* s;
    Cycles first;  // end of the poll chunk in progress
    Cycles period;
    std::uint64_t seq;  // reserved when that chunk was scheduled
  };

  bool dead(const Key& k) const noexcept { return slots_[k.slot].gen != k.gen; }
  /// Store `fn` in a free slot and push its key `(at, seq)`.
  EventId push(Cycles at, std::uint64_t seq, EventFn fn);
  /// Schedule the parked spinner at its first boundary >= `t`.
  void materialize(Cycles t);
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
  std::optional<Parked> parked_;
  Cycles parked_wake_ = kNever;  // parked_'s first boundary >= its until
};

}  // namespace ash::sim

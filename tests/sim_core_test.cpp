#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.cancel(id);
  q.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] {
    ++count;
    q.schedule_in(5, [&] { ++count; });
  });
  q.run_until_idle();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.step();
  bool ran = false;
  q.schedule_at(50, [&] { ran = true; });  // in the past
  q.step();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunUntilLimitStopsEarly) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(1000, [&] { ++fired; });
  q.run_until_idle(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  q.cancel(id);         // already fired
  q.cancel(id);         // twice
  q.cancel(99999);      // never issued
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled_backlog(), 0u);
  q.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId id = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_until_idle(), 1u);
  EXPECT_TRUE(q.empty());
}

// The re-armed retransmit-timer pattern: schedule far out, cancel, re-arm,
// many thousands of times with only a handful of events ever live. The
// tombstone set must stay bounded by the live population instead of
// accumulating one entry per cancelled timer for the whole run.
TEST(EventQueue, ReArmedTimersKeepBacklogBounded) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] { ++fired; });  // one live anchor event
  for (int i = 0; i < 10000; ++i) {
    const EventId timer = q.schedule_in(1'000'000, [&] { ++fired; });
    q.cancel(timer);
    ASSERT_LE(q.cancelled_backlog(), q.pending());
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_LE(q.cancelled_backlog(), 1u);
  EXPECT_EQ(q.run_until_idle(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 1u);
}

TEST(EventQueue, CompactionPreservesOrdering) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 50; ++i) {
    const EventId id =
        q.schedule_at(10 * (i % 7) + 5, [&order, i] { order.push_back(i); });
    if (i % 2 == 1) victims.push_back(id);
  }
  for (const EventId id : victims) q.cancel(id);  // triggers compaction
  EXPECT_EQ(q.pending(), 25u);
  q.run_until_idle();
  ASSERT_EQ(order.size(), 25u);
  // Survivors still run in (time, schedule-order) order.
  std::vector<int> expected = order;
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (10 * (a % 7) + 5) < (10 * (b % 7) + 5);
  });
  EXPECT_EQ(order, expected);
  for (const int i : order) EXPECT_EQ(i % 2, 0);
}

// ---- differential check against a naive reference queue ----

// The reference: a flat vector scanned for the minimum (at, seq). Each
// event remembers the id the real queue issued for it, so cancel(id) in
// the reference removes exactly the live event the real queue issued `id`
// to, and nothing when no live event holds that id.
class RefQueue {
 public:
  struct Ev {
    Cycles at;
    std::uint64_t seq;
    int tag;
    EventId id;
    Cycles child_delay;  // > 0: firing schedules a child this far out
  };

  Cycles now = 0;
  std::vector<Ev> evs;

  void schedule(Cycles at, int tag, EventId id, Cycles child_delay) {
    evs.push_back(Ev{std::max(at, now), seq_++, tag, id, child_delay});
  }
  void cancel(EventId id) {
    std::erase_if(evs, [id](const Ev& e) { return e.id == id; });
  }
  std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < evs.size(); ++i) {
      if (std::tie(evs[i].at, evs[i].seq) <
          std::tie(evs[best].at, evs[best].seq)) {
        best = i;
      }
    }
    return best;
  }
  Cycles next_time() const {
    return evs.empty() ? ~Cycles{0} : evs[min_index()].at;
  }
  /// Pops the earliest event; the caller mirrors its side effects.
  Ev pop() {
    const std::size_t i = min_index();
    const Ev e = evs[i];
    evs.erase(evs.begin() + static_cast<std::ptrdiff_t>(i));
    now = e.at;
    return e;
  }

 private:
  std::uint64_t seq_ = 0;
};

// Drives one seeded script of schedule/cancel/step/run_until_idle/next_time
// through both queues, checking them against each other after every
// operation. Some events schedule a child when they fire, so ids are also
// issued from inside callbacks.
class DiffHarness {
 public:
  explicit DiffHarness(std::uint64_t seed) : rng_(seed) {}

  void run_script() {
    const int ops = 20 + static_cast<int>(rng_() % 60);
    for (int op = 0; op < ops && !::testing::Test::HasFatalFailure(); ++op) {
      const unsigned kind = static_cast<unsigned>(rng_() % 16);
      if (kind < 5) {
        schedule(/*relative=*/kind < 2);
      } else if (kind < 10) {
        cancel(pick_cancel_id());
      } else if (kind < 13) {
        const bool ran = q_.step();
        EXPECT_EQ(ran, !ref_.evs.empty());
        if (!ref_.evs.empty()) fire_ref();
      } else if (kind < 15) {
        const Cycles limit =
            rng_() % 8 == 0 ? ~Cycles{0} : q_.now() + rng_() % 40;
        const std::size_t ran = q_.run_until_idle(limit);
        std::size_t ref_ran = 0;
        while (!ref_.evs.empty() && ref_.next_time() <= limit) {
          fire_ref();
          ++ref_ran;
        }
        if (ref_.now < limit && limit != ~Cycles{0}) ref_.now = limit;
        EXPECT_EQ(ran, ref_ran);
      } else {
        EXPECT_EQ(q_.next_time(), ref_.next_time());
      }
      check();
    }
    // Drain: everything left fires in reference order.
    q_.run_until_idle();
    while (!ref_.evs.empty()) fire_ref();
    check();
  }

 private:
  /// Records a firing in the real queue (called from its callbacks).
  EventFn make_fn(int tag, Cycles child_delay) {
    return [this, tag, child_delay] {
      fired_.push_back(tag);
      if (child_delay > 0) {
        const int child = next_tag_++;
        const EventId id =
            q_.schedule_in(child_delay, make_fn(child, /*child_delay=*/0));
        pending_children_.push_back({child, id});
      }
    };
  }

  void schedule(bool relative) {
    const int tag = next_tag_++;
    const Cycles child_delay = rng_() % 5 == 0 ? 1 + rng_() % 10 : 0;
    EventId id;
    Cycles at;
    if (relative) {
      const Cycles delay = rng_() % 20;
      at = q_.now() + delay;
      id = q_.schedule_in(delay, make_fn(tag, child_delay));
    } else {
      // Up to 10 cycles in the past (clamped to now) or 20 ahead.
      at = q_.now() + rng_() % 30;
      at = at >= 10 ? at - 10 : 0;
      id = q_.schedule_at(at, make_fn(tag, child_delay));
    }
    EXPECT_NE(id, 0u);
    ref_.schedule(at, tag, id, child_delay);
    issued_.push_back(id);
  }

  /// Mirror the real queue's firing of the reference's earliest event.
  void fire_ref() {
    const RefQueue::Ev e = ref_.pop();
    ref_fired_.push_back(e.tag);
    if (e.child_delay > 0) {
      // The real callback already ran and recorded the child's id.
      ASSERT_FALSE(pending_children_.empty());
      const auto [child, id] = pending_children_.front();
      pending_children_.erase(pending_children_.begin());
      ref_.schedule(ref_.now + e.child_delay, child, id, 0);
      issued_.push_back(id);
    }
  }

  /// Live, fired, cancelled and stale (slot since reused) ids come from the
  /// issued list; 0, random ids and ids one generation off are never-issued
  /// candidates.
  EventId pick_cancel_id() {
    const unsigned how = static_cast<unsigned>(rng_() % 8);
    if (how == 0) return 0;
    if (how == 1) return rng_();
    if (issued_.empty()) return rng_() % 64;
    const EventId id = issued_[rng_() % issued_.size()];
    if (how == 2) return id + (EventId{1} << 32);  // even generation
    if (how == 3) return id ^ 1;                   // neighbouring slot
    return id;
  }

  void cancel(EventId id) {
    q_.cancel(id);
    ref_.cancel(id);
  }

  void check() {
    ASSERT_EQ(fired_, ref_fired_);
    EXPECT_EQ(q_.now(), ref_.now);
    EXPECT_EQ(q_.pending(), ref_.evs.size());
    EXPECT_EQ(q_.empty(), ref_.evs.empty());
    EXPECT_LE(q_.cancelled_backlog(), q_.pending());
  }

  std::mt19937_64 rng_;
  EventQueue q_;
  RefQueue ref_;
  int next_tag_ = 0;
  std::vector<int> fired_;
  std::vector<int> ref_fired_;
  std::vector<EventId> issued_;
  std::vector<std::pair<int, EventId>> pending_children_;
};

TEST(EventQueue, DifferentialAgainstNaiveReference) {
  for (std::uint64_t seed = 1; seed <= 10'000; ++seed) {
    SCOPED_TRACE(::testing::Message() << "script seed " << seed);
    DiffHarness(seed).run_script();
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- callback lifetime and re-entrancy ----

// A capture that counts its own destruction into a per-event slot. Moves
// transfer the obligation, so each event is counted exactly once however
// often the queue moves its callback around.
struct DestroyProbe {
  std::vector<int>* destroyed;
  int tag;
  DestroyProbe(std::vector<int>* d, int t) : destroyed(d), tag(t) {}
  DestroyProbe(DestroyProbe&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)), tag(o.tag) {}
  DestroyProbe(const DestroyProbe& o) : destroyed(nullptr), tag(o.tag) {
    ADD_FAILURE() << "event callback copied";
  }
  DestroyProbe& operator=(const DestroyProbe&) = delete;
  ~DestroyProbe() {
    if (destroyed != nullptr) ++(*destroyed)[static_cast<std::size_t>(tag)];
  }
};

TEST(EventQueue, EveryCallbackIsDestroyedExactlyOnce) {
  constexpr int kEvents = 60;
  std::vector<int> destroyed(kEvents, 0);
  std::vector<int> fired;
  {
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(q.schedule_at(
          10 + static_cast<Cycles>(i % 9),
          [p = DestroyProbe(&destroyed, i), &fired] {
            fired.push_back(p.tag);
          }));
    }
    EXPECT_EQ(destroyed, std::vector<int>(kEvents, 0));

    // Cancel two thirds: this crosses the compaction threshold, so some
    // keys are dropped by compaction and some linger as tombstones.
    for (int i = 0; i < kEvents; ++i) {
      if (i % 3 != 0) q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < kEvents; ++i) {
      EXPECT_EQ(destroyed[static_cast<std::size_t>(i)], i % 3 != 0 ? 1 : 0)
          << "after cancel, event " << i;
    }
    EXPECT_LE(q.cancelled_backlog(), q.pending());

    // Fire half of the survivors; cancelling them again changes nothing.
    for (int n = 0; n < kEvents / 6; ++n) ASSERT_TRUE(q.step());
    for (const int tag : fired) {
      EXPECT_EQ(destroyed[static_cast<std::size_t>(tag)], 1) << "fired " << tag;
      q.cancel(ids[static_cast<std::size_t>(tag)]);
    }
    EXPECT_EQ(q.pending(), static_cast<std::size_t>(kEvents / 3 - kEvents / 6));
    // The rest are still pending and alive until the queue goes away.
  }
  EXPECT_EQ(destroyed, std::vector<int>(kEvents, 1));
  EXPECT_EQ(fired.size(), static_cast<std::size_t>(kEvents / 6));
}

// A callback runs from a moved-out copy, so it can grow the slot table
// (1000 schedules), reuse its own freed slot and cancel its own fired id
// without touching the new event in that slot.
TEST(EventQueue, CallbackMayGrowTableAndCancelItsOwnId) {
  EventQueue q;
  EventId self = 0;
  int children = 0;
  std::string seen;
  const std::string payload(200, 'x');  // heap-allocated capture
  self = q.schedule_at(5, [&, payload] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_in(static_cast<Cycles>(i % 7), [&children] { ++children; });
    }
    q.cancel(self);  // already fired: must not hit the child in its slot
    q.cancel(self);
    seen = payload;  // the capture survived the table growing under it
  });
  bool later = false;
  q.schedule_at(20, [&] { later = true; });
  EXPECT_EQ(q.run_until_idle(), 1002u);
  EXPECT_EQ(children, 1000);
  EXPECT_TRUE(later);
  EXPECT_EQ(seen, payload);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cancelled_backlog(), 0u);
  EXPECT_EQ(q.now(), 20u);
}

// Ids name (generation, slot): once an event fires or is cancelled its slot
// is reused, but the old id can never cancel the new occupant.
TEST(EventQueue, StaleIdNeverCancelsSlotReuser) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule_at(10, [&] { ++fired; });
  q.cancel(a);
  const EventId b = q.schedule_at(10, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  q.cancel(a);  // stale
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.step());
  const EventId c = q.schedule_at(20, [&] { ++fired; });
  q.cancel(a);
  q.cancel(b);  // fired
  EXPECT_EQ(q.run_until_idle(), 1u);
  EXPECT_EQ(fired, 2);
  q.cancel(c);
  q.cancel(0);
  EXPECT_TRUE(q.empty());
}

TEST(Cache, ReadMissThenHit) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  EXPECT_EQ(cache.access(0x100, 4, false), 20u);  // miss fills line
  EXPECT_EQ(cache.access(0x104, 4, false), 0u);   // same line: hit
  EXPECT_EQ(cache.access(0x10c, 4, false), 0u);
  EXPECT_EQ(cache.access(0x110, 4, false), 20u);  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, DirectMappedConflictEviction) {
  Cache cache({.size_bytes = 256, .line_bytes = 16, .read_miss_penalty = 10});
  EXPECT_EQ(cache.access(0, 4, false), 10u);
  EXPECT_EQ(cache.access(256, 4, false), 10u);  // maps to same line index
  EXPECT_EQ(cache.access(0, 4, false), 10u);    // evicted: miss again
}

TEST(Cache, WriteThroughNoAllocate) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  EXPECT_EQ(cache.access(0x40, 4, true), 0u);   // write miss: no fill
  EXPECT_FALSE(cache.contains(0x40));
  EXPECT_EQ(cache.access(0x40, 4, false), 20u);  // still a read miss
  EXPECT_TRUE(cache.contains(0x40));
  EXPECT_EQ(cache.access(0x40, 4, true), 0u);    // write hit: cheap
  EXPECT_TRUE(cache.contains(0x40));
}

TEST(Cache, AccessSpanningTwoLines) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  EXPECT_EQ(cache.access(0x1e, 4, false), 40u);  // crosses 0x10/0x20 lines
}

TEST(Cache, FlushAllAndInvalidateRange) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  cache.touch_range(0, 64);
  EXPECT_TRUE(cache.contains(0x30));
  cache.invalidate_range(0x10, 16);
  EXPECT_TRUE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x10));
  EXPECT_TRUE(cache.contains(0x20));
  cache.flush_all();
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x20));
}

TEST(Cache, InvalidateHugeRangeFlushes) {
  Cache cache({.size_bytes = 256, .line_bytes = 16, .read_miss_penalty = 20});
  cache.touch_range(0, 256);
  cache.invalidate_range(0, 1u << 20);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(240));
}

TEST(TimeConversion, CyclesAndMicroseconds) {
  EXPECT_DOUBLE_EQ(to_us(40), 1.0);
  EXPECT_EQ(us(1.0), 40u);
  EXPECT_EQ(us(96.0), 3840u);
}

}  // namespace
}  // namespace ash::sim

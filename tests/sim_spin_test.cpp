// Process::spin against the loop it replaces,
//     while (!ready() && now() < until) co_await compute(period);
// over seeded scripts. Each script runs four times: the reference loop and
// spin, each uninterrupted and sliced by run(limit). The two pollers must
// produce the same log: when each spin ends and why, every kernel_work's
// start and end, helper-process wakes, kernel_cycles_total, and after
// every slice the clock, empty() and pending().
//
// The scripts mix 1-3 nodes with one spinner each (periods that differ and
// periods that tie, spins with and without `until`), kernel_work arrivals
// at random times and exactly on poll boundaries (some long enough to push
// cpu_free_at past the next boundary), wakes of a second process that
// preempt the spinner (boosted, or by quantum expiry), and driver actions
// between slices that read the clock and the CPU's next free time.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

enum class Poller { Reference, Spin };

// ---- a script: pure data, generated from a seed ----

struct SpinnerSpec {
  Cycles period = 20;
  Cycles start = 0;               // sleep before the first spin
  std::vector<Cycles> until;      // per round: relative bound, or kNever
  std::vector<Cycles> work;       // per round: compute after a hit
  SchedPolicy policy = SchedPolicy::RoundRobinOblivious;
  Cycles quantum = us(15625.0);
  Cycles context_switch = 0;
  bool helper = false;            // a second process that wakes on notify
  Cycles helper_work = 0;
};

struct Arrival {
  Cycles at = 0;
  std::size_t node = 0;
  Cycles work = 0;        // kernel_work cycles on `node` (0: none)
  int post = 0;           // 0 none, 1 at arrival, 2 when the work is done
  std::size_t target = 0;  // mailbox the post goes to
  bool wake = false;    // notify `node`'s helper
  bool boost = false;
  int chain = 0;        // follow-ups on `node`'s next poll boundary
  Cycles chain_step = 0;  // follow-up at cpu_free_at() + chain_step
};

struct Between {  // driver actions after one run(limit)
  std::optional<Cycles> schedule_in;  // an arrival, relative to now()
  // An arrival at `arrival.node`'s next poll boundary plus this (on the
  // boundary a parked spinner's chunk in progress ends at, or later).
  std::optional<Cycles> on_boundary;
  Arrival arrival;
  std::optional<std::size_t> direct_post;  // mailbox bumped outside events
  std::optional<std::size_t> direct_wake;  // helper notified outside events
  bool direct_boost = false;
  std::optional<std::size_t> direct_work_node;  // kernel_work outside events
  Cycles direct_work = 0;
};

struct Script {
  std::vector<SpinnerSpec> spinners;  // one per node
  std::vector<Arrival> arrivals;
  std::vector<Cycles> slices;  // ascending run(limit) limits
  std::vector<Between> between;  // one per slice
};

Script make_script(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  Script s;
  const std::size_t nodes = rng.range(1, 3);
  const Cycles periods[] = {7, 13, 20, 20, 40};
  const Cycles shared = periods[rng.below(5)];
  const bool tie = rng.chance(1, 2);  // every node polls at one period
  for (std::size_t i = 0; i < nodes; ++i) {
    SpinnerSpec sp;
    sp.period = tie ? shared : periods[rng.below(5)];
    sp.start = rng.chance(1, 3) ? 0 : rng.range(0, 400);
    const int rounds = static_cast<int>(rng.range(1, 6));
    for (int r = 0; r < rounds; ++r) {
      switch (rng.below(4)) {
        case 0: sp.until.push_back(kNever); break;
        case 1: sp.until.push_back(rng.range(0, sp.period)); break;
        case 2: sp.until.push_back(rng.range(sp.period, 12 * sp.period)); break;
        default: sp.until.push_back(rng.range(300, 4000)); break;
      }
      sp.work.push_back(rng.chance(1, 2) ? 0 : rng.range(1, 3 * sp.period));
    }
    if (rng.chance(1, 2)) sp.policy = SchedPolicy::PriorityBoost;
    if (rng.chance(1, 3)) sp.quantum = rng.range(50, 600);
    sp.context_switch = rng.chance(1, 2) ? 0 : rng.range(1, 60);
    sp.helper = rng.chance(1, 2);
    sp.helper_work = rng.range(0, 200);
    s.spinners.push_back(sp);
  }
  const Cycles horizon = 6000;
  const auto arrival = [&](Cycles at) {
    Arrival a;
    a.at = at;
    a.node = rng.below(nodes);
    a.target = rng.chance(3, 4) ? a.node : rng.below(nodes);
    // Short work lands inside a poll period; long work pushes the CPU's
    // free time past the next boundary.
    a.work = rng.chance(1, 4) ? 0
             : rng.chance(1, 2) ? rng.range(1, 10)
                                : rng.range(15, 150);
    a.post = static_cast<int>(rng.below(3));
    if (a.work == 0 && a.post == 2) a.post = 1;
    a.wake = s.spinners[a.node].helper && rng.chance(1, 3);
    a.boost = rng.chance(2, 3);
    a.chain = rng.chance(1, 3) ? static_cast<int>(rng.range(1, 3)) : 0;
    a.chain_step = s.spinners[a.node].period * rng.range(0, 2);
    return a;
  };
  const int n_arrivals = static_cast<int>(rng.range(2, 24));
  for (int k = 0; k < n_arrivals; ++k) {
    s.arrivals.push_back(arrival(rng.range(0, horizon)));
  }
  // Posts enough that every spin without `until` ends.
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t r = 0; r < s.spinners[i].until.size(); ++r) {
      Arrival a = arrival(rng.range(0, 2 * horizon));
      a.post = 1;
      a.target = i;
      s.arrivals.push_back(a);
    }
  }
  Cycles t = 0;
  const int n_slices = static_cast<int>(rng.range(1, 12));
  for (int k = 0; k < n_slices; ++k) {
    // Some slices end within a few poll periods of the last.
    t += rng.chance(1, 4)
             ? rng.range(1, 120)
             : rng.range(1, 2 * horizon / static_cast<Cycles>(n_slices));
    s.slices.push_back(t);
    Between b;
    b.arrival = arrival(0);
    if (rng.chance(1, 3)) b.schedule_in = rng.range(0, 80);
    if (rng.chance(1, 3)) b.on_boundary = b.arrival.chain_step;
    if (rng.chance(1, 4)) b.direct_post = rng.below(nodes);
    if (rng.chance(1, 4)) {
      b.direct_wake = rng.below(nodes);
      b.direct_boost = rng.chance(1, 2);
    }
    if (rng.chance(1, 4)) {
      b.direct_work_node = rng.below(nodes);
      b.direct_work = rng.range(1, 100);
    }
    s.between.push_back(b);
  }
  return s;
}

// ---- one execution of a script ----

enum Rec : std::uint64_t {
  kHit,
  kTimeout,
  kDone,
  kWorkStart,
  kWorkEnd,
  kHelperWoke,
  kHelperDone,
  kSlice,
  kKernelCycles,
  kFinal,
};
using Record = std::array<std::uint64_t, 4>;  // kind, time, node, extra

struct World {
  Simulator sim;
  std::vector<Node*> nodes;
  std::vector<std::uint64_t> mailbox;
  std::vector<std::unique_ptr<WaitChannel>> chans;
  std::vector<Record> log;

  void note(Rec kind, Cycles t, std::size_t node, std::uint64_t extra = 0) {
    log.push_back({kind, t, node, extra});
  }
};

void fire(World& w, const Arrival& a) {
  Node& n = *w.nodes[a.node];
  // The chunk in progress ends here: the spinner's next poll boundary.
  const Cycles boundary = n.cpu_free_at();
  if (a.post == 1) ++w.mailbox[a.target];
  if (a.wake) w.chans[a.node]->notify(a.boost);
  if (a.work > 0) {
    World* wp = &w;
    const Arrival copy = a;
    const Cycles end = n.kernel_work(a.work, [wp, copy] {
      wp->note(kWorkEnd, wp->sim.now(), copy.node);
      if (copy.post == 2) ++wp->mailbox[copy.target];
    });
    w.note(kWorkStart, end - a.work, a.node, end);
  }
  if (a.chain > 0) {
    Arrival next = a;
    --next.chain;
    World* wp = &w;
    w.sim.queue().schedule_at(boundary + a.chain_step,
                              [wp, next] { fire(*wp, next); });
  }
}

void spawn_spinner(World& w, const SpinnerSpec& spec, std::size_t i,
                   Poller poller) {
  Node& node = *w.nodes[i];
  World* wp = &w;
  const SpinnerSpec* sp = &spec;
  node.kernel().spawn("spinner", [wp, sp, i, poller](Process& self) -> Task {
    World& w = *wp;
    const auto ready = [wp, i] { return wp->mailbox[i] > 0; };
    if (sp->start > 0) co_await self.sleep_for(sp->start);
    for (std::size_t r = 0; r < sp->until.size(); ++r) {
      const Cycles until =
          sp->until[r] == kNever ? kNever : self.node().now() + sp->until[r];
      if (poller == Poller::Spin) {
        co_await self.spin(sp->period, until, ready);
      } else {
        while (!ready() && self.node().now() < until) {
          co_await self.compute(sp->period);
        }
      }
      const bool hit = ready();
      w.note(hit ? kHit : kTimeout, self.node().now(), i);
      if (hit) {
        --w.mailbox[i];
        co_await self.compute(sp->work[r]);
      }
    }
    w.note(kDone, self.node().now(), i);
  });
  if (!spec.helper) return;
  node.kernel().spawn("helper", [wp, sp, i](Process& self) -> Task {
    for (;;) {
      co_await wp->chans[i]->wait(self);
      wp->note(kHelperWoke, self.node().now(), i);
      co_await self.compute(sp->helper_work);
      wp->note(kHelperDone, self.node().now(), i);
    }
  });
}

std::vector<Record> execute(const Script& s, Poller poller, bool sliced) {
  World w;
  const std::size_t n = s.spinners.size();
  for (std::size_t i = 0; i < n; ++i) {
    const SpinnerSpec& sp = s.spinners[i];
    NodeConfig cfg;
    cfg.memory_bytes = 3u << 20;  // the kernel's segment and two processes
    cfg.policy = sp.policy;
    cfg.cost.quantum = sp.quantum;
    cfg.cost.context_switch = sp.context_switch;
    std::string name = "n";
    name += std::to_string(i);
    w.nodes.push_back(&w.sim.add_node(std::move(name), cfg));
    w.mailbox.push_back(0);
    w.chans.push_back(std::make_unique<WaitChannel>());
  }
  for (std::size_t i = 0; i < n; ++i) {
    spawn_spinner(w, s.spinners[i], i, poller);
  }
  World* wp = &w;
  for (const Arrival& a : s.arrivals) {
    w.sim.queue().schedule_at(a.at, [wp, a] { fire(*wp, a); });
  }
  if (sliced) {
    for (std::size_t k = 0; k < s.slices.size(); ++k) {
      w.sim.run(s.slices[k]);
      w.note(kSlice, w.sim.now(), w.sim.queue().empty() ? 1 : 0,
             w.sim.queue().pending());
      const Between& b = s.between[k];
      const Arrival a = b.arrival;
      if (b.schedule_in) {
        w.sim.queue().schedule_in(*b.schedule_in, [wp, a] { fire(*wp, a); });
      }
      if (b.on_boundary) {
        w.sim.queue().schedule_at(
            w.nodes[a.node]->cpu_free_at() + *b.on_boundary,
            [wp, a] { fire(*wp, a); });
      }
      if (b.direct_post) {
        // Outside events, a change to what a predicate reads unparks first.
        w.sim.queue().unpark();
        ++w.mailbox[*b.direct_post];
      }
      if (b.direct_wake) w.chans[*b.direct_wake]->notify(b.direct_boost);
      if (b.direct_work_node) {
        Node& node = *w.nodes[*b.direct_work_node];
        const Cycles end = node.kernel_work(b.direct_work);
        w.note(kWorkStart, end - b.direct_work, *b.direct_work_node, end);
      }
    }
  }
  w.sim.run();
  for (std::size_t i = 0; i < n; ++i) {
    w.note(kKernelCycles, w.nodes[i]->kernel_cycles_total(), i);
  }
  w.note(kFinal, w.sim.now(), w.sim.queue().empty() ? 1 : 0,
         w.sim.queue().pending());
  return w.log;
}

std::string first_difference(const std::vector<Record>& a,
                             const std::vector<Record>& b) {
  std::ostringstream out;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      out << "record " << i << ": reference {" << a[i][0] << ", " << a[i][1]
          << ", " << a[i][2] << ", " << a[i][3] << "} vs spin {" << b[i][0]
          << ", " << b[i][1] << ", " << b[i][2] << ", " << b[i][3] << "}";
      return out.str();
    }
  }
  out << "lengths " << a.size() << " vs " << b.size();
  return out.str();
}

/// The records without the slice markers.
std::vector<Record> events_only(const std::vector<Record>& log) {
  std::vector<Record> out;
  for (const Record& r : log) {
    if (r[0] != kSlice) out.push_back(r);
  }
  return out;
}

bool quiet_between(const Script& s) {
  for (const Between& b : s.between) {
    if (b.schedule_in || b.on_boundary || b.direct_post || b.direct_wake ||
        b.direct_work_node) {
      return false;
    }
  }
  return true;
}

TEST(Spin, MatchesReferenceLoopOnSeededScripts) {
  constexpr std::uint64_t kScripts = 2000;
  std::uint64_t hits = 0, timeouts = 0;
  for (std::uint64_t seed = 1; seed <= kScripts; ++seed) {
    const Script s = make_script(seed);
    const auto ref = execute(s, Poller::Reference, false);
    const auto spin = execute(s, Poller::Spin, false);
    ASSERT_EQ(ref, spin) << "seed " << seed << ", uninterrupted: "
                         << first_difference(ref, spin);
    const auto ref_sliced = execute(s, Poller::Reference, true);
    const auto spin_sliced = execute(s, Poller::Spin, true);
    ASSERT_EQ(ref_sliced, spin_sliced)
        << "seed " << seed << ", sliced: "
        << first_difference(ref_sliced, spin_sliced);
    if (quiet_between(s)) {
      // Slicing alone changes nothing but the clock between slices.
      ASSERT_EQ(events_only(spin_sliced), ref)
          << "seed " << seed << ", sliced vs uninterrupted";
    }
    for (const Record& r : ref) {
      hits += r[0] == kHit;
      timeouts += r[0] == kTimeout;
    }
  }
  // The scripts exercise both ways a spin ends.
  EXPECT_GT(hits, kScripts);
  EXPECT_GT(timeouts, kScripts);
}

TEST(Spin, FirstCheckThatPassesCostsNothing) {
  Simulator sim;
  Node& node = sim.add_node("n");
  Cycles after = 1;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    const Cycles t0 = self.node().now();
    co_await self.spin(20, kNever, [] { return true; });
    co_await self.spin(20, t0, [] { return false; });
    after = self.node().now() - t0;
  });
  sim.run();
  EXPECT_EQ(after, 0u);
}

TEST(Spin, RejectsPeriodOutOfRange) {
  Simulator sim;
  Node& node = sim.add_node("n");
  int rejected = 0;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    for (const Cycles period : {Cycles{0}, Process::kComputeChunk + 1}) {
      try {
        co_await self.spin(period, kNever, [] { return false; });
      } catch (const std::invalid_argument&) {
        ++rejected;
      }
    }
  });
  sim.run();
  EXPECT_EQ(rejected, 2);
}

TEST(Spin, ParkedSpinnerCostsNoEventsPerCheck) {
  // ~10000 failed checks up to `until`: the reference loop pays one event
  // each; a parked spinner pays one, for the boundary that ends the spin.
  Simulator sim;
  Node& node = sim.add_node("n");
  Cycles ended = 0;
  node.kernel().spawn("p", [&](Process& self) -> Task {
    co_await self.spin(20, 200000, [] { return false; });
    ended = self.node().now();
  });
  const std::size_t events = sim.run();
  // Dispatched after one context switch; 200000 is on its 20-cycle grid.
  ASSERT_EQ(node.cost().context_switch % 20, 0u);
  EXPECT_EQ(ended, 200000u);
  EXPECT_EQ(events, 2u);  // the dispatch and the last boundary
}

TEST(Spin, ParkedSpinnerIsPendingAndItsUntilBoundaryIsNext) {
  Simulator sim;
  NodeConfig cfg;
  cfg.cost.context_switch = 0;
  Node& node = sim.add_node("n", cfg);
  node.kernel().spawn("p", [&](Process& self) -> Task {
    co_await self.spin(20, 1000, [] { return false; });
  });
  // Dispatched at 0, it parks with boundaries 20, 40, ... run(30) leaves
  // the clock on the last boundary <= 30, the spinner still parked, and
  // its `until` boundary as the next event.
  sim.run(30);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.queue().pending(), 1u);
  EXPECT_FALSE(sim.queue().empty());
  EXPECT_EQ(sim.queue().next_time(), 1000u);
  // Kernel work from outside any event unparks it at its boundary 40 and
  // starts there; the boundaries after it restart from the work's end.
  EXPECT_EQ(node.kernel_work(5), 45u);
  EXPECT_EQ(sim.queue().next_time(), 40u);
  EXPECT_EQ(sim.run(), 2u);  // the boundary at 40 and the one ending it
  EXPECT_EQ(sim.now(), 65u + 20u * 47u);  // first boundary >= 1000
  EXPECT_TRUE(sim.queue().empty());
}

TEST(Spin, SpinnerWithoutUntilAndNothingToWaitForStopsTheRun) {
  // The reference loop would poll forever; a parked spinner with no bound
  // leaves nothing that can fire, so run() returns and the spinner stays
  // pending.
  Simulator sim;
  Node& node = sim.add_node("n");
  node.kernel().spawn("p", [&](Process& self) -> Task {
    co_await self.spin(20, kNever, [] { return false; });
  });
  sim.run();
  EXPECT_FALSE(sim.queue().empty());
  EXPECT_EQ(sim.queue().pending(), 1u);
  EXPECT_EQ(sim.queue().next_time(), kNever);
  EXPECT_FALSE(sim.queue().step());
}

}  // namespace
}  // namespace ash::sim

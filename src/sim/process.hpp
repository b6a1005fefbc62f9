// Simulated processes.
//
// A Process hosts one coroutine (its "main") plus the bookkeeping the
// scheduler needs: run state, the pending-compute residue used for quantum
// preemption, and its address-space segment within the node's memory.
// Simulated work is expressed by awaiting the members below; the process
// only advances while it holds the simulated CPU.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace ash::sim {

class Node;
class Scheduler;

class Process;

/// Main function of a simulated process. NOTE: a coroutine lambda's
/// captures live in the lambda object, not the coroutine frame, so the
/// kernel stores this callable inside the Process for the coroutine's
/// whole lifetime (see Process::start).
using ProcessMain = std::function<Task(Process&)>;

/// A process's address-space segment within node memory. Power-of-two
/// sized and aligned, so it can serve directly as an SFI segment.
struct MemSegment {
  std::uint32_t base = 0;
  std::uint32_t size = 0;
};

enum class ProcState : std::uint8_t { Ready, Running, Blocked, Exited };

class Process : private Spinner {
 public:
  /// Preemption granularity: long computes are split into chunks of this
  /// size so quantum expiry and priority boosts take effect promptly.
  static constexpr Cycles kComputeChunk = 2000;  // 50 us at 40 MHz

  Process(Node& node, std::uint32_t pid, std::string name, MemSegment seg);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  std::uint32_t pid() const noexcept { return pid_; }
  const std::string& name() const noexcept { return name_; }
  Node& node() noexcept { return node_; }
  const MemSegment& segment() const noexcept { return seg_; }
  ProcState state() const noexcept { return state_; }
  bool exited() const noexcept { return state_ == ProcState::Exited; }

  // ---- awaitables (only valid inside this process's coroutine) ----

  /// Consume `cycles` of CPU time (preemptible at chunk granularity).
  [[nodiscard]] auto compute(Cycles cycles) {
    struct Awaiter {
      Process& p;
      Cycles cycles;
      bool await_ready() const noexcept { return cycles == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        p.start_compute(cycles, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, cycles};
  }

  /// Poll until `ready()` holds or the clock reaches `until` (kNever: no
  /// bound). Exactly
  ///     while (!ready() && now() < until) co_await compute(period);
  /// — check, then charge one `period` per failed check — but while
  /// nothing else on this CPU is ready the process parks in the event
  /// queue between real events instead of paying one event per check
  /// (EventQueue::park). `ready` must be a pure, non-throwing read of
  /// state that changes only inside events (a driver changing it between
  /// runs calls EventQueue::unpark() first); 0 < period <= kComputeChunk.
  template <typename Ready>
  [[nodiscard]] auto spin(Cycles period, Cycles until, Ready ready) {
    if (period == 0 || period > kComputeChunk) {
      throw std::invalid_argument("Process::spin: period out of range");
    }
    struct Awaiter {
      Process& p;
      Cycles period;
      Cycles until;
      Ready ready;
      bool await_ready() { return ready() || p.clock() >= until; }
      void await_suspend(std::coroutine_handle<> h) {
        p.start_spin(period, until, &Awaiter::check, this, h);
      }
      void await_resume() const noexcept {}
      static bool check(void* self) {
        return static_cast<Awaiter*>(self)->ready();
      }
    };
    return Awaiter{*this, period, until, std::move(ready)};
  }

  /// A full system call: two protected crossings + dispatch + `work`.
  [[nodiscard]] auto syscall(Cycles work = 0) {
    return compute(syscall_cost(work));
  }

  /// Cycles a system call performing `work` consumes in total.
  Cycles syscall_cost(Cycles work) const;

  /// Give up the CPU voluntarily (ready-queue tail).
  [[nodiscard]] auto yield_now() {
    struct Awaiter {
      Process& p;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { p.do_yield(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Block for a fixed amount of simulated time.
  [[nodiscard]] auto sleep_for(Cycles cycles) {
    struct Awaiter {
      Process& p;
      Cycles cycles;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { p.do_sleep(cycles, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, cycles};
  }

  // ---- kernel-side interface ----

  /// Pin `fn` inside this process and start its coroutine. The callable
  /// must outlive the coroutine (lambda captures live in it), which is
  /// exactly why it is stored here and never moved again.
  void start(ProcessMain fn);

  /// Make a Blocked process runnable. `boost` hints schedulers that honor
  /// message-arrival priority (the Ultrix-style policy). No-op for
  /// Ready/Running processes (wakeups are not queued — use WaitChannel
  /// for token semantics).
  void wake(bool boost = false);

  /// Continue execution after being dispatched: either finish residual
  /// compute or resume the (innermost suspended) coroutine.
  void resume_execution();

  /// Block the process on an external condition; `resume_execution` will
  /// resume `h` when the process is next dispatched after wake().
  void block_on_external(std::coroutine_handle<> h);

  std::exception_ptr take_exception() noexcept {
    return std::exchange(exception_, nullptr);
  }

  /// The shared simulation event queue (convenience accessor).
  EventQueue& queue();

 private:
  friend class Scheduler;
  friend struct Task::promise_type::FinalAwaiter;

  void start_compute(Cycles cycles, std::coroutine_handle<> h);
  void schedule_next_chunk();
  /// The compute in progress has finished: re-check a spin, or resume.
  void compute_done();
  Cycles clock() const;

  // ---- spin ----
  void start_spin(Cycles period, Cycles until, bool (*ready)(void*),
                  void* ctx, std::coroutine_handle<> h);
  /// Charge one poll period after a failed check: park when nothing else
  /// is ready on this CPU, else schedule it as a normal chunk.
  void charge_poll();
  /// A poll period ended: check, then finish the spin or charge again.
  void poll_boundary();
  void chunk_ends_at(Cycles at) override;
  void boundary() override;
  void do_yield(std::coroutine_handle<> h);
  void do_sleep(Cycles cycles, std::coroutine_handle<> h);
  void run_coroutine();
  void on_coroutine_done();

  Scheduler& sched();

  Node& node_;
  std::uint32_t pid_;
  std::string name_;
  MemSegment seg_;
  ProcState state_ = ProcState::Ready;
  ProcessMain main_fn_;  // owns the coroutine's lambda captures
  Task::Handle main_{};
  std::coroutine_handle<> cont_{};  // innermost suspended coroutine
  Cycles compute_remaining_ = 0;
  std::exception_ptr exception_;
  // The spin in progress; spin_period_ is 0 when there is none.
  Cycles spin_period_ = 0;
  Cycles spin_until_ = 0;
  bool (*spin_ready_)(void*) = nullptr;
  void* spin_ctx_ = nullptr;
};

/// Condition-variable-with-memory: notify() on an empty waiter list is
/// remembered as a token, so a process that checks state and then waits
/// cannot lose a wakeup that slipped in between.
class WaitChannel {
 public:
  /// Awaitable: consume a token or block until notify().
  [[nodiscard]] auto wait(Process& self) {
    struct Awaiter {
      WaitChannel& ch;
      Process& p;
      bool await_ready() noexcept {
        if (ch.tokens_ > 0) {
          --ch.tokens_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch.waiters_.push_back(&p);
        p.block_on_external(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, self};
  }

  /// Timed wait: like wait(), but gives up after `timeout` cycles.
  /// Resumes with true if a token was consumed, false on timeout.
  struct TimedAwaiter {
    WaitChannel& ch;
    Process& p;
    Cycles timeout;
    bool timed_out = false;
    EventId ev = 0;

    bool await_ready() noexcept {
      if (ch.tokens_ > 0) {
        --ch.tokens_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume();
  };
  [[nodiscard]] TimedAwaiter wait_for(Process& self, Cycles timeout) {
    return TimedAwaiter{*this, self, timeout};
  }

  /// Post one token / wake the first waiter. `boost` is passed through to
  /// Process::wake for priority-boosting schedulers.
  void notify(bool boost = false);

  std::uint64_t tokens() const noexcept { return tokens_; }
  bool has_waiters() const noexcept { return !waiters_.empty(); }

 private:
  /// Remove `p` from the waiter list; true if it was present.
  bool remove_waiter(Process* p);

  std::uint64_t tokens_ = 0;
  std::deque<Process*> waiters_;
};

}  // namespace ash::sim

#include "sim/process.hpp"

#include <cassert>

#include "sim/kernel.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {

void Task::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  if (Process* p = h.promise().process) p->on_coroutine_done();
}

Process::Process(Node& node, std::uint32_t pid, std::string name,
                 MemSegment seg)
    : node_(node), pid_(pid), name_(std::move(name)), seg_(seg) {}

Process::~Process() {
  if (main_) main_.destroy();
}

Scheduler& Process::sched() { return node_.kernel().scheduler(); }
EventQueue& Process::queue() { return node_.queue(); }
Cycles Process::clock() const { return node_.now(); }

void Process::start(ProcessMain fn) {
  assert(!main_);
  main_fn_ = std::move(fn);
  Task task = main_fn_(*this);
  main_ = task.release();
  main_.promise().process = this;
  cont_ = main_;
}

void Process::wake(bool boost) {
  if (state_ != ProcState::Blocked) return;
  sched().make_ready(this, boost);
}

void Process::resume_execution() {
  assert(state_ == ProcState::Running);
  if (compute_remaining_ > 0) {
    schedule_next_chunk();
  } else {
    compute_done();
  }
}

void Process::block_on_external(std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  sched().on_running_blocked();
}

void Process::start_compute(Cycles cycles, std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  compute_remaining_ = cycles;
  schedule_next_chunk();
}

void Process::schedule_next_chunk() {
  Scheduler& s = sched();
  if (s.should_preempt()) {
    s.preempt_running();  // residual compute continues on re-dispatch
    return;
  }
  const Cycles chunk =
      compute_remaining_ < kComputeChunk ? compute_remaining_ : kComputeChunk;
  const Cycles start =
      node_.now() > node_.cpu_free_at() ? node_.now() : node_.cpu_free_at();
  const Cycles end = start + chunk;
  node_.set_chunk_end(end);
  queue().schedule_at(end, [this, chunk] {
    if (state_ != ProcState::Running) {
      // Preempted/killed between scheduling and firing cannot happen in
      // the current design (chunk events are not cancelled), but stay
      // defensive: drop the stale completion.
      return;
    }
    compute_remaining_ -= chunk;
    if (compute_remaining_ == 0) {
      compute_done();
    } else {
      schedule_next_chunk();
    }
  });
}

void Process::compute_done() {
  if (spin_period_ != 0) {
    poll_boundary();
  } else {
    run_coroutine();
  }
}

void Process::start_spin(Cycles period, Cycles until, bool (*ready)(void*),
                         void* ctx, std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  spin_period_ = period;
  spin_until_ = until;
  spin_ready_ = ready;
  spin_ctx_ = ctx;
  charge_poll();
}

void Process::charge_poll() {
  compute_remaining_ = spin_period_;
  if (sched().ready_count() != 0) {
    // Quantum expiry or a boost may preempt at this boundary.
    schedule_next_chunk();
    return;
  }
  // Nothing can preempt, so this is the chunk schedule_next_chunk would
  // schedule; until an event fires, the next ones are too.
  const Cycles start =
      node_.now() > node_.cpu_free_at() ? node_.now() : node_.cpu_free_at();
  const Cycles end = start + spin_period_;
  node_.set_chunk_end(end);
  queue().park(*this, end, spin_period_, spin_until_);
}

void Process::poll_boundary() {
  if (spin_ready_(spin_ctx_) || node_.now() >= spin_until_) {
    spin_period_ = 0;
    run_coroutine();
  } else {
    charge_poll();
  }
}

void Process::chunk_ends_at(Cycles at) { node_.set_chunk_end(at); }

void Process::boundary() {
  if (state_ != ProcState::Running) return;  // as for a stale chunk event
  compute_remaining_ = 0;
  poll_boundary();
}

void Process::do_yield(std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  sched().on_running_yielded();
}

void Process::do_sleep(Cycles cycles, std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  sched().on_running_blocked();
  queue().schedule_in(cycles, [this] { wake(false); });
}

void Process::run_coroutine() {
  assert(state_ == ProcState::Running);
  cont_.resume();
  // Control returns here once some coroutine in the stack suspends again
  // (an awaitable has taken over scheduling) or the main coroutine has
  // finished (on_coroutine_done already ran from the final awaiter).
}

void Process::on_coroutine_done() {
  exception_ = main_.promise().exception;
  if (exception_) node_.kernel().record_failure(exception_);
  sched().on_running_exited();
}

Cycles Process::syscall_cost(Cycles work) const {
  const CostModel& c = node_.cost();
  return 2 * c.kernel_crossing + c.syscall_overhead + work;
}

void WaitChannel::notify(bool boost) {
  if (waiters_.empty()) {
    ++tokens_;
    return;
  }
  Process* p = waiters_.front();
  waiters_.pop_front();
  p->wake(boost);
}

bool WaitChannel::remove_waiter(Process* p) {
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (*it == p) {
      waiters_.erase(it);
      return true;
    }
  }
  return false;
}

void WaitChannel::TimedAwaiter::await_suspend(std::coroutine_handle<> h) {
  ch.waiters_.push_back(&p);
  ev = p.queue().schedule_in(timeout, [this] {
    if (ch.remove_waiter(&p)) {
      timed_out = true;
      p.wake(false);
    }
  });
  p.block_on_external(h);
}

bool WaitChannel::TimedAwaiter::await_resume() {
  // Cancel the timeout event (no-op if it already fired); the awaiter is
  // about to be destroyed and the event captures `this`.
  if (ev != 0) p.queue().cancel(ev);
  return !timed_out;
}

}  // namespace ash::sim

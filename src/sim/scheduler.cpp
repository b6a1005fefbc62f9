#include "sim/scheduler.hpp"

#include <cassert>

#include "sim/kernel.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {

void Scheduler::add_new(Process* p) {
  assert(p->state() == ProcState::Ready);
  node_.queue().unpark();  // a parked spinner may be preempted now
  ready_.push_back(p);
  maybe_dispatch();
}

void Scheduler::make_ready(Process* p, bool boost) {
  assert(p->state() == ProcState::Blocked);
  node_.queue().unpark();  // a parked spinner may be preempted now
  p->state_ = ProcState::Ready;
  if (policy_ == SchedPolicy::PriorityBoost && boost) {
    ready_.push_front(p);
    if (running_ != nullptr) boost_preempt_ = true;
  } else {
    ready_.push_back(p);
  }
  maybe_dispatch();
}

void Scheduler::on_running_blocked() {
  assert(running_ != nullptr);
  running_->state_ = ProcState::Blocked;
  running_ = nullptr;
  maybe_dispatch();
}

void Scheduler::on_running_yielded() {
  assert(running_ != nullptr);
  running_->state_ = ProcState::Ready;
  ready_.push_back(running_);
  running_ = nullptr;
  maybe_dispatch();
}

void Scheduler::preempt_running() { on_running_yielded(); }

void Scheduler::on_running_exited() {
  assert(running_ != nullptr);
  running_->state_ = ProcState::Exited;
  running_ = nullptr;
  maybe_dispatch();
}

bool Scheduler::should_preempt() const {
  if (running_ == nullptr || ready_.empty()) return false;
  if (boost_preempt_) return true;
  return node_.now() - dispatch_time_ >= node_.cost().quantum;
}

void Scheduler::maybe_dispatch() {
  if (running_ != nullptr || dispatch_pending_ || ready_.empty()) return;
  dispatch_pending_ = true;
  node_.kernel_work(node_.cost().context_switch, [this] {
    dispatch_pending_ = false;
    if (running_ != nullptr || ready_.empty()) return;
    running_ = ready_.front();
    ready_.pop_front();
    running_->state_ = ProcState::Running;
    dispatch_time_ = node_.now();
    boost_preempt_ = false;
    running_->resume_execution();
  });
}

}  // namespace ash::sim

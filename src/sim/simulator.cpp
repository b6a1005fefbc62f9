#include "sim/simulator.hpp"

#include "sim/kernel.hpp"

namespace ash::sim {

void Simulator::check_failures() {
  if (!failure_pending_) return;
  // The flag stays set while we rethrow: later nodes may still hold
  // failures, which the next check must find. It clears only once a walk
  // finds none.
  for (const auto& node : nodes_) {
    if (auto e = node->kernel().take_failure()) std::rethrow_exception(e);
  }
  failure_pending_ = false;
}

std::size_t Simulator::run(Cycles limit) {
  std::size_t executed = 0;
  while (queue_.next_time() <= limit) {
    if (!queue_.step()) break;
    ++executed;
    check_failures();
  }
  queue_.settle(limit);
  return executed;
}

}  // namespace ash::sim

#include "sim/node.hpp"

#include <cstdlib>
#include <new>

#include "sim/cpu.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {

Node::Node(Simulator& sim, std::string name, const NodeConfig& config)
    : sim_(sim),
      name_(std::move(name)),
      cpu_id_(sim.alloc_cpu_id()),
      cost_(config.cost),
      dcache_(config.cache),
      memory_size_(config.memory_bytes),
      memory_(static_cast<std::uint8_t*>(std::calloc(memory_size_, 1))) {
  if (memory_ == nullptr && memory_size_ > 0) throw std::bad_alloc();
  kernel_ = std::make_unique<Kernel>(*this, config.policy);
}

void Node::FreeDeleter::operator()(std::uint8_t* p) const noexcept {
  std::free(p);
}

Node::~Node() = default;

EventQueue& Node::queue() noexcept { return sim_.queue(); }
Cycles Node::now() const noexcept { return sim_.now(); }

std::uint8_t* Node::mem(std::uint32_t addr, std::uint32_t len) noexcept {
  if (static_cast<std::uint64_t>(addr) + len > memory_size_) return nullptr;
  return memory_.get() + addr;
}

const std::uint8_t* Node::mem(std::uint32_t addr,
                              std::uint32_t len) const noexcept {
  if (static_cast<std::uint64_t>(addr) + len > memory_size_) return nullptr;
  return memory_.get() + addr;
}

Cpu& Node::add_rx_cpu() {
  rx_cpus_.push_back(std::make_unique<Cpu>(*this, sim_.alloc_cpu_id()));
  return *rx_cpus_.back();
}

Cpu& Node::add_nic_unit() {
  nic_units_.push_back(std::make_unique<Cpu>(*this, sim_.alloc_cpu_id()));
  return *nic_units_.back();
}

Cycles Node::kernel_work(Cycles cycles, EventFn done) {
  queue().unpark();  // a parked spinner's next chunk may start later now
  const Cycles start = now() > cpu_free_at() ? now() : cpu_free_at();
  busy_until_ = start + cycles;
  kernel_cycles_ += cycles;
  if (done) queue().schedule_at(busy_until_, std::move(done));
  return busy_until_;
}

}  // namespace ash::sim

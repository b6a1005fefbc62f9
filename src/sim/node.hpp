// A simulated machine: memory, data cache, cost model, CPU accounting,
// and a kernel. Two of these connected by a Wire reproduce the paper's
// pair of DECstation 5000/240s.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"

namespace ash::sim {

class Cpu;
class Kernel;
class Simulator;

struct NodeConfig {
  std::size_t memory_bytes = 16u << 20;  // 16 MB
  CacheConfig cache;
  CostModel cost;
  SchedPolicy policy = SchedPolicy::RoundRobinOblivious;
};

class Node {
 public:
  Node(Simulator& sim, std::string name, const NodeConfig& config);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const noexcept { return name_; }
  /// Dense per-simulator CPU index (allocation order across nodes and
  /// auxiliary rx CPUs) — the tracer's per-CPU ring id.
  std::uint16_t cpu_id() const noexcept { return cpu_id_; }
  Simulator& simulator() noexcept { return sim_; }
  EventQueue& queue() noexcept;
  Cycles now() const noexcept;

  CostModel& cost() noexcept { return cost_; }
  const CostModel& cost() const noexcept { return cost_; }
  Cache& dcache() noexcept { return dcache_; }
  Kernel& kernel() noexcept { return *kernel_; }

  // ---- physical memory ----

  std::size_t memory_size() const noexcept { return memory_size_; }

  /// Bounds-checked pointer to `len` bytes at `addr`; nullptr when the
  /// range is out of bounds.
  std::uint8_t* mem(std::uint32_t addr, std::uint32_t len) noexcept;
  const std::uint8_t* mem(std::uint32_t addr, std::uint32_t len) const noexcept;

  // ---- CPU accounting ----
  //
  // The CPU is a single serialized resource. Kernel work (interrupt
  // handlers, ASHs, context switches) advances `busy_until`; the running
  // process's compute chunks advance `chunk_end`. Anything new starts no
  // earlier than cpu_free_at().

  Cycles cpu_free_at() const noexcept {
    return busy_until_ > chunk_end_ ? busy_until_ : chunk_end_;
  }

  void set_chunk_end(Cycles at) noexcept { chunk_end_ = at; }

  /// Occupy the CPU with kernel-context work for `cycles`, starting no
  /// earlier than now; `done` (optional) runs at completion. Returns the
  /// completion time.
  Cycles kernel_work(Cycles cycles, EventFn done = {});

  /// Total cycles of kernel-context work performed (statistics).
  Cycles kernel_cycles_total() const noexcept { return kernel_cycles_; }

  // ---- auxiliary receive CPUs ----
  //
  // Extra kernel-only CPUs for the multi-queue receive path (sim/cpu.hpp).
  // They share this node's memory/cost model/event queue but carry their
  // own busy_until accounting. Created on demand by net::RxQueueSet.

  /// Add one auxiliary rx CPU; its cpu id is allocated from the same
  /// simulator-wide counter as node ids.
  Cpu& add_rx_cpu();
  std::size_t rx_cpu_count() const noexcept { return rx_cpus_.size(); }
  Cpu& rx_cpu(std::size_t i) noexcept { return *rx_cpus_[i]; }

  // ---- NIC handler execution units ----
  //
  // Smart-NIC offload (net::NicProcessor) runs ASHs on device-resident
  // execution units. They reuse the auxiliary-Cpu machinery — own
  // busy_until accounting on the shared event queue, a simulator-wide
  // dense cpu id for trace attribution — but are tracked separately so
  // host-CPU statistics never mix with device cycles.

  Cpu& add_nic_unit();
  std::size_t nic_unit_count() const noexcept { return nic_units_.size(); }
  Cpu& nic_unit(std::size_t i) noexcept { return *nic_units_[i]; }

 private:
  Simulator& sim_;
  std::string name_;
  std::uint16_t cpu_id_ = 0;
  CostModel cost_;
  Cache dcache_;
  // calloc'd: large blocks arrive as untouched zero pages, so a node
  // pays only for the memory it writes.
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const noexcept;
  };
  std::size_t memory_size_ = 0;
  std::unique_ptr<std::uint8_t[], FreeDeleter> memory_;
  std::unique_ptr<Kernel> kernel_;
  std::vector<std::unique_ptr<Cpu>> rx_cpus_;
  std::vector<std::unique_ptr<Cpu>> nic_units_;
  Cycles busy_until_ = 0;
  Cycles chunk_end_ = 0;
  Cycles kernel_cycles_ = 0;
};

}  // namespace ash::sim

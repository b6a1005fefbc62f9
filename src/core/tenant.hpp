// Multi-tenant isolation: weighted-fair handler scheduling, per-tenant
// quotas, and admission control for thousands of nontrusting processes on
// one node.
//
// The paper's fig. 4 shows ASH throughput holding as untrusting processes
// share a node — but nothing there stops one hostile tenant from starving
// the rest of handler cycles, RX-queue slots, or kernel buffers. This
// layer sits between dispatch (AshSystem's one dispatch loop and
// RxQueue::enqueue) and the tenants, giving each OWNING PROCESS a virtual
// resource account:
//
//  * handler cycles — deficit round-robin over per-tenant cycle accounts.
//    Every `replenish_period` each account earns `quantum_per_weight x
//    weight` cycles (replenished lazily, on first contact after the round,
//    so an idle 1000-tenant population costs nothing). Admission requires
//    a positive deficit; the run's actual cycles are then debited, so one
//    overdraw per replenish is possible but bounded by the hardware
//    budget timer (CostModel::ash_max_runtime). An idle tenant banks at
//    most `burst_rounds` rounds of earnings (bounded burstiness).
//
//  * RX-queue occupancy — the scheduler implements net::RxQuota: a tenant
//    may park at most `rx_quota_frames` frames across the receive queues;
//    beyond that its frames are dropped AT ENQUEUE and charged to the
//    offending tenant (RxDropReason::TenantQuota), not to the device or
//    to its queue-sharing victims.
//
//  * kernel buffer pool — downloads charge the handler image's kernel
//    footprint against `buffer_bytes_cap`, and `max_handlers` caps the
//    install count; both reject gracefully with a typed TenantDeny before
//    any translation work happens.
//
// Supervisor integration: when per-owner fault aggregation revokes an
// owner (AshSystem::revoke_owner), the scheduler is told — the account is
// marked revoked, its outstanding deficit debt is written off (the
// refund: a revoked tenant cannot owe cycles it can never repay), and
// frames already coalesced for it are drained with counted denials
// (note_drained) instead of re-running admission per frame.
//
// Everything here is host-side bookkeeping on the single simulation
// thread: admission checks charge no simulated cycles (like the
// supervisor's quarantine check, they model a few kernel instructions in
// a path that already pays a demux), and the accounts follow the same
// single-writer discipline as AshStats.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/rx_queue.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"

namespace ash::core {

/// Typed admission denial — the taxonomy `ashtool tenants` and the bench
/// report (mapped onto trace::DenyReason for AshDenied events).
enum class TenantDeny : std::uint8_t {
  CycleQuota,     // DRR cycle account exhausted (deficit <= 0)
  RxQuota,        // RX-queue occupancy cap hit at enqueue
  BufferQuota,    // kernel buffer-pool share exhausted at download
  DownloadQuota,  // handler-count cap hit at download
  Revoked,        // the owner is revoked; its work is drained
};
inline constexpr std::size_t kTenantDenyCount = 5;
const char* to_string(TenantDeny d) noexcept;

/// Per-tenant policy (today just the DRR weight; registered via
/// set_tenant / set_weight, defaulting to TenantSchedulerConfig).
struct TenantConfig {
  std::uint32_t weight = 1;
};

struct TenantSchedulerConfig {
  /// DRR round length. Lazy: an account is brought current on first
  /// contact after any number of elapsed rounds.
  sim::Cycles replenish_period = sim::us(1000.0);
  /// Cycles earned per weight unit per round. quantum_per_weight /
  /// replenish_period is the guaranteed CPU fraction per weight unit.
  std::uint64_t quantum_per_weight = 4000;
  /// Deficit cap in rounds: an idle tenant banks at most
  /// burst_rounds x quantum_per_weight x weight cycles.
  std::uint32_t burst_rounds = 4;
  std::uint32_t default_weight = 1;
  /// Per-tenant cap on frames parked in RX queues; 0 = unlimited.
  std::uint32_t rx_quota_frames = 64;
  /// Per-tenant kernel buffer-pool share in bytes (handler images); 0 =
  /// unlimited.
  std::uint64_t buffer_bytes_cap = 0;
  /// Per-tenant cap on installed handlers; 0 = unlimited.
  std::uint32_t max_handlers = 0;
};

/// One tenant's resource account, keyed by owning-process pid. Plain
/// fields, single writer (the simulation thread) — same discipline as
/// AshStats.
struct TenantAccount {
  std::uint32_t pid = 0;
  std::string name;
  std::uint32_t weight = 1;
  bool revoked = false;

  // DRR cycle account. deficit may go negative by at most one handler
  // runtime (the admitted run that overdrew it).
  std::int64_t deficit = 0;
  sim::Cycles last_replenish = 0;

  // Cycle conservation ledger: cycles_charged == the sum of
  // AshStats::cycles over every handler this tenant owns, always
  // (tests/core_tenant_test.cpp pins it across fault/revoke churn).
  std::uint64_t runs = 0;
  std::uint64_t cycles_charged = 0;

  std::array<std::uint64_t, kTenantDenyCount> denials{};

  // RX-queue occupancy (net::RxQuota side).
  std::uint32_t rx_pending = 0;     // frames currently parked in queues
  std::uint64_t rx_enqueued = 0;    // frames ever admitted
  std::uint64_t rx_quota_drops = 0;     // dropped: this tenant over quota
  std::uint64_t rx_overflow_drops = 0;  // dropped: the queue itself full

  // Kernel buffer pool / install accounting.
  std::uint64_t buffer_bytes = 0;
  std::uint32_t handlers = 0;

  // Frames drained (with counted denials) after revocation instead of
  // re-running admission per frame.
  std::uint64_t drained_frames = 0;
};

/// The tenant scheduler. One per AshSystem (wired with set_tenants) and
/// per RxQueueSet (wired as RxQueueSet::Config::quota).
class TenantScheduler : public net::RxQuota {
 public:
  explicit TenantScheduler(sim::Node& node,
                           const TenantSchedulerConfig& cfg = {});

  const TenantSchedulerConfig& config() const noexcept { return cfg_; }

  /// Register / re-weight a tenant (auto-registered with default_weight
  /// on first contact otherwise).
  void set_tenant(const sim::Process& owner, const TenantConfig& cfg);
  void set_weight(const sim::Process& owner, std::uint32_t weight) {
    set_tenant(owner, TenantConfig{weight});
  }

  // ---- handler-cycle scheduling (AshSystem admission path) ----

  /// May `owner` run a handler now? Replenishes the account lazily, then
  /// requires a positive deficit. Counts the denial when not.
  bool admit_cycles(const sim::Process& owner);
  /// Debit an executed run's cycles (called from the single charge site
  /// in AshSystem::run_one, so the conservation ledger stays exact).
  void charge(const sim::Process& owner, std::uint64_t cycles);

  // ---- download admission (buffer pool + handler count) ----

  /// May `owner` install a handler whose kernel image is `image_bytes`?
  /// Charges the account when yes; sets `why` and counts when no.
  bool admit_download(const sim::Process& owner, std::uint64_t image_bytes,
                      TenantDeny* why);

  // ---- supervisor feed ----

  /// The owner was revoked (AshSystem::revoke_owner): mark the account,
  /// write off its deficit debt, and deny it from here on.
  void on_owner_revoked(const sim::Process& owner);
  /// `frames` coalesced frames for a revoked owner were drained with
  /// counted denials instead of re-admitted one by one.
  void note_drained(const sim::Process& owner, std::uint64_t frames);

  // ---- net::RxQuota (RX-queue occupancy) ----

  bool try_admit(const sim::Process* owner) override;
  void on_dispatched(const sim::Process* owner) override;
  void on_drop(const sim::Process* owner, net::RxDropReason reason) override;

  // ---- readers ----

  std::size_t tenant_count() const noexcept { return accounts_.size(); }
  /// nullptr when the pid has never touched the scheduler.
  const TenantAccount* find_account(std::uint32_t pid) const noexcept;
  const std::map<std::uint32_t, TenantAccount>& accounts() const noexcept {
    return accounts_;
  }
  std::uint64_t cycles_charged(std::uint32_t pid) const noexcept {
    const TenantAccount* a = find_account(pid);
    return a == nullptr ? 0 : a->cycles_charged;
  }

  /// Human-readable per-tenant table — what `ashtool tenants` prints.
  std::string format_table() const;
  std::string tenants_json() const;

 private:
  TenantAccount& account(const sim::Process& owner);
  /// Bring the DRR account current: credit elapsed rounds, cap the bank.
  void replenish(TenantAccount& acct);

  sim::Node& node_;
  TenantSchedulerConfig cfg_;
  // Ordered by pid so reports and iteration are deterministic.
  std::map<std::uint32_t, TenantAccount> accounts_;
  // Pid-indexed cache of accounts_ (map nodes never move): the per-message
  // paths look their tenant up without a tree walk. nullptr = no account.
  std::vector<TenantAccount*> by_pid_;
};

}  // namespace ash::core

// Scheduler: virtual GPUs and application-to-vGPU binding.
//
// Each physical GPU carries a configurable number of virtual GPUs (paper
// section 4.4). A vGPU owns a CUDA client pinned to its device with a
// single cudaSetDevice at startup, so the CUDA runtime sees exactly
// #vGPUs contexts regardless of how many applications come and go --
// this is what keeps the CUDA runtime from being overloaded (its observed
// limit is eight concurrent contexts).
//
// Binding is *dynamic*: a context acquires a vGPU at each kernel launch
// burst and releases it during CPU phases, enabling time-sharing, inter-
// application swap, migration between devices of different speeds, and
// recovery from device failure. The binding discipline is pluggable
// through the SchedulingPolicy registry (core/sched_policy.hpp); policies
// with preemptive() == true additionally rotate device access on a time
// quantum: a vt-timer pump swaps the expired holder's dirty intervals out
// and unbinds it, and an anti-thrashing governor widens the quantum when
// the rotation itself becomes the bottleneck (nvshare's TQ escalation).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/stats_table.hpp"
#include "common/status.hpp"
#include "common/tuning.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "core/context.hpp"
#include "core/memory_manager.hpp"
#include "core/sched_policy.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"

namespace gpuvm::core {

struct SchedulerStats {
  u64 binds = 0;
  u64 unbinds = 0;
  u64 migrations = 0;   ///< bind moved a context's data to a different GPU
  u64 requeues = 0;     ///< bindings force-unbound by a device loss (context
                        ///< re-queues instead of aborting)
  u64 preemptions = 0;  ///< bindings revoked by quantum expiry (victim's
                        ///< dirty intervals swapped out, context re-queues)
  u64 thrash_trips = 0; ///< anti-thrashing governor quantum escalations
  double quantum_ns = 0.0;  ///< current preemption quantum, after governor trips
};

/// SchedulerStats' fields under their QueryStats names ("stats.sched.<name>").
inline constexpr auto kSchedulerStatsFields = std::to_array<StatField<SchedulerStats>>({
    {"binds", &SchedulerStats::binds},
    {"unbinds", &SchedulerStats::unbinds},
    {"migrations", &SchedulerStats::migrations},
    {"requeues", &SchedulerStats::requeues},
    {"preemptions", &SchedulerStats::preemptions},
    {"thrash_trips", &SchedulerStats::thrash_trips},
    {"quantum_ns", &SchedulerStats::quantum_ns},
});

/// The scheduling knobs, in one place: node-level binding policy, the
/// preemption quantum and its governor, and the cluster-level dispatch
/// policy and offload watermarks the head node consumes (the former
/// TorqueScheduler::Options fields -- one struct owns the whole scheduling
/// surface, so a knob can no longer be set on one layer and silently
/// ignored by another). RuntimeConfig embeds this struct and hands it to
/// the Scheduler verbatim.
struct SchedulerConfig {
  int vgpus_per_device = 4;
  /// Named SchedulingPolicy (core/sched_policy.hpp): "fcfs", "sjf",
  /// "credit", "deadline", "tq", "fair", or anything registered via
  /// register_scheduling_policy. Replaces the closed PolicyKind enum.
  std::string policy = "fcfs";
  /// Allow re-binding a context whose data lives on a slower device to a
  /// strictly faster idle device (Figure 9's load balancing).
  bool enable_migration = false;
  /// Grace period a waiter survives with *no* alive vGPU anywhere before
  /// acquire() fails with ErrorDeviceUnavailable. 0 (default) fails
  /// immediately — the pre-chaos behaviour. A positive grace lets
  /// contexts ride out a node going dark and rejoining (chaos scenarios,
  /// rolling restarts) by re-queuing instead of aborting.
  double device_wait_grace_seconds = 0.0;

  // ---- Preemption (policies with preemptive() == true) ---------------------
  /// Base time quantum. See common/tuning.hpp for the tie-avoidance
  /// rationale behind the default.
  double quantum_seconds = tuning::kBaseQuantumSeconds;
  /// Governor ceiling for adaptive quantum escalation (the thrash
  /// threshold, escalation factor and decay hysteresis are
  /// ThrashGovernor::Config's defaults).
  double max_quantum_seconds = tuning::kMaxQuantumSeconds;

  // ---- Cluster-level dispatch (head node; consumed by TorqueScheduler) -----
  /// Named DispatchPolicy (cluster/dispatch_policy.hpp): "round_robin",
  /// "least_loaded" or "memory_aware".
  std::string dispatch_policy = "round_robin";
  /// Hold jobs at the head node and dispatch in periodic sweeps instead of
  /// immediately (0 disables batching).
  double dispatch_interval_seconds = 0.0;
  /// Offload hysteresis watermarks: a node sheds connections only above
  /// `offload_high_watermark`, and only onto a peer below
  /// `offload_low_watermark` (the dead band prevents ping-pong).
  double offload_high_watermark = 1.0;
  double offload_low_watermark = 0.5;
};

/// Anti-thrashing governor (nvshare's TQ escalation): watches swap traffic
/// per bind across rotation windows and widens the quantum when the
/// rotation itself dominates -- each preemption re-ships a working set, so
/// if swap-bytes/bind stays above the threshold, doubling the quantum
/// halves that overhead. Calm windows decay the quantum back toward the
/// base so an interactive mix regains its short rotation. Pure state
/// machine, no locking or clock access: the Scheduler feeds it windows
/// under its own lock, and tests drive it directly.
class ThrashGovernor {
 public:
  struct Config {
    double base_quantum_seconds = tuning::kBaseQuantumSeconds;
    double max_quantum_seconds = tuning::kMaxQuantumSeconds;
    /// Swap traffic per bind above which a rotation window counts as
    /// thrashing and the quantum escalates.
    double bytes_per_bind_threshold = 256.0 * 1024.0;
    /// Multiplier applied per escalation (and divided out per decay).
    double escalation = 2.0;
    /// Consecutive calm windows before the quantum decays one step back
    /// toward the base.
    int calm_windows_before_decay = 2;
  };

  explicit ThrashGovernor(Config config)
      : config_(config), quantum_(config.base_quantum_seconds) {}

  /// Feeds one observation window (swap-byte and bind deltas since the
  /// previous window) and returns the quantum to use from here on.
  double on_window(u64 swap_bytes_delta, u64 binds_delta);

  double quantum_seconds() const { return quantum_; }
  u64 trips() const { return trips_; }

 private:
  Config config_;
  double quantum_;
  u64 trips_ = 0;
  int calm_windows_ = 0;
};

class Scheduler {
 public:
  using Config = SchedulerConfig;

  Scheduler(cudart::CudaRt& rt, MemoryManager& mm, Config config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Ok when config.policy named a registered SchedulingPolicy; the typed
  /// construction error otherwise (the constructor falls back to "fcfs" so
  /// the daemon stays schedulable, but callers that can refuse -- gpuvmd
  /// flag parsing, the chaos harness -- surface this instead).
  Status policy_status() const { return policy_status_; }
  const SchedulingPolicy& policy() const { return *policy_; }

  // ---- Topology -------------------------------------------------------------
  /// Creates vGPUs for the device at `device_index` (cudart numbering).
  void add_device(int device_index, GpuId gpu);
  /// Marks the device's vGPUs dead, eagerly unbinds any contexts bound to
  /// them (they re-queue and recover on their next acquire) and wakes
  /// waiters (failure / hot-remove). After this returns, no context is
  /// bound to a dead vGPU — the chaos InvariantChecker relies on it.
  void remove_device(GpuId gpu);

  // ---- Binding ---------------------------------------------------------------
  struct Binding {
    int slot = -1;
    GpuId gpu{};
    ClientId client{};
    bool migrated = false;  ///< context data must move from another device
    /// This bind replaced a binding lost to a device failure/removal; the
    /// context's state recovers from the swap area.
    bool recovered_from_failure = false;
  };

  /// Blocks until `ctx` is bound to a vGPU (or no device remains at all).
  /// Idempotent: returns the existing binding if already bound.
  Result<Binding> acquire(Context& ctx);

  /// Releases the context's vGPU (end of GPU phase); wakes waiters.
  void release(Context& ctx);

  /// Revokes the context's vGPU because its time quantum expired (the
  /// caller has already swapped the victim's dirty intervals out under its
  /// ContextLock). Counts the preemption, feeds the thrash governor one
  /// rotation window and re-matches waiters. ErrorInvalidValue when the
  /// context holds no binding.
  Status preempt(Context& ctx);

  /// True when `ctx` is bound under a preemptive policy, its quantum has
  /// expired and another context is waiting -- the launch loop's cue to
  /// yield at the kernel boundary (the pump cannot preempt mid-call).
  bool quantum_expired(ContextId ctx) const;

  /// The preempt executor swaps one context out and calls preempt(); the
  /// Runtime installs it (it owns the ContextLock discipline). Returns
  /// true when the victim was preempted or already unbound, false when the
  /// victim was mid-call and refused.
  using PreemptExecutor = std::function<bool(ContextId)>;
  void set_preempt_executor(PreemptExecutor executor);

  /// Runs after every publication of the load counters below, under mu_;
  /// every ContextState store the scheduler makes precedes one. The Runtime
  /// installs it (its load-report notifier) before serving connections.
  void set_load_listener(std::function<void()> listener);

  /// Chaos hook: preempt every bound context now, regardless of quantum.
  /// Returns the number preempted; 0 under a non-preemptive policy;
  /// ErrorNotSupported when no executor is installed.
  StatusOr<int> force_preempt_sweep();

  std::optional<Binding> binding_of(ContextId ctx) const;
  bool context_bound(ContextId ctx) const;

  // ---- Introspection ----------------------------------------------------------
  /// Active bindings per GPU (load metric).
  std::map<GpuId, int> load_by_gpu() const;

  // The load counters below come from one copy, republished under mu_ at
  // every change and read under a leaf lock of its own: a clock-engine timer
  // (the heartbeat's load_snapshot) reads them even while the thread
  // advancing the clock holds mu_ inside acquire()'s wait.
  int vgpu_count() const;           ///< alive vGPUs (what apps see as devices)
  int waiting_count() const;        ///< contexts blocked in acquire()
  int bound_count() const;          ///< contexts currently holding a vGPU
  bool has_waiters() const;

  /// Alive vGPU slots aggregated per physical device.
  struct DeviceSlots {
    GpuId gpu{};
    int vgpus = 0;  ///< alive slots on this device
    int bound = 0;  ///< of which bound to a context
  };
  /// The counts above plus the per-device slots, from one consistent
  /// publication (the LoadSnapshot feed).
  struct LoadCounts {
    int vgpus = 0;
    int waiting = 0;
    int bound = 0;
    std::vector<DeviceSlots> devices;  ///< ordered by GpuId
  };
  LoadCounts load_counts() const;

  /// This scheduler's own queue-wait histogram (same observations as the
  /// process-global "sched.queue_wait_seconds"). Per-instance so a node in
  /// a multi-node in-process cluster can report *its* waits in a
  /// LoadSnapshot without cross-talk from co-hosted nodes.
  const obs::Histogram& queue_wait_local() const { return queue_wait_local_; }

  /// True when migration is enabled and a device strictly faster than
  /// `current` has an idle vGPU -- the dispatcher's cue to unbind a job in
  /// its CPU phase so it can migrate (Figure 9's load balancing).
  bool faster_gpu_idle(GpuId current) const;
  SchedulerStats stats() const;

  /// Consistent snapshot of every vGPU slot (chaos invariant checking).
  struct SlotSnapshot {
    int index = 0;
    GpuId gpu{};
    bool alive = true;
    ContextId bound{};  ///< invalid() when free
  };
  std::vector<SlotSnapshot> slots_snapshot() const;

 private:
  struct Slot {
    int index = 0;
    GpuId gpu{};
    int device_index = 0;
    ClientId client{};
    double speed = 0.0;  ///< GpuSpec::compute_power of the device
    bool alive = true;
    ContextId bound{};
    vt::TimePoint bound_at{};    ///< when `bound` was granted
    vt::TimePoint expires{};     ///< quantum deadline; kTimeZero = none
    vt::TimePoint next_sweep{};  ///< pump retry after a refused preemption
  };

  struct Waiter {
    Context* ctx;
    std::optional<Binding> granted;
    bool hopeless = false;  // no alive slot can ever serve this context
  };

  /// pick_slot_locked result: the chosen slot plus whether taking it moves
  /// the context's data off another device.
  struct SlotPick {
    Slot* slot = nullptr;
    bool migrated = false;
  };

  /// Greedy assignment of free slots to waiters in policy-priority order.
  /// Called with mu_ held whenever slots or the waiting set change.
  void match_locked();

  /// Picks the slot a context should get, honoring residency affinity,
  /// load balancing, (optionally) slow->fast migration and the policy's
  /// device exclusivity. slot == nullptr when nothing suitable is free.
  SlotPick pick_slot_locked(Context& ctx);

  /// Clears binding state on `slot` (shared by release/preempt/requeue).
  void unbind_slot_locked(Slot* slot);

  /// Earliest instant the quantum pump must wake at; nullopt when no bound
  /// slot carries a deadline.
  std::optional<vt::TimePoint> next_pump_wake_locked() const;

  /// Body of the quantum-expiry pump thread (preemptive policies only).
  void pump_loop();

  /// Feeds the governor one rotation window (mu_ held); updates the trip
  /// count.
  void governor_window_locked();

  /// Republishes load_ from slots_, waiting_ and bindings_, then calls the
  /// load listener (mu_ held).
  void publish_load_locked();

  cudart::CudaRt* rt_;
  MemoryManager* mm_;
  Config config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  Status policy_status_ = Status::Ok;
  ThrashGovernor governor_;

  mutable std::mutex mu_;
  vt::ConditionVariable cv_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Waiter*> waiting_;
  std::map<ContextId, Slot*> bindings_;
  /// Contexts force-unbound by remove_device: their next acquire() reports
  /// recovered_from_failure so the runtime replays from the swap copy.
  std::set<ContextId> recovering_;
  SchedulerStats stats_;
  obs::Histogram queue_wait_local_;

  /// The published load counters; load_mu_ is a leaf lock (see above).
  mutable std::mutex load_mu_;
  LoadCounts load_;

  // ---- Quantum pump (preemptive policies only) ------------------------------
  PreemptExecutor preempt_executor_;
  std::function<void()> load_listener_;  // guarded by mu_
  vt::ConditionVariable pump_cv_;
  bool stop_pump_ = false;
  /// Governor window baseline (swap traffic / binds at the last window).
  u64 window_swap_bytes_ = 0;
  u64 window_binds_ = 0;
  vt::Thread pump_;  // last member: joins before the rest tears down
};

}  // namespace gpuvm::core

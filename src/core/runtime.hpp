// Runtime: the gpuvm node daemon.
//
// The stand-alone process of the paper (Figure 3): a connection manager
// accepts one connection per application thread; dispatcher logic services
// the CUDA calls -- registration eagerly, device management overridden,
// memory operations through the MemoryManager in terms of virtual
// addresses only -- and delays application-to-vGPU binding until the first
// kernel launch. Virtual GPUs time-share the physical devices; the memory
// manager provides intra-/inter-application swap; failed contexts recover
// onto surviving devices; overload can be shed to a peer node daemon
// (inter-node offloading).
//
// Threading model: an in-process connection (connect, connect_with) costs
// no daemon thread. Each request is served on the thread that sends it: the
// channel's sink sleeps until the request's delivery instant, runs the
// connection's Session and queues the reply with its own transit. Only a
// channel without an in-process sender (serve_channel: unix sockets,
// gpuvmd) gets a serving thread; a heartbeat subscription is a vt::Timer
// that the clock engine runs. A call locks only its context's ContextLock,
// the context table and per-context page tables are sharded maps, counts
// are relaxed atomic adds (common/stats_table.hpp), and the daemon-wide mu_
// guards nothing but connection bookkeeping and the CUDA-4 app-context
// registry. Tenants contend only on the scheduler (when competing for
// vGPUs) and on the device engines themselves -- never on a daemon-wide
// lock, so a tenant queued for a vGPU cannot stall the others.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/sharded_map.hpp"
#include "common/stats_table.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "core/context.hpp"
#include "core/memory_manager.hpp"
#include "core/scheduler.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"

namespace gpuvm::core {

struct RuntimeConfig {
  /// Scheduling knobs (vGPUs per device, policy, migration, grace period),
  /// passed to the Scheduler verbatim -- see SchedulerConfig.
  SchedulerConfig scheduler;

  bool defer_transfers = true;

  /// Overlap eviction write-backs with subsequent work (see
  /// MemoryManager::Config::async_writeback).
  bool async_writeback = true;

  /// Incremental swap engine: dirty-interval tracking, kernel write-sets and
  /// range-granular swap transfers (see MemoryManager::Config). False runs
  /// the naive whole-buffer baseline.
  bool incremental_swap = true;

  /// Page-granular memory engine: fixed-size pages, AccessHint-scoped
  /// launch transfers, a per-context TLB cost model, and pluggable
  /// eviction/prefetch policies (see MemoryManager::Config::paging). False
  /// keeps the entry-granular engine, bit-identical to prior behaviour.
  bool paging = false;
  u64 page_bytes = 64 * 1024;
  /// Paging policy names (core/paging_policy.hpp registries); validated at
  /// the CLI boundary, unknown names fall back to defaults inside the MM.
  std::string eviction_policy = "page-lru";
  std::string prefetch_policy = "stride";

  /// Node load (contexts waiting for a vGPU) above which newly arriving
  /// connections are offloaded to the peer node. <0 disables offloading.
  int offload_threshold = -1;

  /// Auto-checkpoint after any kernel whose execution took at least this
  /// long (0 disables). Bounds the restart penalty after a GPU failure.
  double auto_checkpoint_after_kernel_seconds = 0.0;

  /// Attempts to re-run a context's device call on another GPU after a
  /// device failure before giving up.
  int max_recovery_attempts = 3;

  /// CUDA 4.0 semantics (paper section 4.8): connections carrying the same
  /// application id share one context (shared data, same device), and
  /// cross-device migration uses direct GPU-to-GPU transfers.
  bool cuda4_semantics = false;

  /// Capabilities this daemon is willing to negotiate. Defaults to
  /// everything this build speaks; masking bits off emulates an older peer
  /// (e.g. ~caps::kQueryLoad behaves like a protocol-v2 daemon without load
  /// telemetry, which the NodeDirectory must tolerate).
  u32 caps_mask = protocol::caps::kAll;
};

struct RuntimeStats {
  u64 connections = 0;
  u64 offloaded_connections = 0;
  u64 launches = 0;
  u64 recoveries = 0;        ///< device calls replayed after a GPU failure
  u64 auto_checkpoints = 0;
  u64 swap_retry_backoffs = 0;  ///< launch attempts that unbound and retried
  u64 offload_fallbacks = 0;    ///< offload attempts that fell back to local
                                ///< servicing (peer unreachable mid-handshake)
  u64 dispatch_lock_contended = 0;  ///< dispatch-lock acquisitions that waited
  u64 migrations_out = 0;      ///< contexts live-migrated to a peer node
  u64 migrations_in = 0;       ///< contexts resumed from a peer's migration
  u64 migrations_refused = 0;  ///< attempts aborted before commit (no kMigrate
                               ///< peer, busy context, transport failure)
};

/// RuntimeStats' fields under their QueryStats names ("stats.runtime.<name>").
inline constexpr auto kRuntimeStatsFields = std::to_array<StatField<RuntimeStats>>({
    {"connections", &RuntimeStats::connections},
    {"offloaded_connections", &RuntimeStats::offloaded_connections},
    {"launches", &RuntimeStats::launches},
    {"recoveries", &RuntimeStats::recoveries},
    {"auto_checkpoints", &RuntimeStats::auto_checkpoints},
    {"swap_retry_backoffs", &RuntimeStats::swap_retry_backoffs},
    {"offload_fallbacks", &RuntimeStats::offload_fallbacks},
    {"dispatch_lock_contended", &RuntimeStats::dispatch_lock_contended},
    {"migrations_out", &RuntimeStats::migrations_out},
    {"migrations_in", &RuntimeStats::migrations_in},
    {"migrations_refused", &RuntimeStats::migrations_refused},
});

/// What one committed migration shipped (Runtime::migrate_context).
struct MigrationReport {
  int precopy_rounds = 0;      ///< delta rounds actually run (excl. round 0)
  u64 image_bytes = 0;         ///< round-0 sparse image size
  u64 precopy_bytes = 0;       ///< image + all pre-copy deltas
  u64 stop_copy_bytes = 0;     ///< final (quiesced) delta size
  u64 naive_bytes = 0;         ///< full freeze-ship-resume baseline
  double stop_copy_seconds = 0.0;  ///< virtual time the job was frozen
};

class Runtime {
 public:
  Runtime(cudart::CudaRt& rt, RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Creates a connected frontend endpoint (in-process transport with
  /// local-socket costs) whose requests are served on the sending thread.
  std::unique_ptr<transport::MessageChannel> connect();

  /// Same, with an explicit channel cost model (inter-node links pay
  /// network latency/bandwidth instead of local-socket costs).
  std::unique_ptr<transport::MessageChannel> connect_with(transport::ChannelCosts costs);

  /// Serves an externally created channel (unix-socket server) on a thread
  /// of its own.
  void serve_channel(std::unique_ptr<transport::MessageChannel> channel);

  /// Wires up inter-node offloading: `peer_factory` opens a channel to the
  /// peer daemon. Connections arriving while load >= offload_threshold are
  /// proxied there (their CUDA calls execute remotely; CPU phases stay with
  /// the application).
  void set_offload_peer(std::function<std::unique_ptr<transport::MessageChannel>()> factory);

  /// Offload load metric: pending work beyond this node's capacity --
  /// contexts blocked waiting for a vGPU, or active local connections in
  /// excess of the vGPU count (the paper gates dispatch on the length of
  /// the pending-connections list).
  int load() const;

  MemoryManager& memory() { return *mm_; }
  Scheduler& scheduler() { return *scheduler_; }
  cudart::CudaRt& cudart() { return *rt_; }
  RuntimeStats stats() const;
  const RuntimeConfig& config() const { return config_; }

  /// Identifies this daemon in cluster telemetry: `id` stamps
  /// LoadSnapshot.node. Call once, before serving connections (the cluster
  /// layer does so at node construction). QueryStats replies need no name:
  /// each daemon answers with its own counts, and the head node that polls
  /// several daemons namespaces the replies by peer (obs/aggregate.hpp).
  void set_node_identity(u64 id);
  u64 node_id() const { return node_id_; }

  /// Point-in-time load telemetry (the QueryLoad answer): queue depth,
  /// binding pressure, free device memory, lifetime queue-wait p50, all
  /// stamped with the node's virtual time. Heartbeat subscriptions rewrite
  /// seq and the p50 window per report. Takes only leaf locks, never the
  /// scheduler's or this daemon's mu_: heartbeat ticks call it on any thread.
  /// Whatever changes a field of it other than seq, vt_ns and the p50 calls
  /// load_changed() once the change is made.
  transport::LoadSnapshot load_snapshot() const;

  /// Blocks until all currently-open connections have finished (used by
  /// tests and the batch harness between phases). A connection finishes
  /// when its channel closes, with or without a Goodbye -- a heartbeat
  /// subscription too, torn down on the closing thread.
  void drain();

  /// Live-migrates context `id` to the peer daemon reached via `factory`
  /// (pre-copy rounds over the channel, then a quiesced stop-and-copy; see
  /// docs/ARCHITECTURE.md "Live migration"). On success the local context
  /// becomes a forwarding stub and the report says what was shipped. On any
  /// failure before the resume frame is sent the migration aborts cleanly
  /// and the job keeps running here.
  StatusOr<MigrationReport> migrate_context(
      ContextId id, const std::function<std::unique_ptr<transport::MessageChannel>()>& factory);

  /// Preempts every bound context immediately, regardless of quantum
  /// (chaos "preempt" events). Returns the number of contexts preempted;
  /// 0 under a non-preemptive policy. Typed errors instead of a silent
  /// no-op (ErrorNotSupported when no executor is installed).
  StatusOr<int> preempt_now();

 private:
  /// One connection's state and per-message logic (runtime.cpp).
  class Session;

  /// The load-report notifier: each heartbeat subscription arms its report
  /// for the first instant of its grid after now (see Session::tick). The
  /// scheduler calls it after each load publication, every SimGpu of the
  /// machine after each malloc and free once a subscription has been made
  /// (memory_hook_), and this daemon after each ContextState store and
  /// context-table change. Callers may hold the scheduler's mu_, a
  /// ContextLock or the machine's memory lock; with no subscription it
  /// costs one relaxed atomic load. A spurious call costs one redundant
  /// report, a missing one a stale directory until the next keepalive.
  void load_changed();

  /// Registers a session for `channel` (nullptr, channel closed, once the
  /// daemon shuts down). Takes the sessions that have finished out of the
  /// table into `finished`, for the caller to free outside mu_.
  Session* open_session_locked(std::unique_ptr<transport::MessageChannel> channel,
                               bool served_inline,
                               std::vector<std::unique_ptr<Session>>& finished);

  /// The QueryStats answer: the process registry's snapshot plus this
  /// daemon's own "stats.*" gauges -- its runtime, scheduler and memory
  /// manager, its machine's GPUs and its clock domain -- sorted by name.
  obs::MetricsSnapshot stats_snapshot() const;

  /// Dispatches one application message; returns the reply.
  transport::Message handle(Context& ctx, transport::MessageChannel& channel,
                            const transport::Message& msg);

  /// Relays one application message of a migrated context to the target
  /// daemon over ctx.fwd (falls back to local handling if the migration
  /// rolled back between the caller's check and the lock acquisition).
  transport::Message forward_migrated(Context& ctx, transport::MessageChannel& channel,
                                      const transport::Message& msg);

  /// Target-side MigrateChunk/MigrateResume (caps::kMigrate).
  Status apply_migrate_chunk(Context& ctx, const transport::Message& msg);
  Status apply_migrate_resume(Context& ctx, const transport::Message& msg);

  Status do_launch(Context& ctx, transport::MessageChannel& channel, const std::string& name,
                   const sim::LaunchConfig& config, const std::vector<sim::KernelArg>& args);

  /// Inter-application swap: evicts one unbound victim with enough resident
  /// bytes on `gpu`. Returns true if a victim was swapped.
  bool evict_one_victim(GpuId gpu, u64 needed, ContextId requester);

  /// Preempt executor installed into the Scheduler: swaps the victim's
  /// dirty intervals out under its ContextLock and revokes the binding.
  /// Returns false when the victim was mid-call (try_lock refused); the
  /// quantum pump retries and the victim's own launch loop yields at the
  /// next kernel boundary.
  bool preempt_context(ContextId id);

  void on_topology_event(sim::TopologyEvent event, GpuId gpu);

  std::shared_ptr<Context> find_context(ContextId id);

  /// Locks `lk`, recording wait time and contention in the obs registry
  /// when the lock was busy.
  void timed_lock(ContextLock& lk) const;

  /// timed_lock wrapped in a guard that unlocks at scope exit.
  [[nodiscard]] std::unique_lock<ContextLock> lock_context(ContextLock& lk) const;

  cudart::CudaRt* rt_;
  RuntimeConfig config_;

  /// Heartbeat subscriptions, walked by load_changed(). reports_mu_ is a
  /// leaf: taken only above vt::Domain's mutex (a notifier re-arms a
  /// timer), never held across a vt sleep, wait or join, and never while a
  /// tick samples. It guards reporting_ and every heartbeat field a
  /// notifier reads. Declared before mm_ and scheduler_, whose listeners
  /// call load_changed() until they are destroyed.
  std::mutex reports_mu_;
  std::vector<Session*> reporting_;
  std::atomic<bool> any_reporting_{false};  ///< !reporting_.empty()
  /// Device memory is watched from the first subscription on: until then
  /// the machine calls no listener, and a malloc or free costs one relaxed
  /// atomic load for it.
  std::once_flag memory_hook_;
  u64 memory_listener_ = 0;  ///< SimMachine::subscribe_memory handle; 0 before

  std::unique_ptr<MemoryManager> mm_;
  std::unique_ptr<Scheduler> scheduler_;

  /// Cluster identity (set_node_identity): fixed before serving starts.
  u64 node_id_ = 0;

  /// Context table, sharded by id: lookups on the dispatch hot path never
  /// serialize unrelated tenants.
  ShardedMap<ContextId, std::shared_ptr<Context>> contexts_;
  std::atomic<u64> next_context_{1};

  /// Guards connection bookkeeping and the CUDA-4 shared-context registry
  /// only -- never held across a dispatched call.
  mutable std::mutex mu_;
  std::map<u64, std::shared_ptr<Context>> app_contexts_;  // CUDA 4 mode
  /// Every session not yet freed, with its server endpoint: an in-process
  /// one is freed at the first connect after it finished, unless it keeps
  /// a teardown thread; the others with the daemon.
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Serving threads (serve_channel).
  std::vector<vt::Thread> threads_;
  int open_connections_ = 0;
  vt::ConditionVariable drained_cv_;
  bool shutting_down_ = false;

  std::function<std::unique_ptr<transport::MessageChannel>()> peer_factory_;

  /// Bumped concurrently through std::atomic_ref (bump); read by stats().
  mutable RuntimeStats stats_;
};

}  // namespace gpuvm::core

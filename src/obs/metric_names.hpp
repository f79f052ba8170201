// Canonical metric names, centralized so producers and consumers share one
// spelling.
//
// Every counter/gauge/histogram registered in the MetricsRegistry is keyed
// by a string; a typo'd string at any call site silently creates a second,
// forever-empty metric. Referencing these constants instead turns the typo
// into a build error and gives grep one place to find who owns a name.
//
// Naming scheme: `<layer>.<what>[_unit]` for the process-wide instruments
// kept in the registry, and `stats.<layer>.<field>` for the gauges a daemon
// renders from its own per-layer stats structs when it answers QueryStats
// (Runtime::stats_snapshot). Those structs are the only store of per-node
// counts; each lists its field names once, in the table beside it
// (common/stats_table.hpp), and the prefixes below name the layer.
#pragma once

namespace gpuvm::obs::names {

// ---- cudart / sim ----------------------------------------------------------
inline constexpr char kCudartCalls[] = "cudart.calls";
inline constexpr char kGpuKernelSeconds[] = "gpu.kernel_seconds";
inline constexpr char kGpuTransferBytes[] = "gpu.transfer_bytes";

// ---- transport -------------------------------------------------------------
inline constexpr char kTransportMessagesSent[] = "transport.messages_sent";
inline constexpr char kTransportBytesSent[] = "transport.bytes_sent";
inline constexpr char kTransportRetries[] = "transport.retries";
inline constexpr char kTransportDroppedMessages[] = "transport.dropped_messages";
inline constexpr char kTransportBrokenChannels[] = "transport.broken_channels";
inline constexpr char kTransportReconnects[] = "transport.reconnects";

// ---- core runtime ----------------------------------------------------------
inline constexpr char kRuntimeLaunchSeconds[] = "runtime.launch_seconds";
inline constexpr char kRuntimeDispatchLockWaitSeconds[] =
    "runtime.dispatch_lock_wait_seconds";

// ---- scheduler -------------------------------------------------------------
inline constexpr char kSchedQueueWaitSeconds[] = "sched.queue_wait_seconds";
/// How long bindings were held before release or preemption (histogram).
inline constexpr char kSchedHeldSeconds[] = "sched.held_seconds";

// ---- memory manager --------------------------------------------------------
inline constexpr char kMmSwapBytes[] = "mm.swap_bytes";
inline constexpr char kMmBulkH2dBytes[] = "mm.bulk_h2d_bytes";
/// Modeled seconds a launch spent servicing its page faults (histogram).
inline constexpr char kMmPageFaultSeconds[] = "mm.page_fault_seconds";

// ---- cluster control plane -------------------------------------------------
inline constexpr char kClusterOffloadHysteresisRejections[] =
    "cluster.offload_hysteresis_rejections";
inline constexpr char kClusterDirectoryStaleReports[] = "cluster.directory_stale_reports";
/// + DispatchPolicy::name(): one counter per placement policy.
inline constexpr char kClusterDispatchPrefix[] = "cluster.dispatch.";

// ---- live migration --------------------------------------------------------
inline constexpr char kMigrationBytes[] = "migration.bytes";
inline constexpr char kMigrationPrecopyBytes[] = "migration.precopy_bytes";
inline constexpr char kMigrationStopCopyBytes[] = "migration.stop_copy_bytes";
inline constexpr char kMigrationStopCopyMs[] = "migration.stop_copy_ms";

// ---- chaos -----------------------------------------------------------------
inline constexpr char kChaosEvents[] = "chaos.events";

// ---- a daemon's own stats gauges (QueryStats replies; see header comment) --
inline constexpr char kStatsRuntimePrefix[] = "stats.runtime.";
inline constexpr char kStatsSchedPrefix[] = "stats.sched.";
inline constexpr char kStatsMmPrefix[] = "stats.mm.";
/// vt::Domain::clock_stats of the daemon's clock domain.
inline constexpr char kStatsVtPrefix[] = "stats.vt.";
/// + the GPU id + ".": one family per device of the daemon's machine.
inline constexpr char kStatsGpuPrefix[] = "stats.gpu";

// ---- cluster aggregation (obs/aggregate.hpp) -------------------------------
/// Aggregated snapshots namespace per-node views as `node.<name>.<metric>`
/// and cluster-wide rollups as `cluster.total.<metric>`.
inline constexpr char kAggregateNodePrefix[] = "node.";
inline constexpr char kAggregateClusterPrefix[] = "cluster.total.";

}  // namespace gpuvm::obs::names

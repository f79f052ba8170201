// MigrationCoordinator: head-node policy for checkpoint-based live migration.
//
// Composes the existing subsystems into whole-job motion between nodes: the
// NodeDirectory says who is overloaded (high watermark) or suspect, the
// coordinator picks a victim context on the shedding node and drives
// Runtime::migrate_context at it -- pre-copy rounds of the incremental-swap
// dirty deltas over a modeled cluster link, then a quiesced stop-and-copy
// (see docs/ARCHITECTURE.md "Live migration"). The per-attempt limits --
// pre-copy round cap, convergence threshold, quiesce attempts -- are
// constants of migrate_context; the policy here only decides when and
// whom to move. Unlike connection offload (which routes *new* arrivals),
// migration moves a job that is already running, state and all.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "cluster/cluster.hpp"
#include "common/tuning.hpp"
#include "common/vt.hpp"

namespace gpuvm::cluster {

struct MigrationPolicy {
  /// Watcher poll period (start()). See common/tuning.hpp for the
  /// tie-avoidance rationale behind the default.
  vt::Duration poll_interval = tuning::kMigrationWatchInterval;
  /// A node sheds a job when its load score reaches the directory's high
  /// watermark (reuses DirectoryConfig::high_watermark) or when the
  /// directory marks it suspect. At most one migration fires per poll tick.
  bool migrate_off_suspect = true;
};

class MigrationCoordinator {
 public:
  /// Requires Cluster::enable_load_reports to have run (the coordinator
  /// consults the directory for targets). `link` models the cluster
  /// interconnect every shipped byte pays for.
  MigrationCoordinator(Cluster& cluster, MigrationPolicy policy = {},
                       transport::ChannelCosts link = transport::ChannelCosts::cluster_link());
  ~MigrationCoordinator();

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// One migration, explicitly routed: moves `victim` (or, when absent, the
  /// context with the largest memory footprint) from `from` to `to`.
  StatusOr<core::MigrationReport> migrate(NodeId from, NodeId to,
                                          std::optional<ContextId> victim = std::nullopt);

  /// One migration with directory-driven target selection: the least-loaded
  /// dispatchable peer of `from`. ErrorNotSupported when no peer qualifies
  /// or no victim exists.
  StatusOr<core::MigrationReport> migrate_from(NodeId from);

  /// Starts the watcher: polls every node's load score each poll_interval
  /// and migrates one victim off any node at/above the high watermark (or
  /// suspect, per policy). Idempotent.
  void start();
  /// Stops and joins the watcher. Idempotent; the destructor calls it.
  void stop();

  /// The victim the policy would pick on `node` right now: the non-terminal
  /// context with the largest mem_usage, if any.
  std::optional<ContextId> pick_victim(Node& node) const;

  u64 attempted() const { return attempted_.load(std::memory_order_relaxed); }
  u64 completed() const { return completed_.load(std::memory_order_relaxed); }

 private:
  Node* least_loaded_peer(NodeId self) const;
  void watch_loop();

  Cluster* cluster_;
  MigrationPolicy policy_;
  transport::ChannelCosts link_;

  std::atomic<u64> attempted_{0};
  std::atomic<u64> completed_{0};

  std::mutex mu_;
  std::unique_ptr<vt::Thread> watcher_;
  std::atomic<bool> stop_{false};
};

}  // namespace gpuvm::cluster

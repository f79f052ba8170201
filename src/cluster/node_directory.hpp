// NodeDirectory: the head node's live view of cluster load.
//
// One entry per watched node, fed by QueryLoad heartbeat subscriptions: the
// directory opens a client channel to each node daemon, performs the
// protocol handshake, and -- when the peer negotiated caps::kQueryLoad --
// subscribes to LoadReport pushes, each stamped with the daemon's virtual
// time. The daemon reports a changed load at the next instant of its
// heartbeat grid and an unchanged one every keepalive (heartbeat_interval
// * tuning::kKeepaliveIntervals), so the directory's view at every instant
// is the one a report every interval would give. The directory runs no
// thread of its own: the daemon's heartbeat timer hands each report to a
// channel sink
// (MessageChannel::set_sink) at its send instant, stamped with its modeled
// delivery instant, and every reader first folds the reports whose delivery
// instant has passed. Lock order: the channel's sink mutex, then mu_. A
// heartbeat tick may run on any thread that advances the clock, so mu_ is a
// leaf lock: never held across a vt sleep, wait or join.
//
// Consumers:
//   - TorqueScheduler dispatch policies rank candidates by LoadSnapshot
//     (least-loaded, memory best-fit) and route around suspect nodes.
//   - The mesh offload factories (Cluster::enable_offloading) ask
//     pick_offload_target() for the least-loaded peer, with hysteresis:
//     offload only when the shedding node is above the high watermark AND
//     the target is below the low watermark, so two moderately loaded
//     nodes never ping-pong connections.
//
// Staleness: an idle node reports once per keepalive, so a subscribed node
// is *suspect* once its last report is older than keepalive +
// (suspect_after_missed - 1) intervals -- the margin past the next expected
// report that per-interval reports had, 18 intervals at the defaults. A
// suspect node is excluded from dispatch and offload until reports resume
// (chaos link faults, daemon stalls). A node whose latest snapshot shows
// zero alive vGPUs is *dark* (chaos node blackout) and equally excluded; a
// vGPU-count change is reported at the next grid instant, so dark is as
// fast as the interval. Peers that never negotiated kQueryLoad
// (protocol-v2 daemons) stay dispatchable with no load data: policies fall
// back to round-robin behaviour for them.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "cluster/node.hpp"
#include "common/tuning.hpp"
#include "transport/channel.hpp"
#include "transport/message.hpp"

namespace gpuvm::core {
struct SchedulerConfig;
}  // namespace gpuvm::core

namespace gpuvm::cluster {

struct DirectoryConfig;

/// Maps the unified core::SchedulerConfig onto a DirectoryConfig: the
/// offload watermarks (offload_high_watermark / offload_low_watermark) come
/// from the scheduler config -- one struct owns dispatch policy, preemption
/// policy, quantum and watermarks -- while heartbeat cadence keeps the
/// directory defaults.
DirectoryConfig directory_config_from(const core::SchedulerConfig& sched);

struct DirectoryConfig {
  /// Report grid requested from each subscribed daemon; the keepalive is
  /// tuning::kKeepaliveIntervals of it. See common/tuning.hpp for the
  /// tie-avoidance rationale behind the default.
  vt::Duration heartbeat_interval = tuning::kHeartbeatInterval;
  /// Missed intervals, counting the keepalive as the first, before a
  /// subscribed node turns suspect: its last report is then older than
  /// keepalive + (suspect_after_missed - 1) * heartbeat_interval.
  int suspect_after_missed = 3;
  /// Offload hysteresis: a node sheds only while its own load score is >=
  /// `high_watermark`, and only onto a peer whose score is <=
  /// `low_watermark`. high > low opens a dead band that prevents offload
  /// ping-pong between two moderately loaded nodes.
  double high_watermark = 1.0;
  double low_watermark = 0.5;
};

class NodeDirectory {
 public:
  NodeDirectory(vt::Domain& dom, DirectoryConfig config);
  ~NodeDirectory();

  NodeDirectory(const NodeDirectory&) = delete;
  NodeDirectory& operator=(const NodeDirectory&) = delete;

  /// Starts watching a node: handshake, and -- if the peer speaks
  /// caps::kQueryLoad -- a heartbeat subscription delivered through the
  /// channel's sink. Peers without the capability (or a channel that takes
  /// no sink) are recorded as unsubscribed (still dispatchable, no load
  /// data). Call once per node, from one thread.
  void watch(Node& node, transport::ChannelCosts costs);

  /// Closes every subscription channel and detaches its sink, waiting for a
  /// delivery in progress. Idempotent. Must run before the watched runtimes
  /// drain or shut down: an open subscription holds a daemon connection open.
  void stop();

  /// Subscribed and the last report is older than keepalive() +
  /// (suspect_after_missed - 1) * heartbeat_interval.
  bool suspect(NodeId id) const;
  /// Latest snapshot shows no alive vGPU (node blackout).
  bool dark(NodeId id) const;
  /// Eligible for new work: not suspect, not dark. Unsubscribed peers
  /// (no kQueryLoad) are always dispatchable -- no data is not bad news.
  bool dispatchable(NodeId id) const;

  /// Latest load snapshot, if the node ever reported one.
  std::optional<transport::LoadSnapshot> snapshot_of(NodeId id) const;
  /// LoadReports folded in for `id` so far (tests, staleness probes).
  u64 report_count(NodeId id) const;
  bool subscribed(NodeId id) const;

  /// Least-loaded dispatchable peer of `self`, honoring the watermarks:
  /// returns nullptr (and counts a hysteresis rejection) when `self_score`
  /// is below the high watermark or no peer sits below the low one.
  Node* pick_offload_target(NodeId self, double self_score);

  const DirectoryConfig& config() const { return config_; }
  /// Longest gap between two reports of an idle node.
  vt::Duration keepalive() const {
    return config_.heartbeat_interval * tuning::kKeepaliveIntervals;
  }

 private:
  /// A report sent but not yet visible: `at` is its delivery instant.
  struct InFlight {
    transport::LoadSnapshot snapshot;
    vt::TimePoint at{0};
  };

  struct Entry {
    Node* node = nullptr;
    bool subscribed = false;
    bool has_load = false;
    transport::LoadSnapshot last;
    vt::TimePoint last_report{0};  ///< delivery instant of `last`
    u64 reports = 0;
    std::deque<InFlight> in_flight;  ///< in delivery order
    std::shared_ptr<transport::MessageChannel> channel;
  };

  /// The subscription sink, inside the daemon's heartbeat tick.
  void deliver(NodeId id, transport::Message msg, vt::TimePoint at);
  /// Folds the reports of `e` whose delivery instant has passed.
  void fold_locked(Entry& e) const;
  /// The entry for `id`, folded; nullptr when unwatched.
  const Entry* entry_locked(NodeId id) const;
  bool suspect_locked(const Entry& e) const;
  bool dark_locked(const Entry& e) const;

  vt::Domain* dom_;
  DirectoryConfig config_;

  mutable std::mutex mu_;
  /// By NodeId::value (stable iteration order). Mutable: const readers
  /// fold delivered reports in before they read.
  mutable std::map<u64, Entry> entries_;
  bool stopped_ = false;
};

}  // namespace gpuvm::cluster

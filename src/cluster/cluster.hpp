// Cluster: builds a multi-node deployment and wires inter-node offloading.
//
// Mirrors the paper's testbed topology helpers: nodes with heterogeneous
// GPU sets, a head-node batch scheduler, kernel registration replicated on
// every node, and (optionally) offload links between the node daemons over
// a modeled cluster interconnect.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/node_directory.hpp"
#include "cluster/torque.hpp"

namespace gpuvm::cluster {

struct NodeSpec {
  std::string name;
  std::vector<sim::GpuSpec> gpus;
};

/// Cluster-wide offload health: how many connections moved, how many
/// attempts degraded to local servicing, how many device calls were
/// replayed after failures -- aggregate and per node (QueryStats surfaces
/// the per-node breakdown as "stats.node.<name>.*" gauges).
struct OffloadHealth {
  struct PerNode {
    NodeId id{};
    std::string name;
    u64 offloaded = 0;
    u64 fallbacks = 0;
    u64 recoveries = 0;
  };
  u64 offloaded = 0;
  u64 fallbacks = 0;
  u64 recoveries = 0;
  std::vector<PerNode> nodes;
};

class Cluster {
 public:
  /// Builds `specs.size()` nodes, each running the gpuvm daemon with
  /// `runtime_config`.
  Cluster(vt::Domain& dom, sim::SimParams params, const std::vector<NodeSpec>& specs,
          core::RuntimeConfig runtime_config, cudart::CudaRtConfig cudart_config = {});

  /// Registers a kernel implementation on every node (device code is
  /// available cluster-wide, as compiled binaries would be).
  void register_kernel(const sim::KernelDef& def);

  /// Starts the load-report control plane: a NodeDirectory watching every
  /// node over `costs` channels, fed by QueryLoad heartbeat subscriptions.
  /// Call after construction, before enable_offloading (the mesh consults
  /// the directory) and before submitting work. Idempotent. The heartbeats
  /// are clock-engine timers (vt::Timer): they never move the clock on
  /// their own, so it stays at the instant the last subscription completed
  /// until some thread sleeps.
  void enable_load_reports(DirectoryConfig config = {},
                           transport::ChannelCosts costs =
                               transport::ChannelCosts::cluster_link());

  /// Tears the subscriptions down (channels closed, sinks detached).
  /// Must run before draining or destroying the node runtimes when load
  /// reports were enabled -- an open subscription holds a connection open.
  void stop_load_reports();

  /// nullptr until enable_load_reports ran.
  NodeDirectory* directory() { return directory_.get(); }

  /// Wires inter-node offloading over a modeled cluster link. With a
  /// directory (enable_load_reports first), each overloaded node sheds to
  /// the least-loaded peer under the directory's hysteresis watermarks
  /// (mesh). Without one, each node sheds to the next node (the legacy
  /// fixed ring). Offloading also requires the runtime config to carry a
  /// non-negative offload_threshold.
  void enable_offloading(
      transport::ChannelCosts link = transport::ChannelCosts::cluster_link());

  size_t size() const { return nodes_.size(); }
  Node& node(size_t i) { return *nodes_.at(i); }
  Node* node_by_id(NodeId id);
  std::vector<Node*> node_pointers();
  vt::Domain& domain() { return *dom_; }

  /// Aggregate count of connections that *attempted* the offload path:
  /// proxied to a peer or degraded to a local fallback (Figure 10/11
  /// annotations; fallbacks used to be silently dropped here, hiding
  /// offload trouble from --stats).
  u64 total_offloaded() const;

  /// Full offload-health breakdown, aggregate and per node.
  OffloadHealth offload_health() const;

 private:
  vt::Domain* dom_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Declared after nodes_ so it is destroyed first: its dtor closes the
  /// subscription channels while the node runtimes still serve them.
  std::unique_ptr<NodeDirectory> directory_;
};

}  // namespace gpuvm::cluster

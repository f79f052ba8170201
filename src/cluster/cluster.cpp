#include "cluster/cluster.hpp"

namespace gpuvm::cluster {

Cluster::Cluster(vt::Domain& dom, sim::SimParams params, const std::vector<NodeSpec>& specs,
                 core::RuntimeConfig runtime_config, cudart::CudaRtConfig cudart_config)
    : dom_(&dom) {
  u64 next = 1;
  for (const NodeSpec& spec : specs) {
    nodes_.push_back(std::make_unique<Node>(NodeId{next}, spec.name, dom, params, spec.gpus,
                                            runtime_config, cudart_config));
    ++next;
  }
}

void Cluster::register_kernel(const sim::KernelDef& def) {
  for (const auto& node : nodes_) node->machine().kernels().add(def);
}

void Cluster::enable_load_reports(DirectoryConfig config, transport::ChannelCosts costs) {
  if (directory_ != nullptr) return;
  directory_ = std::make_unique<NodeDirectory>(*dom_, config);
  // The watch handshakes block on vt-aware channels, so they must run on a
  // thread attached to the domain (the caller usually is not). One watcher
  // thread, nodes in order: subscription channels are created at fixed
  // stream serials, keeping chaos replays bit-deterministic.
  vt::Thread watcher(*dom_, [this, costs] {
    for (const auto& node : nodes_) directory_->watch(*node, costs);
  });
  watcher.join();
}

void Cluster::stop_load_reports() {
  if (directory_ != nullptr) directory_->stop();
}

void Cluster::enable_offloading(transport::ChannelCosts link) {
  if (nodes_.size() < 2) return;
  if (directory_ != nullptr) {
    // Mesh: the shedding node asks the directory for the least-loaded
    // dispatchable peer, gated by the hysteresis watermarks. A nullptr from
    // the factory means "no suitable peer right now, serve locally" -- the
    // runtime skips the offload attempt without counting a fallback.
    NodeDirectory* dir = directory_.get();
    for (const auto& node : nodes_) {
      Node* self = node.get();
      self->runtime().set_offload_peer([self, dir, link] {
        Node* target = dir->pick_offload_target(
            self->id(), self->runtime().load_snapshot().load_score());
        if (target == nullptr) return std::unique_ptr<transport::MessageChannel>();
        return target->runtime().connect_with(link);
      });
    }
    return;
  }
  // Legacy ring: each node sheds to the next node. With two nodes this is
  // the paper's pairwise offload; with more it avoids offload storms.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node* peer = nodes_[(i + 1) % nodes_.size()].get();
    nodes_[i]->runtime().set_offload_peer(
        [peer, link] { return peer->runtime().connect_with(link); });
  }
}

Node* Cluster::node_by_id(NodeId id) {
  for (const auto& node : nodes_) {
    if (node->id() == id) return node.get();
  }
  return nullptr;
}

std::vector<Node*> Cluster::node_pointers() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node.get());
  return out;
}

u64 Cluster::total_offloaded() const {
  const OffloadHealth health = offload_health();
  return health.offloaded + health.fallbacks;
}

OffloadHealth Cluster::offload_health() const {
  OffloadHealth health;
  for (const auto& node : nodes_) {
    const core::RuntimeStats stats = node->runtime().stats();
    OffloadHealth::PerNode per;
    per.id = node->id();
    per.name = node->name();
    per.offloaded = stats.offloaded_connections;
    per.fallbacks = stats.offload_fallbacks;
    per.recoveries = stats.recoveries;
    health.offloaded += per.offloaded;
    health.fallbacks += per.fallbacks;
    health.recoveries += per.recoveries;
    health.nodes.push_back(std::move(per));
  }
  return health;
}

}  // namespace gpuvm::cluster

#include "cluster/migration.hpp"

#include <limits>

#include "common/log.hpp"

namespace gpuvm::cluster {

MigrationCoordinator::MigrationCoordinator(Cluster& cluster, MigrationPolicy policy,
                                           transport::ChannelCosts link)
    : cluster_(&cluster), policy_(policy), link_(link) {}

MigrationCoordinator::~MigrationCoordinator() { stop(); }

std::optional<ContextId> MigrationCoordinator::pick_victim(Node& node) const {
  // The tenant table of the node's own load snapshot is the public view of
  // its context population. A victim must hold memory (mem_usage > 0 rules
  // out the directory's subscription connections and empty contexts) and be
  // in a live state; migrate_context itself refuses pinned and shared ones.
  const transport::LoadSnapshot snap = node.runtime().load_snapshot();
  std::optional<ContextId> best;
  u64 best_usage = 0;
  for (const transport::TenantLoad& tenant : snap.tenants) {
    const auto state = static_cast<core::ContextState>(tenant.state);
    if (state != core::ContextState::Detached && state != core::ContextState::Waiting &&
        state != core::ContextState::Assigned) {
      continue;
    }
    const ContextId id{tenant.ctx};
    const u64 usage = node.runtime().memory().mem_usage(id);
    if (usage > best_usage) {
      best_usage = usage;
      best = id;
    }
  }
  return best;
}

Node* MigrationCoordinator::least_loaded_peer(NodeId self) const {
  NodeDirectory* dir = cluster_->directory();
  Node* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (Node* node : cluster_->node_pointers()) {
    if (node->id() == self) continue;
    if (dir != nullptr && !dir->dispatchable(node->id())) continue;
    const double score = node->runtime().load_snapshot().load_score();
    if (score < best_score) {
      best_score = score;
      best = node;
    }
  }
  return best;
}

StatusOr<core::MigrationReport> MigrationCoordinator::migrate(NodeId from, NodeId to,
                                                              std::optional<ContextId> victim) {
  Node* source = cluster_->node_by_id(from);
  Node* target = cluster_->node_by_id(to);
  if (source == nullptr || target == nullptr || from == to) {
    return Status::ErrorInvalidValue;
  }
  if (!victim.has_value()) victim = pick_victim(*source);
  if (!victim.has_value()) return Status::ErrorNotSupported;
  attempted_.fetch_add(1, std::memory_order_relaxed);
  auto report = source->runtime().migrate_context(
      *victim, [target, link = link_] { return target->runtime().connect_with(link); });
  if (report) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    log::info("cluster: migrated ctx %llu from %s to %s",
              static_cast<unsigned long long>(victim->value), source->name().c_str(),
              target->name().c_str());
  }
  return report;
}

StatusOr<core::MigrationReport> MigrationCoordinator::migrate_from(NodeId from) {
  Node* target = least_loaded_peer(from);
  if (target == nullptr) return Status::ErrorNotSupported;
  return migrate(from, target->id());
}

void MigrationCoordinator::start() {
  std::unique_lock lk(mu_);
  if (watcher_ != nullptr) return;
  stop_.store(false, std::memory_order_release);
  watcher_ = std::make_unique<vt::Thread>(cluster_->domain(), [this] { watch_loop(); });
}

void MigrationCoordinator::stop() {
  std::unique_ptr<vt::Thread> watcher;
  {
    std::unique_lock lk(mu_);
    stop_.store(true, std::memory_order_release);
    watcher = std::move(watcher_);
  }
  if (watcher != nullptr) watcher->join();
}

void MigrationCoordinator::watch_loop() {
  vt::Domain& dom = cluster_->domain();
  NodeDirectory* dir = cluster_->directory();
  const double high = dir != nullptr ? dir->config().high_watermark : 1.0;
  while (!stop_.load(std::memory_order_acquire)) {
    dom.sleep_for(policy_.poll_interval);
    if (stop_.load(std::memory_order_acquire)) return;
    for (Node* node : cluster_->node_pointers()) {
      const bool overloaded = node->runtime().load_snapshot().load_score() >= high;
      const bool suspect = policy_.migrate_off_suspect && dir != nullptr &&
                           dir->suspect(node->id());
      if (!overloaded && !suspect) continue;
      // One migration per tick: re-evaluate load before moving more.
      if (migrate_from(node->id())) break;
    }
  }
}

}  // namespace gpuvm::cluster

#include "cluster/node_directory.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/log.hpp"
#include "core/scheduler.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace gpuvm::cluster {

DirectoryConfig directory_config_from(const core::SchedulerConfig& sched) {
  DirectoryConfig config;
  config.high_watermark = sched.offload_high_watermark;
  config.low_watermark = sched.offload_low_watermark;
  return config;
}

using transport::Message;
using transport::Opcode;

namespace {

obs::Counter& hysteresis_rejections_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kClusterOffloadHysteresisRejections);
  return c;
}

obs::Counter& stale_reports_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kClusterDirectoryStaleReports);
  return c;
}

}  // namespace

NodeDirectory::NodeDirectory(vt::Domain& dom, DirectoryConfig config)
    : dom_(&dom), config_(config) {}

NodeDirectory::~NodeDirectory() { stop(); }

void NodeDirectory::watch(Node& node, transport::ChannelCosts costs) {
  std::shared_ptr<transport::MessageChannel> channel =
      node.runtime().connect_with(costs);
  if (channel == nullptr) return;

  // Protocol handshake as any frontend: the daemon decides whether load
  // telemetry survived capability negotiation.
  transport::HelloPayload hello;  // defaults advertise caps::kAll
  Message msg;
  msg.op = Opcode::Hello;
  msg.payload = transport::encode_hello(hello);
  u32 negotiated = 0;
  if (channel->send(std::move(msg))) {
    if (auto reply = channel->receive();
        reply.has_value() && ok(transport::reply_status(*reply))) {
      if (auto hr = transport::decode_hello_reply(transport::reply_payload(*reply))) {
        negotiated = hr->caps;
      }
    }
  }

  Entry entry;
  entry.node = &node;
  entry.subscribed = (negotiated & protocol::caps::kQueryLoad) != 0;
  if (!entry.subscribed) {
    // Protocol-v2 peer (or handshake failure): keep it dispatchable with no
    // load data; dispatch policies fall back to round-robin for it.
    channel->close();
    log::info("directory: node %llu has no load telemetry, watching blind",
              static_cast<unsigned long long>(node.id().value));
    std::scoped_lock lock(mu_);
    entries_[node.id().value] = std::move(entry);
    return;
  }

  // Subscribe: the reply carries the first snapshot, then the daemon pushes
  // a LoadReport on this channel when the load changes, and every
  // keepalive.
  Message sub;
  sub.op = Opcode::QueryLoad;
  sub.payload =
      transport::encode_query_load(config_.heartbeat_interval.count(), keepalive().count());
  if (channel->send(std::move(sub))) {
    if (auto reply = channel->receive();
        reply.has_value() && ok(transport::reply_status(*reply))) {
      if (auto load = transport::decode_load(transport::reply_payload(*reply))) {
        entry.has_load = true;
        entry.last = std::move(load.value());
        entry.last_report = dom_->now();
        entry.reports = 1;
      }
    }
  }
  entry.channel = channel;
  {
    std::scoped_lock lock(mu_);
    entries_[node.id().value] = std::move(entry);
  }
  // From here on the daemon's heartbeat timer hands each report to
  // deliver() itself.
  // A closing link needs no action: the node turns suspect once its
  // reports stop.
  const NodeId id = node.id();
  if (!channel->set_sink([this, id](std::optional<Message> report, vt::TimePoint at) {
        if (report.has_value()) deliver(id, std::move(*report), at);
      })) {
    // No sink on this channel: watch blind, as for a v2 peer.
    channel->close();
    Entry blind;
    blind.node = &node;
    std::scoped_lock lock(mu_);
    entries_[id.value] = std::move(blind);
  }
}

void NodeDirectory::deliver(NodeId id, Message msg, vt::TimePoint at) {
  if (msg.op != Opcode::LoadReport) return;
  auto load = transport::decode_load(msg.payload);
  if (!load) return;
  std::scoped_lock lock(mu_);
  auto it = entries_.find(id.value);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  fold_locked(entry);
  // Reports become visible in send order, as they would to one receiver
  // sleeping until each delivery instant in turn.
  if (!entry.in_flight.empty()) at = std::max(at, entry.in_flight.back().at);
  entry.in_flight.push_back(InFlight{std::move(load.value()), at});
}

void NodeDirectory::fold_locked(Entry& e) const {
  const vt::TimePoint now = dom_->now();
  while (!e.in_flight.empty() && e.in_flight.front().at <= now) {
    InFlight& report = e.in_flight.front();
    if (e.has_load && report.snapshot.seq != 0 && report.snapshot.seq <= e.last.seq) {
      // Heartbeats are ordered on one channel; a non-advancing seq would
      // mean a daemon restart mid-subscription. Count, keep the newer view.
      stale_reports_counter().add(1);
    } else {
      e.has_load = true;
      e.last = std::move(report.snapshot);
      e.last_report = report.at;
      ++e.reports;
    }
    e.in_flight.pop_front();
  }
}

void NodeDirectory::stop() {
  std::vector<std::shared_ptr<transport::MessageChannel>> channels;
  {
    std::scoped_lock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    for (auto& [id, entry] : entries_) {
      if (entry.channel != nullptr) channels.push_back(entry.channel);
    }
  }
  // Outside mu_: detaching waits for a delivery in progress, which takes
  // mu_, and closing the client end cancels the daemon's heartbeat timer,
  // waiting out a running tick, which takes it too.
  for (const auto& channel : channels) {
    channel->close();
    channel->set_sink({});
  }
}

const NodeDirectory::Entry* NodeDirectory::entry_locked(NodeId id) const {
  const auto it = entries_.find(id.value);
  if (it == entries_.end()) return nullptr;
  fold_locked(it->second);
  return &it->second;
}

bool NodeDirectory::suspect_locked(const Entry& e) const {
  if (!e.subscribed || !e.has_load) return false;
  const vt::Duration age = dom_->now() - e.last_report;
  return age > keepalive() + config_.heartbeat_interval * (config_.suspect_after_missed - 1);
}

bool NodeDirectory::dark_locked(const Entry& e) const {
  return e.has_load && e.last.vgpu_count == 0;
}

bool NodeDirectory::suspect(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr && suspect_locked(*e);
}

bool NodeDirectory::dark(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr && dark_locked(*e);
}

bool NodeDirectory::dispatchable(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  if (e == nullptr) return true;  // unwatched: no data is not bad news
  return !suspect_locked(*e) && !dark_locked(*e);
}

std::optional<transport::LoadSnapshot> NodeDirectory::snapshot_of(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  if (e == nullptr || !e->has_load) return std::nullopt;
  return e->last;
}

u64 NodeDirectory::report_count(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr ? e->reports : 0;
}

bool NodeDirectory::subscribed(NodeId id) const {
  std::scoped_lock lock(mu_);
  const Entry* e = entry_locked(id);
  return e != nullptr && e->subscribed;
}

Node* NodeDirectory::pick_offload_target(NodeId self, double self_score) {
  std::scoped_lock lock(mu_);
  if (self_score < config_.high_watermark) {
    // Shedding below the high watermark would thrash: refuse.
    hysteresis_rejections_counter().add(1);
    return nullptr;
  }
  Node* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (auto& [id, entry] : entries_) {
    fold_locked(entry);
    if (id == self.value || entry.node == nullptr) continue;
    if (suspect_locked(entry) || dark_locked(entry)) continue;
    // Candidates without load data (v2 peers) are skipped for offload:
    // blind shedding could pile onto a busier node.
    if (!entry.subscribed || !entry.has_load) continue;
    const double score = entry.last.load_score();
    if (score < best_score) {
      best_score = score;
      best = entry.node;
    }
  }
  if (best == nullptr || best_score > config_.low_watermark) {
    hysteresis_rejections_counter().add(1);
    return nullptr;
  }
  return best;
}

}  // namespace gpuvm::cluster

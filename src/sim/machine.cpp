#include "sim/machine.hpp"

#include "common/log.hpp"

namespace gpuvm::sim {

SimMachine::SimMachine(vt::Domain& dom, SimParams params) : dom_(&dom), params_(params) {}

GpuId SimMachine::add_gpu(GpuSpec spec) {
  GpuId id;
  {
    std::scoped_lock lock(mu_);
    id = GpuId{next_gpu_id_++};
    auto dev = std::make_unique<SimGpu>(id, std::move(spec), params_, *dom_);
    // A fail_after_ops countdown fires inside whichever op trips it; route
    // the event through fail_gpu so present_ and the topology listeners see
    // it exactly like an explicitly injected failure.
    dev->set_self_failure_callback([this](GpuId gid) { (void)fail_gpu(gid); });
    dev->set_memory_callback([this] { notify_memory(); });
    devices_.emplace(id, std::move(dev));
    order_.push_back(id);
    present_[id] = true;
  }
  notify(TopologyEvent::GpuAdded, id);
  return id;
}

Status SimMachine::remove_gpu(GpuId id) {
  {
    std::scoped_lock lock(mu_);
    const auto it = devices_.find(id);
    if (it == devices_.end() || !present_[id]) return Status::ErrorInvalidDevice;
    present_[id] = false;
    it->second->mark_removed();
  }
  notify(TopologyEvent::GpuRemoved, id);
  return Status::Ok;
}

Status SimMachine::fail_gpu(GpuId id) {
  {
    std::scoped_lock lock(mu_);
    const auto it = devices_.find(id);
    if (it == devices_.end() || !present_[id]) return Status::ErrorInvalidDevice;
    present_[id] = false;
    it->second->inject_failure();
  }
  notify(TopologyEvent::GpuFailed, id);
  return Status::Ok;
}

std::vector<GpuId> SimMachine::gpus() const {
  std::scoped_lock lock(mu_);
  std::vector<GpuId> out;
  for (GpuId id : order_) {
    const auto it = present_.find(id);
    if (it != present_.end() && it->second) out.push_back(id);
  }
  return out;
}

std::vector<GpuId> SimMachine::all_gpus() const {
  std::scoped_lock lock(mu_);
  return order_;
}

SimGpu* SimMachine::gpu(GpuId id) {
  std::scoped_lock lock(mu_);
  const auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : it->second.get();
}

const SimGpu* SimMachine::gpu(GpuId id) const {
  std::scoped_lock lock(mu_);
  const auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : it->second.get();
}

SimGpu* SimMachine::locate_gpu(DevicePtr ptr) {
  std::scoped_lock lock(mu_);
  for (auto& [id, device] : devices_) {
    if (device->valid_pointer(ptr)) return device.get();
  }
  return nullptr;
}

void SimMachine::subscribe(Listener listener) {
  std::scoped_lock lock(mu_);
  listeners_.push_back(std::move(listener));
}

u64 SimMachine::subscribe_memory(std::function<void()> listener) {
  std::scoped_lock lock(memory_mu_);
  memory_listeners_.emplace_back(next_memory_listener_, std::move(listener));
  memory_watched_.store(true, std::memory_order_relaxed);
  return next_memory_listener_++;
}

void SimMachine::unsubscribe_memory(u64 handle) {
  std::scoped_lock lock(memory_mu_);
  std::erase_if(memory_listeners_, [handle](const auto& entry) { return entry.first == handle; });
  memory_watched_.store(!memory_listeners_.empty(), std::memory_order_relaxed);
}

void SimMachine::notify_memory() {
  // A relaxed load suffices: a subscriber reads device memory after it
  // subscribed, under the device's lock. If that read missed this change,
  // it took the lock before the change did, so the subscription happens
  // before this load.
  if (!memory_watched_.load(std::memory_order_relaxed)) return;
  std::scoped_lock lock(memory_mu_);
  for (const auto& [handle, listener] : memory_listeners_) listener();
}

void SimMachine::notify(TopologyEvent event, GpuId id) {
  std::vector<Listener> snapshot;
  {
    std::scoped_lock lock(mu_);
    snapshot = listeners_;
  }
  for (const auto& listener : snapshot) listener(event, id);
}

}  // namespace gpuvm::sim

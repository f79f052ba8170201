// SimMachine: one compute node's set of GPUs, with hot add/remove.
//
// The paper's runtime supports "dynamic upgrade and downgrade of GPUs" and
// resilience to GPU failures; SimMachine provides the substrate: devices
// can be added, removed and failed at runtime, and interested components
// (the gpuvm dispatcher) subscribe to topology-change notifications.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "sim/kernels.hpp"
#include "sim/sim_gpu.hpp"

namespace gpuvm::sim {

enum class TopologyEvent { GpuAdded, GpuRemoved, GpuFailed };

class SimMachine {
 public:
  SimMachine(vt::Domain& dom, SimParams params);

  vt::Domain& domain() { return *dom_; }
  const SimParams& params() const { return params_; }
  KernelRegistry& kernels() { return kernels_; }
  const KernelRegistry& kernels() const { return kernels_; }

  /// Installs a new GPU (hot-add when the machine is already running).
  GpuId add_gpu(GpuSpec spec);

  /// Hot-removes a GPU. The device object stays alive (in-flight operations
  /// finish with ErrorDeviceUnavailable) but it no longer appears in gpus().
  Status remove_gpu(GpuId id);

  /// Failure injection: the device stays installed but unhealthy.
  Status fail_gpu(GpuId id);

  /// Installed *healthy* devices, in insertion order.
  std::vector<GpuId> gpus() const;
  /// All devices ever installed, including failed/removed ones.
  std::vector<GpuId> all_gpus() const;

  /// Device lookup (nullptr if never installed). Removed/failed devices are
  /// still returned so callers can observe the error status of pending ops.
  SimGpu* gpu(GpuId id);
  const SimGpu* gpu(GpuId id) const;

  /// Device owning the address range `ptr` falls in (address spaces are
  /// disjoint per device), or nullptr.
  SimGpu* locate_gpu(DevicePtr ptr);

  /// Topology subscription. Callbacks run on the mutating thread, outside
  /// the machine lock; they must not call back into mutation methods.
  using Listener = std::function<void(TopologyEvent, GpuId)>;
  void subscribe(Listener listener);

  /// Device-memory subscription: `listener` runs after every successful
  /// malloc and free on any of this machine's GPUs, those added later
  /// included, on the allocating thread, outside the device's locks but
  /// under a machine lock that unsubscribe_memory takes: after it returns,
  /// no call is in progress. A listener must not allocate or free device
  /// memory. While none is subscribed, a malloc or free pays one relaxed
  /// atomic load for this. Returns the handle unsubscribe_memory takes.
  u64 subscribe_memory(std::function<void()> listener);
  void unsubscribe_memory(u64 handle);

 private:
  void notify(TopologyEvent event, GpuId id);
  void notify_memory();

  vt::Domain* dom_;
  SimParams params_;
  KernelRegistry kernels_;

  mutable std::mutex mu_;
  u64 next_gpu_id_ = 1;
  std::vector<GpuId> order_;
  std::map<GpuId, std::unique_ptr<SimGpu>> devices_;
  std::map<GpuId, bool> present_;  // installed and healthy
  std::vector<Listener> listeners_;

  std::mutex memory_mu_;  // guards the two below; held while a listener runs
  u64 next_memory_listener_ = 1;
  std::vector<std::pair<u64, std::function<void()>>> memory_listeners_;
  std::atomic<bool> memory_watched_{false};  // !memory_listeners_.empty()
};

}  // namespace gpuvm::sim

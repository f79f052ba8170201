// SimGpu: a simulated GPU device.
//
// Stands in for the NVIDIA Fermi/GT200 cards of the paper's testbed. The
// device exposes exactly the observables the runtime under study reacts to:
//   - device-memory allocation with realistic fragmentation (first-fit
//     address-space allocator) and capacity-based OOM,
//   - host<->device transfers costed by PCIe bandwidth,
//   - kernel execution costed by the card's sustained compute / memory
//     rates, serialized FCFS on a single compute engine (CUDA 3.2 contexts
//     time-share the device; concurrent kernel execution across contexts
//     did not exist),
//   - a copy engine that may overlap with the compute engine (Fermi DMA),
//   - failure injection and hot removal for the fault-tolerance and
//     dynamic-downgrade experiments.
// Kernel bodies execute real host math over the backing bytes so data
// correctness is observable end to end.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/stats_table.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "sim/allocator.hpp"
#include "sim/gpu_spec.hpp"
#include "sim/kernels.hpp"

namespace gpuvm::sim {

/// Counters exposed for tests and benchmark harnesses.
struct GpuStats {
  u64 mallocs = 0;
  u64 frees = 0;
  u64 kernels_launched = 0;
  u64 consolidated_kernels = 0;  ///< launches that co-ran with another kernel
  u64 bytes_to_device = 0;
  u64 bytes_from_device = 0;
  u64 failed_ops = 0;
  u64 injected_failures = 0;  ///< inject_failure transitions (at most 1)
  u64 alloc_faults = 0;       ///< mallocs failed by fail_next_allocs pulses
  /// Cumulative busy time of the engines (modeled seconds); divide by the
  /// experiment duration for a utilization figure.
  double compute_busy_seconds = 0.0;
  double copy_busy_seconds = 0.0;
};

/// GpuStats' fields under their QueryStats names ("stats.gpu<N>.<name>").
/// The fault-injection counts (injected_failures, alloc_faults) serve tests
/// and chaos checks and stay out of replies.
inline constexpr auto kGpuStatsFields = std::to_array<StatField<GpuStats>>({
    {"mallocs", &GpuStats::mallocs},
    {"frees", &GpuStats::frees},
    {"kernels_launched", &GpuStats::kernels_launched},
    {"consolidated_kernels", &GpuStats::consolidated_kernels},
    {"bytes_to_device", &GpuStats::bytes_to_device},
    {"bytes_from_device", &GpuStats::bytes_from_device},
    {"failed_ops", &GpuStats::failed_ops},
    {"compute_busy_seconds", &GpuStats::compute_busy_seconds},
    {"copy_busy_seconds", &GpuStats::copy_busy_seconds},
});

class SimGpu {
 public:
  SimGpu(GpuId id, GpuSpec spec, SimParams params, vt::Domain& dom);

  GpuId id() const { return id_; }
  const GpuSpec& spec() const { return spec_; }
  const SimParams& params() const { return params_; }

  // ---- Memory management -------------------------------------------------
  Result<DevicePtr> malloc(u64 size);
  Status free(DevicePtr ptr);

  /// Transfer host->device. `dst` may point into the interior of an
  /// allocation. Blocks the caller for the modeled PCIe time.
  Status copy_to_device(DevicePtr dst, std::span<const std::byte> src);
  /// Asynchronous host->device transfer: places the bytes in device memory
  /// immediately (staging snapshot), reserves the copy engine for the
  /// modeled PCIe time, and returns the virtual completion time without
  /// blocking. The mirror of copy_from_device_async -- the page-in overlap
  /// behind the paged engine's prefetch path. Consumers of the device copy
  /// fence on the returned completion point.
  Result<vt::TimePoint> copy_to_device_async(DevicePtr dst, std::span<const std::byte> src);
  /// Transfer device->host.
  Status copy_from_device(std::span<std::byte> dst, DevicePtr src, u64 size);
  /// Asynchronous device->host transfer: copies the bytes into `dst`
  /// immediately (staging snapshot), reserves the copy engine for the
  /// modeled PCIe time, and returns the virtual completion time *without*
  /// blocking the caller. The caller decides when (or whether) to await the
  /// drain -- the write-back overlap behind the runtime's async swap path.
  Result<vt::TimePoint> copy_from_device_async(std::span<std::byte> dst, DevicePtr src,
                                               u64 size);
  /// Device->device copy within this GPU.
  Status copy_device_to_device(DevicePtr dst, DevicePtr src, u64 size);

  /// Direct GPU-to-GPU transfer (CUDA 4.0 peer access): pulls `size` bytes
  /// from `src` on `peer` into `dst` on this device over one PCIe hop,
  /// occupying this device's copy engine. Both devices must be healthy.
  Status copy_from_peer(DevicePtr dst, SimGpu& peer, DevicePtr src, u64 size);

  /// Zero-cost accessors used by the test harness to verify device state
  /// without perturbing modeled time.
  Status peek(std::span<std::byte> dst, DevicePtr src, u64 size) const;
  Status poke(DevicePtr dst, std::span<const std::byte> src);

  // ---- Execution ----------------------------------------------------------
  /// Runs a kernel: resolves DevPtr args to backing spans, executes the
  /// body, and occupies the compute engine for the modeled duration (FCFS
  /// across callers). Blocks the caller until virtual completion.
  Status launch(const KernelDef& def, const LaunchConfig& config,
                const std::vector<KernelArg>& args);

  // ---- Introspection ------------------------------------------------------
  u64 capacity_bytes() const { return spec_.memory_bytes; }
  u64 free_bytes() const;
  u64 used_bytes() const;
  u64 largest_free_block() const;
  /// Number of live (allocated, not yet freed) blocks. Chaos invariant
  /// checks compare this against the memory manager's resident entries.
  u64 live_allocation_count() const;
  GpuStats stats() const;

  /// True if `ptr` points within a live allocation.
  bool valid_pointer(DevicePtr ptr) const;

  // ---- Failure injection / lifecycle --------------------------------------
  /// Marks the device failed: every subsequent operation returns
  /// ErrorDeviceUnavailable. Mimics an ECC/driver fault. Idempotent: only
  /// the first call logs and counts (concurrent ops may race into it).
  void inject_failure();
  /// Fails the device automatically after `n` further costed operations:
  /// ops 1..n succeed, op n+1 fires the failure. The countdown is claimed
  /// with a CAS so concurrent ops cannot double-fire or over-consume it.
  void fail_after_ops(u64 n);
  /// Allocation-failure pulse: the next `n` mallocs return
  /// ErrorMemoryAllocation without touching the allocator (transient
  /// memory pressure; the runtime's eviction/backoff path absorbs it).
  void fail_next_allocs(u64 n);
  /// Hot-removal: same observable effect as failure, different intent.
  void mark_removed();
  bool healthy() const { return !failed_.load(std::memory_order_acquire); }

  /// Invoked (outside all device locks) when an armed fail_after_ops
  /// countdown fires, so the owning machine can update its topology view --
  /// a real driver surfaces a device fault as an event, not only as an
  /// error code on the tripping op. Direct inject_failure() calls bypass it
  /// on purpose (tests inject behind the machine's back to prove the
  /// invariant checker can detect the inconsistency). Install before
  /// sharing the device across threads.
  void set_self_failure_callback(std::function<void(GpuId)> cb) {
    on_self_failure_ = std::move(cb);
  }

  /// Invoked after every successful malloc and free, on the allocating
  /// thread and outside the device's locks: free_bytes() changed. The
  /// owning machine installs it (SimMachine::subscribe_memory). Install
  /// before sharing the device across threads.
  void set_memory_callback(std::function<void()> cb) { on_memory_change_ = std::move(cb); }

 private:
  struct Block {
    std::vector<std::byte> data;
  };

  /// A resource occupied in virtual time. Callers compute their completion
  /// time under the engine lock and then sleep until it. With slots == 1
  /// reservations serialize FCFS (CUDA 3.2 cross-context behaviour); with
  /// slots > 1 up to that many reservations co-run, each stretched by the
  /// interference factor per co-runner at admission (kernel consolidation).
  class Engine {
   public:
    explicit Engine(vt::Domain& dom) : dom_(&dom) {}

    /// Reserves the engine for `dur`; returns the virtual completion time.
    /// `co_ran` (optional) reports whether the reservation overlapped an
    /// existing one; `start_out` (optional) reports the admission time --
    /// the span [start_out, returned completion) is the modeled engine
    /// occupancy, which is what the trace recorder captures.
    vt::TimePoint occupy(vt::Duration dur, int slots = 1,
                         double interference = 0.0, bool* co_ran = nullptr,
                         vt::TimePoint* start_out = nullptr) {
      std::scoped_lock lock(mu_);
      const vt::TimePoint now = dom_->now();
      // Drop windows that ended in the past.
      windows_.erase(std::remove_if(windows_.begin(), windows_.end(),
                                    [&](const Window& w) { return w.end <= now; }),
                     windows_.end());
      // Find the earliest admission time with a free slot.
      vt::TimePoint start = now;
      for (;;) {
        int overlapping = 0;
        vt::TimePoint earliest_end = vt::TimePoint::max();
        for (const Window& w : windows_) {
          if (w.start <= start && start < w.end) {
            ++overlapping;
            earliest_end = std::min(earliest_end, w.end);
          }
        }
        if (overlapping < std::max(slots, 1)) {
          const double stretch = 1.0 + interference * overlapping;
          const auto stretched = vt::Duration{
              static_cast<std::int64_t>(static_cast<double>(dur.count()) * stretch)};
          windows_.push_back({start, start + stretched});
          busy_ += stretched;
          if (co_ran != nullptr) *co_ran = overlapping > 0;
          if (start_out != nullptr) *start_out = start;
          return start + stretched;
        }
        start = earliest_end;
      }
    }

    vt::Duration busy_total() const {
      std::scoped_lock lock(mu_);
      return busy_;
    }

   private:
    struct Window {
      vt::TimePoint start;
      vt::TimePoint end;
    };

    mutable std::mutex mu_;
    vt::Domain* dom_;
    std::vector<Window> windows_;
    vt::Duration busy_{};
  };

  // Locates the block containing `addr`; returns nullptr when invalid.
  // Caller must hold mem_mu_.
  Block* locate_locked(DevicePtr addr, u64* offset);
  const Block* locate_locked(DevicePtr addr, u64* offset) const;

  Status check_healthy_and_count();

  GpuId id_;
  GpuSpec spec_;
  SimParams params_;
  vt::Domain* dom_;

  mutable std::mutex mem_mu_;   // guards allocator_, blocks_, stats_
  AddressSpaceAllocator allocator_;
  std::map<DevicePtr, std::unique_ptr<Block>> blocks_;
  GpuStats stats_;

  Engine compute_;
  Engine copy_;

  std::atomic<bool> failed_{false};
  // Remaining op budget + 1; the 1 -> 0 transition fires the failure.
  // <0 = disarmed. Only ever decremented through a CAS that claims one
  // unit, so exactly one op observes the firing transition.
  std::atomic<i64> fail_countdown_{-1};
  std::atomic<i64> alloc_fault_countdown_{0};  // pending forced malloc failures
  std::function<void(GpuId)> on_self_failure_;
  std::function<void()> on_memory_change_;
};

}  // namespace gpuvm::sim

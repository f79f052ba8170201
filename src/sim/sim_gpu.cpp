#include "sim/sim_gpu.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::sim {

namespace {
// Device address spaces start at a nonzero base so 0 stays a null pointer;
// each GPU gets a distinct base so cross-device pointer mixups are caught.
constexpr u64 kAddressStride = 1ull << 40;

obs::Histogram& kernel_seconds_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kGpuKernelSeconds, obs::default_seconds_edges());
  return h;
}

obs::Histogram& transfer_bytes_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kGpuTransferBytes, obs::default_bytes_edges());
  return h;
}

}  // namespace

SimGpu::SimGpu(GpuId id, GpuSpec spec, SimParams params, vt::Domain& dom)
    : id_(id),
      spec_(std::move(spec)),
      params_(params),
      dom_(&dom),
      allocator_(kAddressStride * id.value, spec_.memory_bytes / 256 * 256),
      compute_(dom),
      copy_(dom) {
  if (obs::TraceRecorder* tr = obs::tracer()) {
    tr->set_process_name(id_.value,
                         "GPU " + std::to_string(id_.value) + " (" + spec_.model + ")");
    tr->set_thread_name(id_.value, obs::kComputeEngineTid, "compute engine");
    tr->set_thread_name(id_.value, obs::kCopyEngineTid, "copy engine");
  }
}

Status SimGpu::check_healthy_and_count() {
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  // Claim one unit of the armed countdown with a CAS. A plain fetch_sub
  // double-fired under concurrency: several racing ops could each observe a
  // negative result and call inject_failure(), and the counter drifted ever
  // more negative, which a later fail_after_ops() could misread. With the
  // CAS, exactly one op wins the 1 -> 0 transition and fires.
  i64 cur = fail_countdown_.load(std::memory_order_acquire);
  while (cur > 0) {
    if (fail_countdown_.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      if (cur == 1) {
        inject_failure();
        // Surface the self-failure to the owning machine (topology update +
        // listener fan-out). No device lock is held here.
        if (on_self_failure_) on_self_failure_(id_);
        return Status::ErrorDeviceUnavailable;
      }
      return Status::Ok;
    }
  }
  // cur == 0: the budget is exhausted and some op is firing (or has fired)
  // the failure; this op must not succeed after it.
  if (cur == 0) return Status::ErrorDeviceUnavailable;
  return Status::Ok;  // disarmed
}

Result<DevicePtr> SimGpu::malloc(u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  // Allocation-failure pulse (chaos injection): claim one forced failure.
  i64 pending = alloc_fault_countdown_.load(std::memory_order_acquire);
  while (pending > 0) {
    if (alloc_fault_countdown_.compare_exchange_weak(
            pending, pending - 1, std::memory_order_acq_rel, std::memory_order_acquire)) {
      std::scoped_lock lock(mem_mu_);
      ++stats_.alloc_faults;
      return Status::ErrorMemoryAllocation;
    }
  }
  std::optional<u64> addr;
  {
    std::scoped_lock lock(mem_mu_);
    addr = allocator_.allocate(size);
    if (!addr.has_value()) return Status::ErrorMemoryAllocation;
    auto block = std::make_unique<Block>();
    block->data.resize(allocator_.allocation_size(*addr).value());
    blocks_.emplace(*addr, std::move(block));
    ++stats_.mallocs;
  }
  if (on_memory_change_) on_memory_change_();
  return *addr;
}

Status SimGpu::free(DevicePtr ptr) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  {
    std::scoped_lock lock(mem_mu_);
    if (!allocator_.release(ptr)) return Status::ErrorInvalidDevicePointer;
    blocks_.erase(ptr);
    ++stats_.frees;
  }
  if (on_memory_change_) on_memory_change_();
  return Status::Ok;
}

SimGpu::Block* SimGpu::locate_locked(DevicePtr addr, u64* offset) {
  return const_cast<Block*>(std::as_const(*this).locate_locked(addr, offset));
}

const SimGpu::Block* SimGpu::locate_locked(DevicePtr addr, u64* offset) const {
  auto it = blocks_.upper_bound(addr);
  if (it == blocks_.begin()) return nullptr;
  --it;
  const u64 start = it->first;
  const u64 size = it->second->data.size();
  if (addr < start || addr >= start + size) return nullptr;
  *offset = addr - start;
  return it->second.get();
}

Status SimGpu::copy_to_device(DevicePtr dst, std::span<const std::byte> src) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  {
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    Block* block = locate_locked(dst, &offset);
    if (block == nullptr) return Status::ErrorInvalidDevicePointer;
    if (offset + src.size() > block->data.size()) return Status::ErrorInvalidValue;
    std::memcpy(block->data.data() + offset, src.data(), src.size());
    stats_.bytes_to_device += src.size();
  }
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, src.size()), 1, 0.0, nullptr, &start);
  obs::emit_span("h2d", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0,
                 src.size());
  transfer_bytes_hist().observe(static_cast<double>(src.size()));
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;  // failed mid-transfer
  return Status::Ok;
}

Result<vt::TimePoint> SimGpu::copy_to_device_async(DevicePtr dst,
                                                   std::span<const std::byte> src) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  {
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    Block* block = locate_locked(dst, &offset);
    if (block == nullptr) return Status::ErrorInvalidDevicePointer;
    if (offset + src.size() > block->data.size()) return Status::ErrorInvalidValue;
    std::memcpy(block->data.data() + offset, src.data(), src.size());
    stats_.bytes_to_device += src.size();
  }
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, src.size()), 1, 0.0, nullptr, &start);
  obs::emit_span("h2d-async", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0,
                 src.size());
  transfer_bytes_hist().observe(static_cast<double>(src.size()));
  return done;  // no sleep: the caller overlaps the page-in
}

Status SimGpu::copy_from_device(std::span<std::byte> dst, DevicePtr src, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (dst.size() < size) return Status::ErrorInvalidValue;
  {
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    const Block* block = locate_locked(src, &offset);
    if (block == nullptr) return Status::ErrorInvalidDevicePointer;
    if (offset + size > block->data.size()) return Status::ErrorInvalidValue;
    std::memcpy(dst.data(), block->data.data() + offset, size);
    stats_.bytes_from_device += size;
  }
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, size), 1, 0.0, nullptr, &start);
  obs::emit_span("d2h", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0, size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  return Status::Ok;
}

Result<vt::TimePoint> SimGpu::copy_from_device_async(std::span<std::byte> dst, DevicePtr src,
                                                     u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (dst.size() < size) return Status::ErrorInvalidValue;
  {
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    const Block* block = locate_locked(src, &offset);
    if (block == nullptr) return Status::ErrorInvalidDevicePointer;
    if (offset + size > block->data.size()) return Status::ErrorInvalidValue;
    std::memcpy(dst.data(), block->data.data() + offset, size);
    stats_.bytes_from_device += size;
  }
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, size), 1, 0.0, nullptr, &start);
  obs::emit_span("d2h-async", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0,
                 size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  return done;  // no sleep: the caller overlaps the drain
}

Status SimGpu::copy_device_to_device(DevicePtr dst, DevicePtr src, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  {
    std::scoped_lock lock(mem_mu_);
    u64 src_off = 0;
    u64 dst_off = 0;
    const Block* sblock = locate_locked(src, &src_off);
    Block* dblock = locate_locked(dst, &dst_off);
    if (sblock == nullptr || dblock == nullptr) return Status::ErrorInvalidDevicePointer;
    if (src_off + size > sblock->data.size() || dst_off + size > dblock->data.size()) {
      return Status::ErrorInvalidValue;
    }
    std::memmove(dblock->data.data() + dst_off, sblock->data.data() + src_off, size);
  }
  // On-device copies run at device-memory bandwidth (read + write).
  const double seconds = 2.0 * static_cast<double>(size) *
                         static_cast<double>(params_.mem_scale) /
                         (spec_.mem_bandwidth_gbs * 1e9);
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(vt::from_seconds(seconds), 1, 0.0, nullptr, &start);
  obs::emit_span("d2d", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0, size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  return Status::Ok;
}

Status SimGpu::copy_from_peer(DevicePtr dst, SimGpu& peer, DevicePtr src, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (!peer.healthy()) return Status::ErrorDeviceUnavailable;
  {
    // Pull the bytes: read from the peer's backing, write into ours.
    std::vector<std::byte> staging(size);
    if (const Status s = peer.peek(staging, src, size); !ok(s)) return s;
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    Block* block = locate_locked(dst, &offset);
    if (block == nullptr) return Status::ErrorInvalidDevicePointer;
    if (offset + size > block->data.size()) return Status::ErrorInvalidValue;
    std::memcpy(block->data.data() + offset, staging.data(), size);
  }
  // One DMA hop at PCIe speed (GPUDirect peer-to-peer), vs. two for a
  // bounce through host memory.
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, size), 1, 0.0, nullptr, &start);
  obs::emit_span("peer", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0, size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  return Status::Ok;
}

Status SimGpu::peek(std::span<std::byte> dst, DevicePtr src, u64 size) const {
  std::scoped_lock lock(mem_mu_);
  u64 offset = 0;
  const Block* block = locate_locked(src, &offset);
  if (block == nullptr) return Status::ErrorInvalidDevicePointer;
  if (offset + size > block->data.size() || dst.size() < size) return Status::ErrorInvalidValue;
  std::memcpy(dst.data(), block->data.data() + offset, size);
  return Status::Ok;
}

Status SimGpu::poke(DevicePtr dst, std::span<const std::byte> src) {
  std::scoped_lock lock(mem_mu_);
  u64 offset = 0;
  Block* block = locate_locked(dst, &offset);
  if (block == nullptr) return Status::ErrorInvalidDevicePointer;
  if (offset + src.size() > block->data.size()) return Status::ErrorInvalidValue;
  std::memcpy(block->data.data() + offset, src.data(), src.size());
  return Status::Ok;
}

Status SimGpu::launch(const KernelDef& def, const LaunchConfig& config,
                      const std::vector<KernelArg>& args) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (config.grid.total() == 0 || config.block.total() == 0 ||
      config.block.total() > 1024) {
    return Status::ErrorInvalidConfiguration;
  }

  // Resolve device-pointer arguments to backing spans.
  std::vector<std::span<std::byte>> buffers(args.size());
  {
    std::scoped_lock lock(mem_mu_);
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_dev_ptr()) continue;
      u64 offset = 0;
      Block* block = locate_locked(args[i].as_ptr(), &offset);
      if (block == nullptr) return Status::ErrorInvalidDevicePointer;
      buffers[i] = std::span<std::byte>(block->data).subspan(offset);
    }
    ++stats_.kernels_launched;
  }

  // Execute the real math. Contexts never share allocations (isolation is
  // what the runtime under test provides), so disjoint blocks make this
  // safe to run outside mem_mu_ while other contexts allocate.
  KernelExecContext::Resolver resolver = [this](DevicePtr ptr) -> std::span<std::byte> {
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    Block* block = locate_locked(ptr, &offset);
    if (block == nullptr) return {};
    return std::span<std::byte>(block->data).subspan(offset);
  };
  KernelExecContext ctx(config, args, std::move(buffers), std::move(resolver));
  const Status body_status =
      (def.body && params_.execute_kernel_bodies) ? def.body(ctx) : Status::Ok;
  if (!ok(body_status)) {
    std::scoped_lock lock(mem_mu_);
    ++stats_.failed_ops;
    return body_status;
  }

  const KernelCost cost = def.cost ? def.cost(config, args) : KernelCost{};
  bool co_ran = false;
  vt::TimePoint start{};
  const vt::TimePoint done =
      compute_.occupy(kernel_time(spec_, cost), spec_.max_concurrent_kernels,
                      spec_.consolidation_interference, &co_ran, &start);
  obs::emit_span(def.name, "kernel", id_.value, obs::kComputeEngineTid, start, done - start);
  kernel_seconds_hist().observe(vt::to_seconds(done - start));
  dom_->sleep_until(done);
  if (co_ran) {
    std::scoped_lock lock(mem_mu_);
    ++stats_.consolidated_kernels;
  }
  if (!healthy()) return Status::ErrorDeviceUnavailable;  // failed mid-kernel
  return Status::Ok;
}

u64 SimGpu::free_bytes() const {
  std::scoped_lock lock(mem_mu_);
  return allocator_.free_bytes();
}

u64 SimGpu::used_bytes() const {
  std::scoped_lock lock(mem_mu_);
  return allocator_.used_bytes();
}

u64 SimGpu::largest_free_block() const {
  std::scoped_lock lock(mem_mu_);
  return allocator_.largest_free_block();
}

u64 SimGpu::live_allocation_count() const {
  std::scoped_lock lock(mem_mu_);
  return blocks_.size();
}

GpuStats SimGpu::stats() const {
  GpuStats out;
  {
    std::scoped_lock lock(mem_mu_);
    out = stats_;
  }
  out.compute_busy_seconds = vt::to_seconds(compute_.busy_total());
  out.copy_busy_seconds = vt::to_seconds(copy_.busy_total());
  return out;
}

bool SimGpu::valid_pointer(DevicePtr ptr) const {
  std::scoped_lock lock(mem_mu_);
  u64 offset = 0;
  return locate_locked(ptr, &offset) != nullptr;
}

void SimGpu::inject_failure() {
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;  // already failed
  {
    std::scoped_lock lock(mem_mu_);
    ++stats_.injected_failures;
  }
  log::info("GPU %llu (%s) failed", static_cast<unsigned long long>(id_.value),
            spec_.model.c_str());
}

void SimGpu::fail_after_ops(u64 n) {
  // Stored as budget + 1 so the CAS in check_healthy_and_count fires on the
  // 1 -> 0 transition: ops 1..n succeed, op n+1 fails the device.
  fail_countdown_.store(static_cast<i64>(n) + 1, std::memory_order_release);
}

void SimGpu::fail_next_allocs(u64 n) {
  alloc_fault_countdown_.store(static_cast<i64>(n), std::memory_order_release);
}

void SimGpu::mark_removed() { failed_.store(true, std::memory_order_release); }

}  // namespace gpuvm::sim

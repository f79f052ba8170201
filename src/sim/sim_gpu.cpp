#include "sim/sim_gpu.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

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

SimGpu::~SimGpu() {
  if (region_ == nullptr) return;
  // Under ASan freed ranges are poisoned, and the shadow outlives the
  // mapping: clear it over every byte ever allocated before unmapping.
  ASAN_UNPOISON_MEMORY_REGION(region_, region_high_water_);
  munmap(region_, allocator_.capacity());
}

void SimGpu::Block::zero_unwritten(u64 offset, u64 n) {
  if (unwritten.empty()) return;
  for (const ByteRange& r : unwritten.ranges()) {
    const u64 begin = std::max(r.begin, offset);
    const u64 end = std::min(r.end, offset + n);
    if (begin < end) std::memset(data + begin, 0, end - begin);
  }
  unwritten.erase(offset, offset + n);  // now zero, as it read before: no new generation
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
    if (region_ == nullptr) {
      // Lazily, so a deployment pays for the mapping only once it allocates;
      // untouched pages cost nothing until a read or write reaches them.
      void* region = mmap(nullptr, allocator_.capacity(), PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (region == MAP_FAILED) {
        (void)allocator_.release(*addr);
        return Status::ErrorMemoryAllocation;
      }
      region_ = static_cast<std::byte*>(region);
    }
    const u64 offset = *addr - allocator_.base();
    Block block;
    block.data = region_ + offset;
    block.size = allocator_.allocation_size(*addr).value();
    block.unwritten.add(0, block.size);
    region_high_water_ = std::max(region_high_water_, offset + block.size);
    ASAN_UNPOISON_MEMORY_REGION(block.data, block.size);
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
    const auto it = blocks_.find(ptr);
    // Freed bytes stay poisoned under ASan until they are allocated again,
    // so a kernel or copy through a stale pointer trips the sanitizer.
    // Only freed ranges are poisoned: shadowing the whole region would cost
    // an eighth of the device's capacity.
    ASAN_POISON_MEMORY_REGION(it->second.data, it->second.size);
    blocks_.erase(it);
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
  if (addr < start || addr - start >= it->second.size) return nullptr;
  *offset = addr - start;
  return &it->second;
}

Status SimGpu::write_locked(DevicePtr dst, std::span<const std::byte> src) {
  u64 offset = 0;
  Block* block = locate_locked(dst, &offset);
  if (block == nullptr) return Status::ErrorInvalidDevicePointer;
  if (src.size() > block->size - offset) return Status::ErrorInvalidValue;
  std::memcpy(block->data + offset, src.data(), src.size());
  block->wrote(offset, src.size(), ++writes_);
  return Status::Ok;
}

Status SimGpu::read_locked(std::span<std::byte> dst, DevicePtr src, u64 size) {
  u64 offset = 0;
  Block* block = locate_locked(src, &offset);
  if (block == nullptr) return Status::ErrorInvalidDevicePointer;
  if (size > block->size - offset || dst.size() < size) return Status::ErrorInvalidValue;
  block->zero_unwritten(offset, size);
  std::memcpy(dst.data(), block->data + offset, size);
  return Status::Ok;
}

Status SimGpu::copy_locked(DevicePtr dst, SimGpu& from, DevicePtr src, u64 size) {
  u64 src_off = 0;
  u64 dst_off = 0;
  Block* sblock = from.locate_locked(src, &src_off);
  Block* dblock = locate_locked(dst, &dst_off);
  if (sblock == nullptr || dblock == nullptr) return Status::ErrorInvalidDevicePointer;
  if (size > sblock->size - src_off || size > dblock->size - dst_off) {
    return Status::ErrorInvalidValue;
  }
  sblock->zero_unwritten(src_off, size);
  std::memmove(dblock->data + dst_off, sblock->data + src_off, size);
  dblock->wrote(dst_off, size, ++writes_);
  return Status::Ok;
}

Status SimGpu::copy_to_device(DevicePtr dst, std::span<const std::byte> src) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  {
    std::scoped_lock lock(mem_mu_);
    if (const Status s = write_locked(dst, src); !ok(s)) return s;
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
    if (const Status s = write_locked(dst, src); !ok(s)) return s;
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
    if (const Status s = read_locked(dst, src, size); !ok(s)) return s;
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
    if (const Status s = read_locked(dst, src, size); !ok(s)) return s;
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
    if (const Status s = copy_locked(dst, *this, src, size); !ok(s)) return s;
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
    // Pull the bytes straight from the peer's region into ours. Both locks
    // at once, deadlock-free, since two devices may pull from each other.
    std::scoped_lock lock(mem_mu_, peer.mem_mu_);
    if (const Status s = copy_locked(dst, peer, src, size); !ok(s)) return s;
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

Status SimGpu::peek(std::span<std::byte> dst, DevicePtr src, u64 size) {
  std::scoped_lock lock(mem_mu_);
  return read_locked(dst, src, size);
}

Status SimGpu::poke(DevicePtr dst, std::span<const std::byte> src) {
  std::scoped_lock lock(mem_mu_);
  return write_locked(dst, src);
}

Status SimGpu::launch(const KernelDef& def, const LaunchConfig& config,
                      const std::vector<KernelArg>& args) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (config.grid.total() == 0 || config.block.total() == 0 ||
      config.block.total() > 1024) {
    return Status::ErrorInvalidConfiguration;
  }

  // Resolve device-pointer arguments to backing spans, and decide whether
  // the body runs. A body run may write every allocation it is handed, so
  // each moves to a new write number before the body starts; a launch that
  // repeats the last run over allocations still at the numbers that run
  // left keeps its result instead.
  const bool run_body = def.body && params_.execute_kernel_bodies;
  std::vector<std::span<std::byte>> buffers(args.size());
  std::vector<u64> generations;  // each pointer argument's
  bool reused = false;
  {
    std::scoped_lock lock(mem_mu_);
    std::vector<Block*> blocks;
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_dev_ptr()) continue;
      u64 offset = 0;
      Block* block = locate_locked(args[i].as_ptr(), &offset);
      if (block == nullptr) return Status::ErrorInvalidDevicePointer;
      // The body may read anything from the pointer to the allocation's end.
      block->zero_unwritten(offset, block->size - offset);
      buffers[i] = std::span<std::byte>(block->data + offset, block->size - offset);
      blocks.push_back(block);
      generations.push_back(block->generation);
    }
    ++stats_.kernels_launched;
    // Only an idempotent kernel's runs are recorded (record_run_locked).
    reused = run_body && !blocks.empty() && blocks.front()->last_run &&
             blocks.front()->last_run->matches(def, config, args, generations);
    if (reused) {
      ++stats_.reused_kernels;
    } else if (run_body) {
      // Two arguments in one allocation: the later number overwrites the
      // earlier one's, so record_run_locked refuses the run.
      for (size_t k = 0; k < blocks.size(); ++k) blocks[k]->generation = generations[k] = ++writes_;
    }
  }

  if (run_body && !reused) {
    // Execute the real math. Contexts never share allocations (isolation is
    // what the runtime under test provides), so disjoint blocks make this
    // safe to run outside mem_mu_ while other contexts allocate. What the
    // body reaches through a nested pointer is outside the run's record: it
    // moves to a new write number, and the run is not kept.
    bool dereferenced = false;
    KernelExecContext::Resolver resolver = [this, &dereferenced](DevicePtr ptr) {
      std::scoped_lock lock(mem_mu_);
      dereferenced = true;
      u64 offset = 0;
      Block* block = locate_locked(ptr, &offset);
      if (block == nullptr) return std::span<std::byte>{};
      block->zero_unwritten(offset, block->size - offset);
      block->generation = ++writes_;
      return std::span<std::byte>(block->data + offset, block->size - offset);
    };
    KernelExecContext ctx(config, args, std::move(buffers), std::move(resolver));
    const Status body_status = def.body(ctx);
    std::scoped_lock lock(mem_mu_);
    if (!ok(body_status)) {
      ++stats_.failed_ops;
      return body_status;
    }
    if (def.idempotent && !dereferenced) {
      record_run_locked(def, config, args, std::move(generations));
    }
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

void SimGpu::record_run_locked(const KernelDef& def, const LaunchConfig& config,
                               const std::vector<KernelArg>& args,
                               std::vector<u64> generations) {
  Block* first = nullptr;
  size_t k = 0;
  for (const KernelArg& arg : args) {
    if (!arg.is_dev_ptr()) continue;
    u64 offset = 0;
    Block* block = locate_locked(arg.as_ptr(), &offset);
    if (block == nullptr || block->generation != generations[k++]) return;
    if (first == nullptr) first = block;
  }
  std::weak_ptr<const KernelDef> owner = def.weak_from_this();
  if (first == nullptr || owner.expired()) return;
  first->last_run = std::make_unique<KernelRun>(
      KernelRun{std::move(owner), config, args, std::move(generations)});
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

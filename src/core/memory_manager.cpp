#include "core/memory_manager.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <set>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::core {

namespace {

/// Transfer consolidation on the swap path: dirty ranges separated by a
/// clean gap of at most this many bytes ship as one transfer, trading a few
/// redundant bytes for one less per-transfer PCIe latency.
constexpr u64 kCoalesceGapBytes = 4096;

/// Modeled charge per TLB miss on the paged prepare_launch path (ns).
constexpr u64 kTlbMissNs = 600;

obs::Histogram& swap_bytes_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kMmSwapBytes, obs::default_bytes_edges());
  return h;
}

obs::Histogram& bulk_h2d_bytes_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kMmBulkH2dBytes, obs::default_bytes_edges());
  return h;
}

obs::Histogram& page_fault_seconds_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kMmPageFaultSeconds, obs::default_seconds_edges());
  return h;
}

/// Sizes an entry's swap area; false when the host cannot back `size`
/// bytes. A size beyond max_size() (2^63 and up) is refused up front:
/// resize() would throw length_error, which is not an allocation failure.
bool resize_swap(std::vector<std::byte>& swap, u64 size) {
  if (size > swap.max_size()) return false;
  try {
    swap.resize(size);
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

/// Capacity of the machine's largest device, installed ever: a decoded
/// checkpoint entry beyond it could never materialize on this node.
u64 largest_device_bytes(const sim::SimMachine& machine) {
  u64 largest = 0;
  for (const GpuId id : machine.all_gpus()) {
    if (const sim::SimGpu* dev = machine.gpu(id); dev != nullptr) {
      largest = std::max(largest, dev->capacity_bytes());
    }
  }
  return largest;
}

/// Vets one decoded image or delta entry before its swap area is sized: an
/// entry larger than the largest device is refused with
/// ErrorSwapAllocation, one whose address range wraps with `malformed`
/// (the decoder's status for a bad frame).
Status check_decoded_entry(VirtualPtr vptr, u64 size, u64 largest, Status malformed) {
  if (size > largest) return Status::ErrorSwapAllocation;
  if (vptr + size < vptr) return malformed;
  return Status::Ok;
}

}  // namespace

MemoryManager::MemoryManager(cudart::CudaRt& rt, Config config) : rt_(&rt), config_(config) {
  if (config_.page_bytes == 0) config_.page_bytes = 64 * 1024;
}

void MemoryManager::add_context(ContextId ctx) {
  auto mem = std::make_shared<CtxMem>();
  mem->self = ctx;
  if (config_.paging) {
    // Per-context policy instances: stateful prefetchers learn one
    // tenant's access pattern, never a neighbour's. Unknown names fall
    // back to the defaults (the config is validated at the CLI boundary;
    // here a typo must not strand a context without a victim ranking).
    auto evict = make_eviction_policy(config_.eviction_policy);
    mem->evict = evict ? std::move(evict).value() : make_eviction_policy("page-lru").value();
    auto prefetch = make_prefetch_policy(config_.prefetch_policy);
    mem->prefetch = prefetch ? std::move(prefetch).value() : make_prefetch_policy("none").value();
  }
  contexts_.emplace(ctx, std::move(mem));
}

void MemoryManager::remove_context(ContextId ctx) {
  CtxMemPtr mem = contexts_.take(ctx);
  if (mem == nullptr) return;
  ctx_lru_remove(*mem);  // before the CtxMem dies: the directory holds raw pointers
  // Free device allocations; swap buffers die with the map. Uncosted free
  // path (like a process teardown). In-flight write-back drains are moot:
  // the data is discarded, nothing will read it.
  for (auto& [vptr, pte] : mem->entries) {
    if (pte->is_allocated) (void)rt_->free(pte->owner_client, pte->device_ptr);
  }
}

MemoryManager::CtxMemPtr MemoryManager::find(ContextId ctx) const {
  return contexts_.find(ctx);
}

MemoryManager::Located MemoryManager::locate(CtxMem& mem, VirtualPtr ptr) {
  if (ptr == kNullVirtualPtr || mem.entries.empty()) return {};
  auto it = mem.entries.upper_bound(ptr);
  if (it == mem.entries.begin()) return {};
  --it;
  PageTableEntry* pte = it->second.get();
  if (ptr < pte->virtual_ptr || ptr >= pte->virtual_ptr + pte->size) return {};
  return {pte, ptr - pte->virtual_ptr};
}

void MemoryManager::lru_touch(CtxMem& mem, PageTableEntry& pte, vt::TimePoint stamp) {
  mem.lru.erase({pte.last_use.count(), pte.virtual_ptr});
  pte.last_use = stamp;
  mem.lru[{stamp.count(), pte.virtual_ptr}] = &pte;
}

void MemoryManager::lru_remove(CtxMem& mem, PageTableEntry& pte) {
  mem.lru.erase({pte.last_use.count(), pte.virtual_ptr});
}

void MemoryManager::ctx_lru_touch(CtxMem& mem, u64 gpu, i64 now_ns) const {
  std::scoped_lock lk(ctx_lru_.mu);
  const u64 id = mem.self.value;
  const std::tuple<u64, i64, u64> key{gpu, now_ns, id};
  auto w = ctx_lru_.where.find(id);
  if (w != ctx_lru_.where.end()) {
    if (w->second == key) return;
    ctx_lru_.order.erase(w->second);
    w->second = key;
  } else {
    w = ctx_lru_.where.emplace(id, key).first;
  }
  ctx_lru_.order.emplace(key, &mem);
}

void MemoryManager::ctx_lru_remove(CtxMem& mem) const {
  std::scoped_lock lk(ctx_lru_.mu);
  auto w = ctx_lru_.where.find(mem.self.value);
  if (w == ctx_lru_.where.end()) return;
  ctx_lru_.order.erase(w->second);
  ctx_lru_.where.erase(w);
}

std::vector<ByteRange> MemoryManager::writeback_ranges(const PageTableEntry& pte) const {
  if (!config_.incremental_swap) return {ByteRange{0, pte.size}};
  return pte.dev_dirty.coalesced(kCoalesceGapBytes);
}

std::vector<ByteRange> MemoryManager::upload_ranges(const PageTableEntry& pte) const {
  if (!config_.incremental_swap) return {ByteRange{0, pte.size}};
  return pte.host_dirty.coalesced(kCoalesceGapBytes);
}

StatusOr<VirtualPtr> MemoryManager::on_malloc(ContextId ctx, u64 size) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  if (size == 0) return Status::ErrorInvalidValue;

  auto pte = std::make_unique<PageTableEntry>();
  pte->size = size;
  // The swap area backs every allocation.
  if (!resize_swap(pte->swap, size)) return Status::ErrorSwapAllocation;

  // Virtual addresses come from a lock-free bump allocator. Spans are
  // 256-aligned multiples of 256 with a guard gap, so every address is
  // aligned and interior arithmetic never crosses into a neighbour.
  const u64 span = (std::max<u64>(size, 256) + 256 + 255) / 256 * 256;
  const VirtualPtr vptr = va_next_.fetch_add(span, std::memory_order_relaxed);
  if (vptr + span < vptr) return Status::ErrorNoVirtualAddress;  // wrapped
  pte->virtual_ptr = vptr;
  mem->entries.emplace(vptr, std::move(pte));
  mem->total_bytes.fetch_add(size, std::memory_order_relaxed);
  // A migration in flight must ship the new entry's metadata even if no
  // byte is ever written (an empty recorded set still serializes it).
  if (mem->epoch.active) mem->epoch.dirty[vptr];
  return vptr;
}

Status MemoryManager::on_copy_h2d(ContextId ctx, VirtualPtr dst, std::span<const std::byte> src,
                                  std::optional<ClientId> bound_client) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [pte, offset] = locate(*mem, dst);
  if (pte == nullptr) return Status::ErrorNoValidPte;
  if (offset + src.size() > pte->size) {
    bump(stats_.bounds_rejections);
    return Status::ErrorSwapSizeMismatch;  // caught before reaching the GPU
  }

  const bool eager = !config_.defer_transfers && bound_client.has_value() && pte->is_allocated;
  if (eager) {
    // Eager configuration: ship straight to the device (costed), keep the
    // swap copy in sync so later swaps are cheap reads.
    const Status s = rt_->memcpy_h2d(*bound_client, pte->device_ptr + offset, src);
    if (!ok(s)) return s;
    std::memcpy(pte->swap.data() + offset, src.data(), src.size());
    pte->to_copy_2_dev = false;
    pte->to_copy_2_swap = false;
    pte->swap_valid.add(offset, offset + src.size());
    pte->host_dirty.clear();  // device and swap are in sync again
    pte->dev_dirty.clear();
    epoch_mark(*mem, *pte, offset, offset + src.size());
    return Status::Ok;
  }

  // Deferred configuration (Table 1: "Move data to swap"): repeated writes
  // into one entry coalesce into a single bulk transfer at launch. A
  // *partial* write to an entry whose authoritative copy is dirty on the
  // device must pull the device copy into swap first -- otherwise the next
  // bulk transfer would overwrite the untouched part of the device data
  // with stale swap bytes.
  const bool partial = offset != 0 || src.size() != pte->size;
  if (partial && pte->to_copy_2_swap) {
    if (const Status s = sync_to_swap(*pte); !ok(s)) return s;
  }
  std::memcpy(pte->swap.data() + offset, src.data(), src.size());
  pte->to_copy_2_dev = true;
  pte->to_copy_2_swap = false;
  pte->dev_dirty.clear();  // partial: synced above; full: superseded by this write
  pte->swap_valid.add(offset, offset + src.size());
  if (pte->is_allocated) pte->host_dirty.add(offset, offset + src.size());
  epoch_mark(*mem, *pte, offset, offset + src.size());
  return Status::Ok;
}

Status MemoryManager::sync_to_swap(PageTableEntry& pte) {
  if (!pte.to_copy_2_swap) return Status::Ok;
  if (!pte.is_allocated) return Status::ErrorNoValidPte;
  // Incremental engine: ship only the kernel's write-set (consolidated
  // dev_dirty ranges); the naive baseline ships the whole entry.
  u64 moved = 0;
  for (const ByteRange& r : writeback_ranges(pte)) {
    const Status s = rt_->memcpy_d2h(pte.owner_client,
                                     std::span(pte.swap).subspan(r.begin, r.size()),
                                     pte.device_ptr + r.begin, r.size());
    if (!ok(s)) {
      if (s == Status::ErrorDeviceUnavailable) {
        // Device died with the only up-to-date copy: recover to the last
        // swap-consistent state (the implicit checkpoint).
        pte.to_copy_2_swap = false;
        pte.to_copy_2_dev = true;
        pte.dev_dirty.clear();
        pte.host_dirty = pte.swap_valid;  // everything re-uploads from swap
        return s;
      }
      return s;
    }
    moved += r.size();
    pte.swap_valid.add(r.begin, r.end);
  }
  pte.to_copy_2_swap = false;
  pte.dev_dirty.clear();
  bump(stats_.swap_out_bytes, moved);
  if (config_.incremental_swap) {
    bump(stats_.dirty_bytes_saved, pte.size - moved);
  }
  return Status::Ok;
}

void MemoryManager::fence_writeback(PageTableEntry& pte) {
  if (pte.writeback_done == vt::TimePoint{}) return;
  vt::Domain& dom = rt_->machine().domain();
  if (pte.writeback_done > dom.now()) {
    bump(stats_.writeback_fences);
    dom.sleep_until(pte.writeback_done);
  }
  pte.writeback_done = vt::TimePoint{};
}

void MemoryManager::fence_upload(PageTableEntry& pte) {
  if (pte.upload_done == vt::TimePoint{}) return;
  vt::Domain& dom = rt_->machine().domain();
  if (pte.upload_done > dom.now()) dom.sleep_until(pte.upload_done);
  pte.upload_done = vt::TimePoint{};
}

void MemoryManager::tlb_flush_entry(CtxMem& mem, const PageTableEntry& pte) {
  auto it = mem.tlb.slot.lower_bound({pte.virtual_ptr, 0});
  while (it != mem.tlb.slot.end() && it->first.first == pte.virtual_ptr) {
    mem.tlb.order.erase(it->second);
    it = mem.tlb.slot.erase(it);
  }
}

bool MemoryManager::tlb_access(CtxMem& mem, const PageTableEntry& pte, u64 page) {
  CtxMem::Tlb& tlb = mem.tlb;
  const std::pair<u64, u64> key{pte.virtual_ptr, page};
  const u64 tick = ++tlb.tick;
  if (const auto it = tlb.slot.find(key); it != tlb.slot.end()) {
    tlb.order.erase(it->second);
    it->second = tick;
    tlb.order.emplace(tick, key);
    return true;
  }
  if (config_.tlb_entries > 0 && tlb.slot.size() >= config_.tlb_entries) {
    const auto lru = tlb.order.begin();
    tlb.slot.erase(lru->second);
    tlb.order.erase(lru);
  }
  tlb.slot.emplace(key, tick);
  tlb.order.emplace(tick, key);
  return false;
}

u64 MemoryManager::page_count_of(const PageTableEntry& pte) const {
  return (pte.size + config_.page_bytes - 1) / config_.page_bytes;
}

void MemoryManager::stamp_pages(PageTableEntry& pte, const std::vector<u64>& pages,
                                i64 now_ns) {
  if (pages.empty()) return;
  const u64 count = page_count_of(pte);
  if (pte.page_use_ns.size() < count) pte.page_use_ns.resize(count, 0);
  for (const u64 p : pages) {
    if (p < pte.page_use_ns.size()) pte.page_use_ns[p] = now_ns;
  }
}

Status MemoryManager::on_copy_d2h(ContextId ctx, std::span<std::byte> dst, VirtualPtr src,
                                  u64 size) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [pte, offset] = locate(*mem, src);
  if (pte == nullptr) return Status::ErrorNoValidPte;
  if (offset + size > pte->size || dst.size() < size) {
    bump(stats_.bounds_rejections);
    return Status::ErrorSwapSizeMismatch;
  }
  // Table 1: "If (PTE.toCopy2Swap) cudaMemcpyDH" -- sync then serve from swap.
  if (const Status s = sync_to_swap(*pte); !ok(s)) return s;
  if (pte->to_copy_2_swap) return Status::ErrorNoValidPte;  // unreachable guard
  fence_writeback(*pte);  // an async eviction drain may still be in flight
  // Nested parents keep virtual pointers in their swap image; serve those.
  if (!pte->nested.empty()) rewrite_nested_to_virtual(*mem, *pte);
  std::memcpy(dst.data(), pte->swap.data() + offset, size);
  return Status::Ok;
}

Status MemoryManager::on_copy_d2d(ContextId ctx, VirtualPtr dst, VirtualPtr src, u64 size) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [spte, src_off] = locate(*mem, src);
  const auto [dpte, dst_off] = locate(*mem, dst);
  if (spte == nullptr || dpte == nullptr) return Status::ErrorNoValidPte;
  if (src_off + size > spte->size || dst_off + size > dpte->size) {
    bump(stats_.bounds_rejections);
    return Status::ErrorSwapSizeMismatch;
  }
  // Resolve the source's authoritative copy into swap, then stage the
  // destination write there: a deferred device-to-device copy costs no
  // device work at all unless either side was dirty on device (the
  // destination must sync too when the write is partial -- same stale-swap
  // hazard as partial host writes).
  if (const Status s = sync_to_swap(*spte); !ok(s)) return s;
  fence_writeback(*spte);  // reading the source's swap bytes
  const bool partial = dst_off != 0 || size != dpte->size;
  if (partial && dpte->to_copy_2_swap) {
    if (const Status s = sync_to_swap(*dpte); !ok(s)) return s;
  }
  std::memmove(dpte->swap.data() + dst_off, spte->swap.data() + src_off, size);
  dpte->to_copy_2_dev = true;
  dpte->to_copy_2_swap = false;
  dpte->dev_dirty.clear();
  dpte->swap_valid.add(dst_off, dst_off + size);
  if (dpte->is_allocated) dpte->host_dirty.add(dst_off, dst_off + size);
  epoch_mark(*mem, *dpte, dst_off, dst_off + size);
  return Status::Ok;
}

Status MemoryManager::on_free(ContextId ctx, VirtualPtr ptr) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto it = mem->entries.find(ptr);  // frees must name the base address
  if (it == mem->entries.end()) return Status::ErrorNoValidPte;
  PageTableEntry* pte = it->second.get();
  if (pte->is_allocated) {
    // Table 1: "If (PTE.isAllocated) cudaFree".
    (void)rt_->free(pte->owner_client, pte->device_ptr);
    if (config_.paging) tlb_flush_entry(*mem, *pte);
    lru_remove(*mem, *pte);
    // Decide "all resident bytes gone" from the fetch_sub return value: a
    // separate load could observe a concurrent query's interleaving.
    if (mem->resident_bytes.fetch_sub(pte->size, std::memory_order_relaxed) == pte->size) {
      mem->resident_gpu.store(0, std::memory_order_relaxed);
      ctx_lru_remove(*mem);
    }
  }
  mem->total_bytes.fetch_sub(pte->size, std::memory_order_relaxed);
  if (mem->epoch.active) {
    mem->epoch.dirty.erase(ptr);
    mem->epoch.freed.push_back(ptr);  // tombstone: the target frees it too
  }
  mem->entries.erase(it);
  return Status::Ok;
}

Status MemoryManager::register_nested(ContextId ctx, VirtualPtr parent,
                                      const std::vector<NestedRef>& refs) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [pte, offset] = locate(*mem, parent);
  if (pte == nullptr || offset != 0) return Status::ErrorNoValidPte;
  for (const NestedRef& ref : refs) {
    if (ref.offset + sizeof(u64) > pte->size) return Status::ErrorSwapSizeMismatch;
    const auto child = locate(*mem, ref.target);
    if (child.pte == nullptr || child.offset != 0) return Status::ErrorNoValidPte;
    child.pte->is_nested_member = true;
  }
  pte->nested = refs;
  // The swap image stores the virtual pointers (position independent).
  for (const NestedRef& ref : refs) {
    std::memcpy(pte->swap.data() + ref.offset, &ref.target, sizeof(u64));
    pte->swap_valid.add(ref.offset, ref.offset + sizeof(u64));
    if (pte->is_allocated) pte->host_dirty.add(ref.offset, ref.offset + sizeof(u64));
    epoch_mark(*mem, *pte, ref.offset, ref.offset + sizeof(u64));
  }
  pte->to_copy_2_dev = true;
  return Status::Ok;
}

std::vector<PageTableEntry*> MemoryManager::nested_closure(CtxMem& mem,
                                                           std::vector<PageTableEntry*> roots) {
  std::vector<PageTableEntry*> ordered;
  std::set<PageTableEntry*> visited;
  // Children-first depth-first order so parents are patched after children
  // are placed.
  std::function<void(PageTableEntry*)> visit = [&](PageTableEntry* pte) {
    if (!visited.insert(pte).second) return;
    for (const NestedRef& ref : pte->nested) {
      if (const auto child = locate(mem, ref.target); child.pte != nullptr) visit(child.pte);
    }
    ordered.push_back(pte);
  };
  for (PageTableEntry* root : roots) visit(root);
  return ordered;
}

Status MemoryManager::patch_nested_on_device(CtxMem& mem, PageTableEntry& pte) {
  for (const NestedRef& ref : pte.nested) {
    const auto child = locate(mem, ref.target);
    if (child.pte == nullptr || !child.pte->is_allocated) return Status::ErrorNoValidPte;
    sim::SimGpu* gpu = rt_->machine().gpu(GpuId{pte.resident_gpu});
    if (gpu == nullptr) return Status::ErrorInvalidDevice;
    const u64 dev_target = child.pte->device_ptr;
    const Status s = gpu->poke(pte.device_ptr + ref.offset,
                               std::as_bytes(std::span(&dev_target, 1)));
    if (!ok(s)) return s;
    // The device slot now differs from swap (device vs virtual pointer);
    // track it so a later write-back ships it (rewrite_nested_to_virtual
    // restores the position-independent form afterwards, as before).
    pte.dev_dirty.add(ref.offset, ref.offset + sizeof(u64));
  }
  return Status::Ok;
}

void MemoryManager::rewrite_nested_to_virtual(CtxMem& mem, PageTableEntry& pte) {
  (void)mem;
  for (const NestedRef& ref : pte.nested) {
    std::memcpy(pte.swap.data() + ref.offset, &ref.target, sizeof(u64));
  }
}

Status MemoryManager::swap_entry(CtxMem& mem, PageTableEntry& pte) {
  if (!pte.is_allocated) return Status::Ok;
  Status sync = Status::Ok;
  if (!pte.to_copy_2_swap) {
    // Clean eviction: the swap copy is already authoritative, no D2H at all.
    bump(stats_.clean_swap_skips);
    if (config_.incremental_swap) {
      bump(stats_.dirty_bytes_saved, pte.size);
    }
  } else if (config_.async_writeback) {
    // Asynchronous write-back: snapshot the device bytes into swap now
    // (content-correct immediately, like staging into a pinned buffer) and
    // reserve the copy engine without sleeping. The evictor's subsequent
    // work overlaps the modeled drain; swap readers fence on completion.
    // Only the dirty (write-set) ranges ship; consolidation bridges small
    // gaps into one transfer.
    u64 moved = 0;
    for (const ByteRange& r : writeback_ranges(pte)) {
      auto done = rt_->memcpy_d2h_async(pte.owner_client,
                                        std::span(pte.swap).subspan(r.begin, r.size()),
                                        pte.device_ptr + r.begin, r.size());
      if (done.has_value()) {
        pte.writeback_done = std::max(pte.writeback_done, done.value());
        pte.swap_valid.add(r.begin, r.end);
        moved += r.size();
      } else if (done.status() == Status::ErrorDeviceUnavailable) {
        // Same recovery as the synchronous path: the swap copy (last
        // checkpoint) becomes authoritative again.
        sync = Status::ErrorDeviceUnavailable;
        break;
      } else {
        sync = done.status();
        break;
      }
    }
    pte.to_copy_2_swap = false;
    if (ok(sync)) {
      bump(stats_.async_writebacks);
      bump(stats_.swap_out_bytes, moved);
      if (config_.incremental_swap) {
        bump(stats_.dirty_bytes_saved, pte.size - moved);
      }
    }
  } else {
    sync = sync_to_swap(pte);  // costed writeback when dirty
  }
  if (!pte.nested.empty()) rewrite_nested_to_virtual(mem, pte);
  (void)rt_->free(pte.owner_client, pte.device_ptr);
  pte.is_allocated = false;
  pte.device_ptr = kNullDevicePtr;
  pte.to_copy_2_dev = true;  // next use re-materializes from swap
  pte.dev_dirty.clear();     // the device copy is gone
  pte.host_dirty.clear();    // recomputed from swap_valid at re-materialization
  if (config_.paging) {
    // Translations die with the device copy; an in-flight prefetch into it
    // is moot (content already landed in the block we just freed). The
    // page-use stamps survive: they still describe the entry's heat.
    tlb_flush_entry(mem, pte);
    pte.upload_done = vt::TimePoint{};
    bump(stats_.page_evictions, page_count_of(pte));
  }
  lru_remove(mem, pte);
  // fetch_sub's return value decides "all resident bytes gone": a separate
  // load could race with a concurrent materialization elsewhere.
  if (mem.resident_bytes.fetch_sub(pte.size, std::memory_order_relaxed) == pte.size) {
    mem.resident_gpu.store(0, std::memory_order_relaxed);
    ctx_lru_remove(mem);
  }
  bump(stats_.swapped_entries);
  bump(stats_.swap_bytes, pte.size);
  swap_bytes_hist().observe(static_cast<double>(pte.size));
  return sync == Status::ErrorDeviceUnavailable ? Status::Ok : sync;
}

MemoryManager::PrepareResult MemoryManager::prepare_launch(
    ContextId ctx, GpuId gpu, ClientId client, const std::vector<sim::KernelArg>& args) {
  PrepareResult result;
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) {
    result.error = Status::ErrorNoValidPte;
    return result;
  }
  const vt::TimePoint now_stamp = rt_->machine().domain().now();
  mem->last_use_ns.store(now_stamp.count(), std::memory_order_relaxed);
  if (const u64 gpu_now = mem->resident_gpu.load(std::memory_order_relaxed); gpu_now != 0) {
    ctx_lru_touch(*mem, gpu_now, now_stamp.count());
  }

  // Resolve referenced entries and their offsets.
  std::vector<Located> refs(args.size());
  std::vector<PageTableEntry*> roots;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].is_dev_ptr()) continue;
    if (args[i].bits == 0) continue;  // null pointer passes through
    const Located ref = locate(*mem, args[i].as_ptr());
    if (ref.pte == nullptr) {
      result.error = Status::ErrorNoValidPte;
      return result;
    }
    refs[i] = ref;
    roots.push_back(ref.pte);
  }
  std::vector<PageTableEntry*> closure = nested_closure(*mem, std::move(roots));
  const std::set<PageTableEntry*> needed(closure.begin(), closure.end());

  // Paged engine: scope this launch's data movement to the pages its
  // AccessHint annotations declare (page-rounded byte ranges per hinted
  // entry). An entry referenced by any unhinted pointer argument -- or one
  // carrying nested pointers, whose image is patched whole, or one reached
  // only through the nested closure -- moves at entry granularity exactly
  // like the baseline. These maps are pointer-keyed for lookup only: every
  // order-sensitive walk below iterates `closure`, whose order is
  // deterministic (heap addresses are not).
  std::map<PageTableEntry*, IntervalSet> hint_needed;
  std::map<PageTableEntry*, IntervalSet> hint_written;
  if (config_.paging) {
    std::map<u64, std::vector<const sim::KernelArg*>> hints_by_arg;
    for (const sim::KernelArg& a : args) {
      if (a.is_access_hint()) hints_by_arg[a.hint_arg()].push_back(&a);
    }
    std::set<PageTableEntry*> whole;
    for (size_t i = 0; i < args.size(); ++i) {
      PageTableEntry* pte = refs[i].pte;
      if (pte == nullptr) continue;
      const auto h = hints_by_arg.find(i);
      if (h == hints_by_arg.end() || !pte->nested.empty() || pte->is_nested_member) {
        whole.insert(pte);
        continue;
      }
      IntervalSet& need = hint_needed[pte];
      IntervalSet& written = hint_written[pte];
      for (const sim::KernelArg* hint : h->second) {
        // Hint ranges are relative to the (possibly interior) pointer the
        // argument carries; rebase onto the entry and clamp.
        const u64 begin = std::min(refs[i].offset + hint->hint_offset(), pte->size);
        const u64 end = std::min(begin + hint->hint_length(), pte->size);
        if (begin >= end) continue;
        need.add(begin, end);
        if (hint->hint_written()) written.add(begin, end);
      }
    }
    for (PageTableEntry* pte : closure) {
      if (hint_needed.find(pte) == hint_needed.end()) whole.insert(pte);
    }
    for (PageTableEntry* pte : whole) {
      hint_needed.erase(pte);
      hint_written.erase(pte);
    }
    for (auto& [pte, set] : hint_needed) {
      set = set.page_rounded(config_.page_bytes, pte->size);
    }
    for (auto& [pte, set] : hint_written) {
      set = set.page_rounded(config_.page_bytes, pte->size);
    }
  }

  bool counted_intra = false;
  for (PageTableEntry* pte : closure) {
    // Stragglers resident on a different (or dead) device migrate -- via a
    // direct GPU-to-GPU copy in CUDA 4 mode, through the swap area
    // otherwise.
    if (pte->is_allocated) {
      if (GpuId{pte->resident_gpu} != gpu) {
        if (config_.direct_peer_transfers && try_peer_move(*mem, *pte, gpu, client)) {
          lru_touch(*mem, *pte, now_stamp);
          continue;
        }
        (void)swap_entry(*mem, *pte);
      } else {
        sim::SimGpu* dev = rt_->machine().gpu(gpu);
        if (dev == nullptr || !dev->healthy()) {
          on_device_lost(ctx, gpu);
        }
      }
    }
    while (!pte->is_allocated) {
      // An entry larger than the whole device can never be materialized:
      // fail hard instead of asking the caller to retry forever.
      const sim::SimGpu* dev = rt_->machine().gpu(gpu);
      if (dev == nullptr ||
          pte->size + rt_->context_reservation_bytes() > dev->capacity_bytes()) {
        result.error = Status::ErrorMemoryAllocation;
        return result;
      }
      auto dptr = rt_->malloc(client, pte->size);
      if (dptr) {
        pte->device_ptr = dptr.value();
        pte->owner_client = client;
        pte->resident_gpu = gpu;
        pte->is_allocated = true;
        // A fresh device allocation holds zeroes (value-initialized blocks),
        // exactly like swap bytes outside swap_valid: only the validated
        // ranges need uploading to re-materialize the entry.
        pte->host_dirty = pte->swap_valid;
        mem->resident_bytes.fetch_add(pte->size, std::memory_order_relaxed);
        mem->resident_gpu.store(gpu.value, std::memory_order_relaxed);
        ctx_lru_touch(*mem, gpu.value, now_stamp.count());
        break;
      }
      if (dptr.status() != Status::ErrorMemoryAllocation) {
        result.error = dptr.status();
        return result;
      }
      // Intra-application swap: evict this context's own resident entries
      // that this launch does not reference (LRU first). This is what lets
      // a single app exceed device capacity (section 4.5's matmul example).
      // The indexed LRU walks in (last_use, vptr) order, so the first
      // eligible entry is the one the old O(entries) scan picked.
      PageTableEntry* victim = nullptr;
      if (config_.paging && mem->evict != nullptr) {
        // Policy-scored victim ranking over every evictable candidate;
        // smallest score evicts. Strict less-than keeps the first-seen
        // candidate on ties, and the (last_use, vptr) walk order is
        // deterministic, so identical runs pick identical victims.
        double best = 0.0;
        for (const auto& [key, candidate] : mem->lru) {
          if (needed.count(candidate) != 0) continue;
          if (GpuId{candidate->resident_gpu} != gpu) continue;
          const EvictionCandidate c{candidate->virtual_ptr, candidate->size,
                                    config_.page_bytes, candidate->last_use.count(),
                                    std::span<const i64>(candidate->page_use_ns)};
          const double score = mem->evict->score(c, now_stamp.count());
          if (victim == nullptr || score < best) {
            victim = candidate;
            best = score;
          }
        }
      } else {
        for (const auto& [key, candidate] : mem->lru) {
          if (needed.count(candidate) != 0) continue;
          if (GpuId{candidate->resident_gpu} != gpu) continue;
          victim = candidate;
          break;
        }
      }
      if (victim == nullptr) {
        result.outcome = PrepareOutcome::WouldBlock;
        result.needed_bytes = pte->size;
        return result;
      }
      (void)swap_entry(*mem, *victim);
      if (!counted_intra) {
        bump(stats_.intra_app_swaps);
        counted_intra = true;
        obs::emit_instant("intra-app-swap", "swap", obs::kRuntimePid, ctx.value, ctx.value);
      }
    }
    lru_touch(*mem, *pte, now_stamp);
  }

  // Paged engine: the launch's page walk. Every page the kernel touches
  // (its hinted pages; all pages for entry-granular references) costs one
  // TLB access; the misses charge the modeled walk latency once, up front.
  // In-flight prefetch page-ins must land before the kernel consumes the
  // bytes -- the H2D mirror of the writeback fence.
  std::map<PageTableEntry*, std::vector<u64>> touched;
  if (config_.paging) {
    u64 hits = 0;
    u64 misses = 0;
    for (PageTableEntry* pte : closure) {
      fence_upload(*pte);
      std::vector<u64> pages;
      if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
        pages = h->second.pages(config_.page_bytes, pte->size);
      } else {
        pages.resize(page_count_of(*pte));
        std::iota(pages.begin(), pages.end(), u64{0});
      }
      for (const u64 p : pages) {
        if (tlb_access(*mem, *pte, p)) {
          ++hits;
        } else {
          ++misses;
        }
      }
      stamp_pages(*pte, pages, now_stamp.count());
      touched.emplace(pte, std::move(pages));
    }
    bump(stats_.tlb_hits, hits);
    bump(stats_.tlb_misses, misses);
    if (misses > 0) {
      rt_->machine().domain().sleep_for(vt::Duration{misses * kTlbMissNs});
    }
  }

  // Bulk transfers for deferred data, then nested pointer patching
  // (children were materialized first). Only the dirty/validated ranges
  // ship (whole entries in naive mode); consolidation bridges small gaps.
  u64 bulk_bytes = 0;      // bytes actually shipped
  u64 flagged_bytes = 0;   // footprint of the entries flagged for upload
  struct Upload {
    PageTableEntry* pte;
    std::vector<ByteRange> ranges;
  };
  std::vector<Upload> uploads;
  for (PageTableEntry* pte : closure) {
    if (!pte->to_copy_2_dev) continue;
    Upload up{pte, {}};
    if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
      // Demand paging: only the pages this launch declared, of the ranges
      // swap actually holds newer data for. Undeclared host-dirty pages
      // stay behind and page in when a later launch names them. All hinted
      // pages already resident: nothing to ship, no writeback fence, and no
      // bulk transfer counted (the entry stays flagged for its cold pages).
      up.ranges = pte->host_dirty.intersected(h->second).coalesced(kCoalesceGapBytes);
      if (up.ranges.empty()) continue;
    } else {
      up.ranges = upload_ranges(*pte);
    }
    flagged_bytes += pte->size;
    for (const ByteRange& r : up.ranges) bulk_bytes += r.size();
    uploads.push_back(std::move(up));
  }
  if (!uploads.empty()) {
    const vt::TimePoint fault_start = rt_->machine().domain().now();
    obs::SpanScope sp("bulk-h2d", "swap", obs::kRuntimePid, ctx.value, ctx.value, bulk_bytes);
    for (const Upload& up : uploads) {
      PageTableEntry* pte = up.pte;
      fence_writeback(*pte);  // re-materializing reads the swap bytes
      for (const ByteRange& r : up.ranges) {
        const Status s = rt_->memcpy_h2d(
            pte->owner_client, pte->device_ptr + r.begin,
            std::span<const std::byte>(pte->swap).subspan(r.begin, r.size()));
        if (!ok(s)) {
          result.error = s;
          return result;
        }
      }
      if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
        for (const ByteRange& r : h->second.ranges()) pte->host_dirty.erase(r.begin, r.end);
        pte->to_copy_2_dev = !pte->host_dirty.empty();
      } else {
        pte->to_copy_2_dev = false;
        pte->host_dirty.clear();
      }
      bump(stats_.bulk_transfers);
    }
    bump(stats_.swap_in_bytes, bulk_bytes);
    if (config_.incremental_swap && flagged_bytes > bulk_bytes) {
      bump(stats_.dirty_bytes_saved, flagged_bytes - bulk_bytes);
    }
    bulk_h2d_bytes_hist().observe(static_cast<double>(bulk_bytes));
    if (config_.paging) {
      // Every synchronously uploaded page was a demand fault this launch
      // stalled on; the histogram records the modeled service time.
      u64 faults = 0;
      for (const Upload& up : uploads) {
        IntervalSet shipped;
        for (const ByteRange& r : up.ranges) shipped.add(r.begin, r.end);
        faults += shipped.pages(config_.page_bytes, up.pte->size).size();
      }
      if (faults > 0) {
        bump(stats_.page_faults, faults);
      }
      page_fault_seconds_hist().observe(
          vt::to_seconds(rt_->machine().domain().now() - fault_start));
    }
  }
  for (PageTableEntry* pte : closure) {
    if (pte->nested.empty()) continue;
    if (const Status s = patch_nested_on_device(*mem, *pte); !ok(s)) {
      result.error = s;
      return result;
    }
  }
  // Dirty marking. An *annotated* launch (any dev_out argument) declares
  // its write-set: only the written arguments (and their nested closure,
  // since a written parent can reach children through stored pointers)
  // become device-dirty. An unannotated launch keeps Figure 4's pessimistic
  // assumption: every referenced entry may be written.
  bool annotated = false;
  if (config_.incremental_swap) {
    for (const sim::KernelArg& arg : args) {
      if (arg.is_written()) {
        annotated = true;
        break;
      }
    }
  }
  if (annotated) {
    std::vector<PageTableEntry*> written_roots;
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].is_written() && refs[i].pte != nullptr) written_roots.push_back(refs[i].pte);
    }
    for (PageTableEntry* pte : nested_closure(*mem, std::move(written_roots))) {
      if (hint_needed.find(pte) != hint_needed.end()) continue;  // hints govern below
      pte->to_copy_2_swap = true;
      pte->dev_dirty.add(0, pte->size);
      epoch_mark(*mem, *pte, 0, pte->size);
    }
  } else {
    for (PageTableEntry* pte : closure) {
      if (hint_needed.find(pte) != hint_needed.end()) continue;  // hints govern below
      pte->to_copy_2_swap = true;
      pte->dev_dirty.add(0, pte->size);
      epoch_mark(*mem, *pte, 0, pte->size);
    }
  }
  // Hinted entries: the declared written pages are the exact write-set,
  // subsuming the coarse dev/dev_out annotation. Written pages are a
  // subset of the needed pages uploaded (and host-undirtied) above, so
  // marking them device-dirty never violates the one-direction-dirty
  // invariant. A read-only hinted launch dirties nothing.
  if (config_.paging) {
    for (PageTableEntry* pte : closure) {
      const auto w = hint_written.find(pte);
      if (w == hint_written.end() || w->second.empty()) continue;
      for (const ByteRange& r : w->second.ranges()) {
        pte->dev_dirty.add(r.begin, r.end);
        epoch_mark(*mem, *pte, r.begin, r.end);
      }
      pte->to_copy_2_swap = true;
    }
  }

  // Prefetch: predicted pages ride the async copy engine and overlap the
  // kernel that triggered the prediction; the next launch referencing the
  // entry fences on upload_done. Content lands immediately -- predictions
  // can only move modeled time, never change results. Only pages swap
  // holds newer data for actually ship.
  if (config_.paging && mem->prefetch != nullptr) {
    for (PageTableEntry* pte : closure) {
      if (hint_needed.find(pte) == hint_needed.end()) continue;
      const auto t = touched.find(pte);
      if (t == touched.end() || t->second.empty()) continue;
      const PrefetchQuery q{pte->virtual_ptr, config_.page_bytes, page_count_of(*pte),
                            std::span<const u64>(t->second)};
      std::vector<u64> predicted;
      mem->prefetch->predict(q, config_.prefetch_lookahead, &predicted);
      u64 shipped_pages = 0;
      u64 shipped_bytes = 0;
      for (const u64 p : predicted) {
        const u64 begin = p * config_.page_bytes;
        if (begin >= pte->size) continue;  // out-of-range prediction: dropped
        const u64 end = std::min(begin + config_.page_bytes, pte->size);
        IntervalSet want;
        want.add(begin, end);
        const IntervalSet ship = pte->host_dirty.intersected(want);
        if (ship.empty()) continue;  // already resident (or never populated)
        bool landed = false;
        for (const ByteRange& r : ship.ranges()) {
          auto done = rt_->memcpy_h2d_async(
              pte->owner_client, pte->device_ptr + r.begin,
              std::span<const std::byte>(pte->swap).subspan(r.begin, r.size()));
          if (!done.has_value()) break;  // prefetch is best-effort
          pte->upload_done = std::max(pte->upload_done, done.value());
          pte->host_dirty.erase(r.begin, r.end);
          shipped_bytes += r.size();
          landed = true;
        }
        if (landed) ++shipped_pages;
      }
      if (shipped_pages > 0) {
        pte->to_copy_2_dev = !pte->host_dirty.empty();
        bump(stats_.prefetched_pages, shipped_pages);
        bump(stats_.swap_in_bytes, shipped_bytes);
      }
    }
  }

  result.translated.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    if (refs[i].pte == nullptr) {
      result.translated.push_back(args[i]);
    } else {
      // Preserve the argument kind (dev vs dev_out) through translation.
      result.translated.push_back(
          sim::KernelArg{args[i].kind, refs[i].pte->device_ptr + refs[i].offset});
    }
  }
  result.outcome = PrepareOutcome::Ready;
  result.error = Status::Ok;
  return result;
}

bool MemoryManager::try_peer_move(CtxMem& mem, PageTableEntry& pte, GpuId gpu,
                                  ClientId client) {
  sim::SimGpu* src_dev = rt_->machine().gpu(GpuId{pte.resident_gpu});
  sim::SimGpu* dst_dev = rt_->machine().gpu(gpu);
  if (src_dev == nullptr || dst_dev == nullptr || !src_dev->healthy() || !dst_dev->healthy()) {
    return false;
  }
  auto dptr = rt_->malloc(client, pte.size);
  if (!dptr) return false;  // destination full: fall back to the swap path
  if (!ok(rt_->memcpy_peer(client, dptr.value(), pte.device_ptr, pte.size))) {
    (void)rt_->free(client, dptr.value());
    return false;
  }
  (void)rt_->free(pte.owner_client, pte.device_ptr);
  pte.device_ptr = dptr.value();
  pte.owner_client = client;
  pte.resident_gpu = gpu;
  // Dirty state is unchanged: the device copy moved devices; the swap copy
  // is exactly as (in)valid as before.
  mem.resident_gpu.store(gpu.value, std::memory_order_relaxed);
  ctx_lru_touch(mem, gpu.value, mem.last_use_ns.load(std::memory_order_relaxed));
  bump(stats_.peer_copies);
  return true;
}

Status MemoryManager::swap_context(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  obs::SpanScope sp("swap-out", "swap", obs::kRuntimePid, ctx.value, ctx.value);
  u64 swapped = 0;
  Status first_error = Status::Ok;
  for (auto& [vptr, pte] : mem->entries) {
    if (!pte->is_allocated) continue;
    swapped += pte->size;
    const Status s = swap_entry(*mem, *pte);
    if (!ok(s) && ok(first_error)) first_error = s;
  }
  sp.set_bytes(swapped);
  return first_error;
}

Status MemoryManager::checkpoint(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  for (auto& [vptr, pte] : mem->entries) {
    if (const Status s = sync_to_swap(*pte); !ok(s)) return s;
    if (!pte->nested.empty()) rewrite_nested_to_virtual(*mem, *pte);
  }
  return Status::Ok;
}

void MemoryManager::on_device_lost(ContextId ctx, GpuId gpu) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return;
  for (auto& [vptr, pte] : mem->entries) {
    if (!pte->is_allocated || GpuId{pte->resident_gpu} != gpu) continue;
    pte->is_allocated = false;
    pte->device_ptr = kNullDevicePtr;
    pte->to_copy_2_dev = true;   // recover from the swap copy
    pte->to_copy_2_swap = false; // device-only data since the last
                                 // checkpoint is lost
    pte->dev_dirty.clear();      // lost with the device
    pte->host_dirty.clear();     // recomputed from swap_valid on re-materialization
    if (config_.paging) {
      tlb_flush_entry(*mem, *pte);
      pte->upload_done = vt::TimePoint{};
    }
    lru_remove(*mem, *pte);
    mem->resident_bytes.fetch_sub(pte->size, std::memory_order_relaxed);
  }
  if (mem->resident_bytes.load(std::memory_order_relaxed) == 0) {
    mem->resident_gpu.store(0, std::memory_order_relaxed);
    ctx_lru_remove(*mem);
  }
}

u64 MemoryManager::resident_bytes(ContextId ctx, GpuId gpu) const {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return 0;
  if (GpuId{mem->resident_gpu.load(std::memory_order_relaxed)} != gpu) return 0;
  return mem->resident_bytes.load(std::memory_order_relaxed);
}

std::optional<GpuId> MemoryManager::residency(ContextId ctx) const {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return std::nullopt;
  const u64 gpu = mem->resident_gpu.load(std::memory_order_relaxed);
  if (gpu == 0) return std::nullopt;
  return GpuId{gpu};
}

u64 MemoryManager::mem_usage(ContextId ctx) const {
  CtxMemPtr mem = find(ctx);
  return mem == nullptr ? 0 : mem->total_bytes.load(std::memory_order_relaxed);
}

std::vector<ContextId> MemoryManager::victim_candidates(GpuId gpu, u64 needed,
                                                        ContextId requester) const {
  // In-order walk of this gpu's slice of the LRU directory: the key order
  // (gpu, last_use_ns, ctx) reproduces the old sort over a full scan of
  // every context.
  std::vector<ContextId> out;
  std::scoped_lock lk(ctx_lru_.mu);
  auto it = ctx_lru_.order.lower_bound(
      std::tuple<u64, i64, u64>{gpu.value, std::numeric_limits<i64>::min(), 0});
  for (; it != ctx_lru_.order.end() && std::get<0>(it->first) == gpu.value; ++it) {
    const CtxMem* mem = it->second;
    const ContextId ctx{std::get<2>(it->first)};
    if (ctx == requester) continue;
    // Stale-entry guards: residency may have moved since the last touch.
    if (GpuId{mem->resident_gpu.load(std::memory_order_relaxed)} != gpu) continue;
    if (mem->resident_bytes.load(std::memory_order_relaxed) < needed) continue;
    out.push_back(ctx);
  }
  return out;
}

namespace {
constexpr u32 kImageMagic = 0x6d766367;  // "gcvm"
// v2 carried each entry's swap-validity interval set plus the *full* swap
// buffer. v3 ships bytes only for the validated ranges -- everything
// outside swap_valid is zero in swap and on any fresh device allocation,
// so a sparsely populated context costs what it actually holds. This is
// what makes a migration's round-0 image beat a naive freeze-ship-resume.
constexpr u32 kImageVersion = 3;

// Position-independent pre-copy delta (collect_migration_delta): entry
// metadata + only the byte ranges mutated since the previous round.
constexpr u32 kDeltaMagic = 0x6c646d67;  // "gmdl"
constexpr u32 kDeltaVersion = 1;

bool valid_entry_type(u8 raw) { return raw <= static_cast<u8>(EntryType::Pitched); }

}  // namespace

StatusOr<std::vector<u8>> MemoryManager::export_image(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  // Make the swap area authoritative (costed writeback of dirty entries),
  // and let any overlapped eviction drains land before serializing.
  if (const Status s = checkpoint(ctx); !ok(s)) return s;
  for (auto& [vptr, pte] : mem->entries) fence_writeback(*pte);

  WireWriter w;
  w.put<u32>(kImageMagic);
  w.put<u32>(kImageVersion);
  w.put<u64>(mem->entries.size());
  for (const auto& [vptr, pte] : mem->entries) {
    w.put<u64>(pte->virtual_ptr);
    w.put<u64>(pte->size);
    w.put<u8>(static_cast<u8>(pte->type));
    w.put<u8>(pte->is_nested_member ? 1 : 0);
    w.put<u64>(pte->nested.size());
    for (const NestedRef& ref : pte->nested) {
      w.put<u64>(ref.offset);
      w.put<u64>(ref.target);
    }
    w.put<u64>(pte->swap_valid.ranges().size());
    for (const ByteRange& r : pte->swap_valid.ranges()) {
      w.put<u64>(r.begin);
      w.put<u64>(r.end);
      w.put_bytes({reinterpret_cast<const u8*>(pte->swap.data()) + r.begin, r.size()});
    }
  }
  return w.take();
}

Status MemoryManager::import_image(ContextId ctx, std::span<const u8> image) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  WireReader r(image);
  if (r.get<u32>() != kImageMagic || r.get<u32>() != kImageVersion) {
    return Status::ErrorCheckpointNotFound;
  }
  const u64 count = r.get<u64>();
  const u64 largest = largest_device_bytes(rt_->machine());
  std::map<VirtualPtr, std::unique_ptr<PageTableEntry>> restored;
  u64 total_bytes = 0;
  u64 max_vptr_end = 0;
  for (u64 i = 0; i < count && r.ok(); ++i) {
    auto pte = std::make_unique<PageTableEntry>();
    pte->virtual_ptr = r.get<u64>();
    pte->size = r.get<u64>();
    if (const Status s = check_decoded_entry(pte->virtual_ptr, pte->size, largest,
                                             Status::ErrorCheckpointNotFound);
        !ok(s)) {
      return s;
    }
    const u8 type = r.get<u8>();
    if (!valid_entry_type(type)) return Status::ErrorCheckpointNotFound;
    pte->type = static_cast<EntryType>(type);
    pte->is_nested_member = r.get<u8>() != 0;
    const u64 refs = r.get<u64>();
    for (u64 j = 0; j < refs && r.ok(); ++j) {
      NestedRef ref;
      ref.offset = r.get<u64>();
      ref.target = r.get<u64>();
      pte->nested.push_back(ref);
    }
    // Zero outside the validated ranges.
    if (!resize_swap(pte->swap, pte->size)) return Status::ErrorSwapAllocation;
    const u64 valid_ranges = r.get<u64>();
    for (u64 j = 0; j < valid_ranges && r.ok(); ++j) {
      const u64 begin = r.get<u64>();
      const u64 end = r.get<u64>();
      if (begin > end || end > pte->size) return Status::ErrorCheckpointNotFound;
      pte->swap_valid.add(begin, end);
      const auto bytes = r.get_span();
      if (!r.ok() || bytes.size() != end - begin) return Status::ErrorCheckpointNotFound;
      std::memcpy(pte->swap.data() + begin, bytes.data(), bytes.size());
    }
    pte->to_copy_2_dev = true;  // materialize from swap on next use
    total_bytes += pte->size;
    max_vptr_end = std::max(max_vptr_end, pte->virtual_ptr + pte->size);
    const VirtualPtr key = pte->virtual_ptr;
    restored.emplace(key, std::move(pte));
  }
  if (!r.ok() || restored.size() != count) return Status::ErrorCheckpointNotFound;

  // Drop any current state (device + swap), then install the image.
  for (auto& [vptr, pte] : mem->entries) {
    if (pte->is_allocated) (void)rt_->free(pte->owner_client, pte->device_ptr);
  }
  mem->entries = std::move(restored);
  mem->lru.clear();  // nothing in the image is device-resident
  mem->tlb = CtxMem::Tlb{};  // every old translation points at dead entries
  ctx_lru_remove(*mem);
  mem->total_bytes.store(total_bytes, std::memory_order_relaxed);
  mem->resident_bytes.store(0, std::memory_order_relaxed);
  mem->resident_gpu.store(0, std::memory_order_relaxed);

  // Future allocations must not collide with restored virtual addresses
  // (CAS-max: the bump allocator may race ahead concurrently).
  const u64 want = (max_vptr_end + 511) / 256 * 256;
  u64 cur = va_next_.load(std::memory_order_relaxed);
  while (cur < want &&
         !va_next_.compare_exchange_weak(cur, want, std::memory_order_relaxed)) {
  }
  return Status::Ok;
}

void MemoryManager::epoch_mark(CtxMem& mem, const PageTableEntry& pte, u64 begin, u64 end) {
  if (!mem.epoch.active) return;
  IntervalSet& set = mem.epoch.dirty[pte.virtual_ptr];
  if (end > begin) set.add(begin, end);
}

Status MemoryManager::begin_migration(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  mem->epoch.active = true;
  mem->epoch.dirty.clear();
  mem->epoch.freed.clear();
  return Status::Ok;
}

void MemoryManager::end_migration(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return;
  mem->epoch.active = false;
  mem->epoch.dirty.clear();
  mem->epoch.freed.clear();
}

StatusOr<std::vector<u8>> MemoryManager::collect_migration_delta(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  if (!mem->epoch.active) return Status::ErrorInvalidValue;

  WireWriter w;
  w.put<u32>(kDeltaMagic);
  w.put<u32>(kDeltaVersion);
  w.put<u64>(mem->epoch.freed.size());
  for (const VirtualPtr vptr : mem->epoch.freed) w.put<u64>(vptr);

  // Entries recorded dirty that still exist (freed ones became tombstones).
  std::vector<std::pair<PageTableEntry*, const IntervalSet*>> live;
  for (const auto& [vptr, set] : mem->epoch.dirty) {
    const auto it = mem->entries.find(vptr);
    if (it != mem->entries.end()) live.emplace_back(it->second.get(), &set);
  }
  w.put<u64>(live.size());
  for (auto& [pte, set] : live) {
    // Make swap authoritative for the recorded ranges. A device lost mid-
    // round is not fatal: sync_to_swap recovers the entry to its last swap-
    // consistent state, which is exactly what the job itself replays from.
    if (const Status s = sync_to_swap(*pte); !ok(s) && s != Status::ErrorDeviceUnavailable) {
      return s;
    }
    fence_writeback(*pte);
    if (!pte->nested.empty()) rewrite_nested_to_virtual(*mem, *pte);

    w.put<u64>(pte->virtual_ptr);
    w.put<u64>(pte->size);
    w.put<u8>(static_cast<u8>(pte->type));
    w.put<u8>(pte->is_nested_member ? 1 : 0);
    w.put<u64>(pte->nested.size());
    for (const NestedRef& ref : pte->nested) {
      w.put<u64>(ref.offset);
      w.put<u64>(ref.target);
    }
    w.put<u64>(pte->swap_valid.ranges().size());
    for (const ByteRange& r : pte->swap_valid.ranges()) {
      w.put<u64>(r.begin);
      w.put<u64>(r.end);
    }
    // Ship only recorded-dirty ∩ swap-valid: bytes outside swap_valid are
    // zero on both sides (the target unions the same validity map).
    std::vector<ByteRange> ship;
    for (const ByteRange& d : set->ranges()) {
      for (const ByteRange& v : pte->swap_valid.ranges()) {
        const u64 begin = std::max(d.begin, v.begin);
        const u64 end = std::min(std::min(d.end, v.end), pte->size);
        if (begin < end) ship.push_back(ByteRange{begin, end});
      }
    }
    w.put<u64>(ship.size());
    for (const ByteRange& r : ship) {
      w.put<u64>(r.begin);
      w.put<u64>(r.end);
      w.put_bytes({reinterpret_cast<const u8*>(pte->swap.data()) + r.begin, r.size()});
    }
  }
  mem->epoch.dirty.clear();
  mem->epoch.freed.clear();
  return w.take();
}

Status MemoryManager::apply_migration_delta(ContextId ctx, std::span<const u8> delta) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  WireReader r(delta);
  if (r.get<u32>() != kDeltaMagic || r.get<u32>() != kDeltaVersion || !r.ok()) {
    return Status::ErrorProtocol;
  }
  const u64 freed = r.get<u64>();
  if (!r.ok() || freed > (1u << 24)) return Status::ErrorProtocol;
  for (u64 i = 0; i < freed && r.ok(); ++i) {
    const VirtualPtr vptr = r.get<u64>();
    const auto it = mem->entries.find(vptr);
    if (it == mem->entries.end()) continue;  // freed before it ever shipped
    PageTableEntry* pte = it->second.get();
    if (pte->is_allocated) {
      (void)rt_->free(pte->owner_client, pte->device_ptr);
      lru_remove(*mem, *pte);
      if (mem->resident_bytes.fetch_sub(pte->size, std::memory_order_relaxed) == pte->size) {
        mem->resident_gpu.store(0, std::memory_order_relaxed);
        ctx_lru_remove(*mem);
      }
    }
    mem->total_bytes.fetch_sub(pte->size, std::memory_order_relaxed);
    mem->entries.erase(it);
  }
  const u64 count = r.get<u64>();
  if (!r.ok() || count > (1u << 24)) return Status::ErrorProtocol;
  const u64 largest = largest_device_bytes(rt_->machine());
  u64 max_vptr_end = 0;
  for (u64 i = 0; i < count && r.ok(); ++i) {
    const VirtualPtr vptr = r.get<u64>();
    const u64 size = r.get<u64>();
    const u8 type = r.get<u8>();
    const bool is_nested_member = r.get<u8>() != 0;
    if (!r.ok() || !valid_entry_type(type)) return Status::ErrorProtocol;
    if (const Status s = check_decoded_entry(vptr, size, largest, Status::ErrorProtocol);
        !ok(s)) {
      return s;
    }

    PageTableEntry* pte = nullptr;
    if (const auto it = mem->entries.find(vptr); it != mem->entries.end()) {
      pte = it->second.get();
      if (pte->size != size) return Status::ErrorProtocol;  // vptrs never resize
    } else {
      auto fresh = std::make_unique<PageTableEntry>();
      fresh->virtual_ptr = vptr;
      fresh->size = size;
      if (!resize_swap(fresh->swap, size)) return Status::ErrorSwapAllocation;
      pte = fresh.get();
      mem->entries.emplace(vptr, std::move(fresh));
      mem->total_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    pte->type = static_cast<EntryType>(type);
    pte->is_nested_member = is_nested_member;
    const u64 refs = r.get<u64>();
    if (!r.ok() || refs > (1u << 20)) return Status::ErrorProtocol;
    pte->nested.clear();
    for (u64 j = 0; j < refs && r.ok(); ++j) {
      NestedRef ref;
      ref.offset = r.get<u64>();
      ref.target = r.get<u64>();
      pte->nested.push_back(ref);
    }
    const u64 valid_ranges = r.get<u64>();
    if (!r.ok() || valid_ranges > (1u << 24)) return Status::ErrorProtocol;
    for (u64 j = 0; j < valid_ranges && r.ok(); ++j) {
      const u64 begin = r.get<u64>();
      const u64 end = r.get<u64>();
      if (begin > end || end > pte->size) return Status::ErrorProtocol;
      pte->swap_valid.add(begin, end);
    }
    const u64 dirty_ranges = r.get<u64>();
    if (!r.ok() || dirty_ranges > (1u << 24)) return Status::ErrorProtocol;
    for (u64 j = 0; j < dirty_ranges && r.ok(); ++j) {
      const u64 begin = r.get<u64>();
      const u64 end = r.get<u64>();
      if (begin > end || end > pte->size) return Status::ErrorProtocol;
      const auto bytes = r.get_span();
      if (!r.ok() || bytes.size() != end - begin) return Status::ErrorProtocol;
      std::memcpy(pte->swap.data() + begin, bytes.data(), bytes.size());
      if (pte->is_allocated) pte->host_dirty.add(begin, end);
    }
    pte->to_copy_2_dev = true;  // swap is authoritative after a delta
    max_vptr_end = std::max(max_vptr_end, vptr + size);
  }
  if (!r.ok()) return Status::ErrorProtocol;

  if (max_vptr_end != 0) {
    const u64 want = (max_vptr_end + 511) / 256 * 256;
    u64 cur = va_next_.load(std::memory_order_relaxed);
    while (cur < want &&
           !va_next_.compare_exchange_weak(cur, want, std::memory_order_relaxed)) {
    }
  }
  return Status::Ok;
}

u64 MemoryManager::naive_image_bytes(ContextId ctx) const {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return 0;
  // What the v2 (full-buffer) image serialized: fixed header, per-entry
  // metadata, and every entry's complete footprint regardless of validity.
  u64 total = sizeof(u32) * 2 + sizeof(u64);
  for (const auto& [vptr, pte] : mem->entries) {
    total += 2 * sizeof(u64) + 2 * sizeof(u8);              // vptr, size, type, member
    total += sizeof(u64) + pte->nested.size() * 2 * sizeof(u64);
    total += sizeof(u64) + pte->swap_valid.ranges().size() * 2 * sizeof(u64);
    total += sizeof(u64) + pte->size;                       // full swap bytes
  }
  return total;
}

void MemoryManager::count_inter_app_swap() {
  bump(stats_.inter_app_swaps);
}

Status MemoryManager::preempt_swap_out(ContextId ctx) {
  const Status s = swap_context(ctx);
  if (ok(s)) bump(stats_.preempt_swaps);
  return s;
}

MemStats MemoryManager::stats() const {
  MemStats out = load_stats(stats_, kMemStatsFields);
  out.shard_contention = contexts_.contention();
  return out;
}

}  // namespace gpuvm::core

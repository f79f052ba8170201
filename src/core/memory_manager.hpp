// MemoryManager: the virtual-memory abstraction for GPUs.
//
// The central contribution of the paper. Two ideas (section 4.5): (1)
// applications never see device addresses -- they see runtime-generated
// virtual addresses; (2) data lives in host memory (the swap area) and
// moves to the device only on demand, making host memory a lower level of
// the memory hierarchy.
//
// Every allocation is a PageTableEntry carrying the three pointers
// (virtual, swap, device) and the three flags (isAllocated, toCopy2Dev,
// toCopy2Swap) whose transitions follow Figure 4 of the paper:
//
//     malloc            -> (F,F,F)   entry exists, nothing staged
//     copyHD (deferred) -> (F,T,F)   data staged in swap, device stale
//     launch            -> (T,F,T)   allocated+copied, device copy dirty
//     copyHD when bound -> (T,T,F)/(T,F,T) deferred/eager configurations
//     copyDH            -> device synced to swap first when dirty
//     swap              -> (F,T,F)   device freed, swap holds the data
//
// Deferral enables: executing malloc/copyHD with no device at all (delayed
// binding), coalescing multiple host writes into one bulk transfer, intra-
// and inter-application swapping, and detection of out-of-bounds operations
// before they reach the device (Table 1's runtime-level errors).
//
// Concurrency: the per-context page tables live in a sharded map, so
// tenants' malloc/memcpy/free never contend with each other; virtual
// addresses come from a lock-free atomic bump allocator; counters are
// relaxed atomics. The only remaining cross-tenant serialization is the
// scheduler and the device engines themselves.
//
// Asynchronous swap write-back (Config::async_writeback): evicting a dirty
// entry snapshots the device bytes into swap immediately (the staging copy
// of a pinned-buffer write-behind) and reserves the copy engine without
// blocking -- the evictor overlaps the D2H drain with its own kernel work.
// Paths that *consume* swap bytes (copyDH, bulk re-materialization, image
// export) fence on the entry's modeled drain completion, so no reader ever
// observes bytes "before the DMA delivered them".
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "common/interval_set.hpp"
#include "common/sharded_map.hpp"
#include "common/stats_table.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "core/gpu_api.hpp"
#include "core/paging_policy.hpp"
#include "cudart/cudart.hpp"

namespace gpuvm::core {

enum class EntryType : u8 { Linear = 0, Pitched = 1 };

struct PageTableEntry {
  VirtualPtr virtual_ptr = kNullVirtualPtr;
  std::vector<std::byte> swap;  ///< swap_ptr: host copy of the data
  DevicePtr device_ptr = kNullDevicePtr;
  u64 size = 0;

  bool is_allocated = false;  ///< device_ptr holds a live device allocation
  bool to_copy_2_dev = false; ///< authoritative data only in swap
  bool to_copy_2_swap = false;///< authoritative data only on device

  EntryType type = EntryType::Linear;
  /// Pointer slots within this entry (registered nested structure).
  std::vector<NestedRef> nested;
  bool is_nested_member = false;

  /// Device bookkeeping when allocated.
  GpuId resident_gpu{};
  ClientId owner_client{};  ///< cudart client that owns device_ptr

  vt::TimePoint last_use{};

  /// Modeled completion time of an in-flight asynchronous swap write-back
  /// of this entry. The swap bytes are already content-correct (snapshot at
  /// eviction); readers of swap must sleep until this point first. Zero =
  /// nothing in flight.
  vt::TimePoint writeback_done{};

  // ---- Incremental swap-engine state (Config::incremental_swap) ----------
  // The three interval sets refine the boolean flags to byte granularity.
  // Discipline: a byte is dirty in at most one direction at a time -- a
  // partial host write to a device-dirty entry syncs the device ranges into
  // swap first (same hazard the boolean path already handles), so the gaps
  // between dirty ranges are always in sync on both sides and transfer
  // consolidation may bridge them freely.

  /// Device ranges newer than swap (refines to_copy_2_swap): written by
  /// kernel launches (per the launch's write-set annotation) and nested
  /// pointer pokes; drained by sync_to_swap / swap_entry.
  IntervalSet dev_dirty;
  /// Swap ranges newer than the device copy (refines to_copy_2_dev while
  /// allocated): staged deferred host/d2d writes; re-initialized to
  /// swap_valid at (re-)materialization, when the fresh device allocation
  /// holds zeroes and everything ever populated must be uploaded.
  IntervalSet host_dirty;
  /// Swap-validity map: ranges ever populated with data. Bytes outside are
  /// zero in swap *and* on any fresh (value-initialized) device allocation,
  /// so a bounce (swap-out then swap-in with no intervening host mutation)
  /// uploads only the validated ranges and never-touched tails travel for
  /// free. Survives swap-out, device loss and checkpoint/restore.
  IntervalSet swap_valid;

  // ---- Paged-engine state (Config::paging) --------------------------------
  // Pure performance metadata: never serialized (checkpoint images and
  // migration deltas are engine-agnostic) and never consulted for content
  // decisions -- losing it costs extra transfers, not correctness.

  /// Per-page last-use stamps (ns), sized to the entry's page count on
  /// first paged touch; 0 = never touched. Feeds EvictionPolicy ranking.
  std::vector<i64> page_use_ns;
  /// Modeled completion time of an in-flight asynchronous prefetch page-in
  /// (H2D). Bytes land immediately; the next launch referencing the entry
  /// fences on this point -- the mirror of writeback_done. Zero = none.
  vt::TimePoint upload_done{};
};

/// Counters for the experiments (Figures 7-9 annotate swap counts).
struct MemStats {
  u64 intra_app_swaps = 0;   ///< launch-triggered evictions of own entries
  u64 inter_app_swaps = 0;   ///< whole-context evictions for another app
  u64 swapped_entries = 0;   ///< individual PTEs written back + freed
  u64 swap_bytes = 0;
  u64 bulk_transfers = 0;    ///< coalesced host->device materializations
  u64 bounds_rejections = 0; ///< bad ops stopped before touching the device
  u64 peer_copies = 0;       ///< direct GPU-to-GPU migrations (CUDA 4 mode)
  u64 async_writebacks = 0;  ///< evictions whose D2H overlapped other work
  u64 writeback_fences = 0;  ///< swap reads that had to await an async drain
  u64 swap_out_bytes = 0;    ///< bytes actually shipped D2H on the swap path
  u64 swap_in_bytes = 0;     ///< bytes actually shipped H2D re-materializing
  u64 dirty_bytes_saved = 0; ///< bytes the incremental engine did not move
  u64 clean_swap_skips = 0;  ///< evictions that skipped the D2H entirely
  u64 preempt_swaps = 0;     ///< whole-context swap-outs on quantum expiry
  // Paged engine (Config::paging); all zero in entry-granular mode.
  u64 page_faults = 0;       ///< pages uploaded synchronously at launch
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 prefetched_pages = 0;  ///< pages paged in asynchronously
  u64 page_evictions = 0;    ///< pages freed by victim eviction
  /// Page-table shard-lock acquisitions that found the shard busy (read from
  /// the sharded map by stats(), not bumped).
  u64 shard_contention = 0;
};

/// MemStats' fields under their QueryStats names ("stats.mm.<name>").
inline constexpr auto kMemStatsFields = std::to_array<StatField<MemStats>>({
    {"intra_app_swaps", &MemStats::intra_app_swaps},
    {"inter_app_swaps", &MemStats::inter_app_swaps},
    {"swapped_entries", &MemStats::swapped_entries},
    {"swap_bytes", &MemStats::swap_bytes},
    {"bulk_transfers", &MemStats::bulk_transfers},
    {"bounds_rejections", &MemStats::bounds_rejections},
    {"peer_copies", &MemStats::peer_copies},
    {"async_writebacks", &MemStats::async_writebacks},
    {"writeback_fences", &MemStats::writeback_fences},
    {"swap_out_bytes", &MemStats::swap_out_bytes},
    {"swap_in_bytes", &MemStats::swap_in_bytes},
    {"dirty_bytes_saved", &MemStats::dirty_bytes_saved},
    {"clean_swap_skips", &MemStats::clean_swap_skips},
    {"preempt_swaps", &MemStats::preempt_swaps},
    {"page_faults", &MemStats::page_faults},
    {"tlb_hits", &MemStats::tlb_hits},
    {"tlb_misses", &MemStats::tlb_misses},
    {"prefetched_pages", &MemStats::prefetched_pages},
    {"page_evictions", &MemStats::page_evictions},
    {"shard_contention", &MemStats::shard_contention},
});

class MemoryManager {
 public:
  struct Config {
    /// Defer host->device transfers until kernel launch (the paper's
    /// default experimental configuration). When false, copies go straight
    /// to the device once the entry is materialized (overlap-friendly,
    /// higher swap cost).
    bool defer_transfers = true;
    /// CUDA 4.0 mode (paper section 4.8): migrate entries between healthy
    /// devices with a direct GPU-to-GPU copy instead of a swap round trip
    /// ("faster thread-to-GPU remapping").
    bool direct_peer_transfers = false;
    /// Overlap eviction D2H write-backs with subsequent work instead of
    /// blocking the evictor (see the header comment). Readers of the swap
    /// bytes fence on the modeled drain completion.
    bool async_writeback = true;
    /// Incremental swap engine: move only dirty byte intervals on the swap
    /// path (write-back the kernel's write-set, upload only invalidated /
    /// validated ranges) instead of whole entries. False restores the naive
    /// whole-buffer baseline for ablation (bench_swap).
    bool incremental_swap = true;

    // ---- Paged engine -----------------------------------------------------

    /// Page-granular residency: launch-path uploads, dirty marking, victim
    /// ranking and prefetch operate on fixed-size pages scoped by the
    /// launch's AccessHint annotations, with a per-context TLB model
    /// charging miss costs on prepare_launch. Device allocations stay
    /// whole-entry contiguous (kernel bodies address one span); pages
    /// govern what *moves* and what *ages*, not where bytes live. False
    /// keeps the entry-granular engine, byte-identical to pre-paging
    /// behaviour (hints are ignored entirely).
    bool paging = false;
    /// Fixed page size of the paged engine.
    u64 page_bytes = 64 * 1024;
    /// Per-context TLB capacity in (entry, page) translations.
    u64 tlb_entries = 64;
    /// Victim-ranking policy (core/paging_policy.hpp registry).
    std::string eviction_policy = "page-lru";
    /// Page-in prediction policy; "none" = demand paging only.
    std::string prefetch_policy = "stride";
    /// Pages the prefetch policy may queue per entry per launch.
    u64 prefetch_lookahead = 2;
  };

  explicit MemoryManager(cudart::CudaRt& rt) : MemoryManager(rt, Config{}) {}
  MemoryManager(cudart::CudaRt& rt, Config config);

  // ---- Context lifecycle ---------------------------------------------------
  void add_context(ContextId ctx);
  /// Frees everything the context still holds (device + swap).
  void remove_context(ContextId ctx);

  // ---- Table-1 operations (caller holds the context's ContextLock) --------
  StatusOr<VirtualPtr> on_malloc(ContextId ctx, u64 size);
  /// `bound_client`: the vGPU client this context is currently bound to, if
  /// any -- enables the eager (non-deferred) configuration.
  Status on_copy_h2d(ContextId ctx, VirtualPtr dst, std::span<const std::byte> src,
                     std::optional<ClientId> bound_client);
  Status on_copy_d2h(ContextId ctx, std::span<std::byte> dst, VirtualPtr src, u64 size);
  Status on_copy_d2d(ContextId ctx, VirtualPtr dst, VirtualPtr src, u64 size);
  Status on_free(ContextId ctx, VirtualPtr ptr);
  Status register_nested(ContextId ctx, VirtualPtr parent, const std::vector<NestedRef>& refs);

  // ---- Launch-time materialization ----------------------------------------
  enum class PrepareOutcome {
    Ready,       ///< all referenced entries resident; `translated` valid
    WouldBlock,  ///< device memory exhausted and no local eviction possible:
                 ///< the caller should run inter-app swap or unbind+retry
    Error,       ///< a hard error (see `error`)
  };

  struct PrepareResult {
    PrepareOutcome outcome = PrepareOutcome::Error;
    Status error = Status::Ok;
    u64 needed_bytes = 0;  ///< on WouldBlock: size of the failed allocation
    std::vector<sim::KernelArg> translated;  ///< virtual -> device pointers
  };

  /// Materializes every page-table entry referenced by `args` on the GPU
  /// behind `client` (allocate on demand, bulk-copy deferred data, patch
  /// nested pointers, evict own idle entries on OOM) and translates the
  /// pointer arguments. Marks referenced entries device-dirty.
  PrepareResult prepare_launch(ContextId ctx, GpuId gpu, ClientId client,
                               const std::vector<sim::KernelArg>& args);

  // ---- Swapping / checkpoint ------------------------------------------------
  /// Writes back and frees every resident entry of `ctx` (inter-application
  /// swap victim path, migration, and the paper's Swap internal call).
  /// Caller holds the victim's ContextLock.
  Status swap_context(ContextId ctx);

  /// Preemptive swap-out (quantum expiry): the same dirty-interval
  /// write-back as swap_context, counted separately so rotation traffic is
  /// distinguishable from OOM-driven inter-application swap. Caller holds
  /// the victim's ContextLock.
  Status preempt_swap_out(ContextId ctx);

  /// Synchronizes all dirty entries to swap but keeps them resident:
  /// afterwards the swap area is a consistent checkpoint.
  Status checkpoint(ContextId ctx);

  /// Serializes the context's full memory state (PTE metadata, nested
  /// references, swap bytes) into a flat image; syncs dirty entries first.
  /// See core/checkpoint.hpp. Caller holds the ContextLock.
  StatusOr<std::vector<u8>> export_image(ContextId ctx);

  /// Replaces the context's memory state with a previously exported image.
  /// Virtual addresses are preserved; device residency starts empty (data
  /// re-materializes from swap on the next launch).
  Status import_image(ContextId ctx, std::span<const u8> image);

  /// Marks every entry resident on `gpu` as lost: data recovers from the
  /// swap copy (the implicit checkpoint) at next materialization. Caller
  /// holds the context's ContextLock.
  void on_device_lost(ContextId ctx, GpuId gpu);

  // ---- Live migration (caller holds the ContextLock) ------------------------
  //
  // Pre-copy protocol: the source arms dirty tracking, exports the sparse
  // image (round 0) and keeps serving the job; each collect call drains the
  // byte ranges mutated since the previous one into a position-independent
  // delta. The final collect happens with the connection quiesced (the
  // stop-and-copy), after which the target holds an exact replica.

  /// Arms pre-copy dirty tracking. Call under the same ContextLock hold as
  /// the round-0 export_image so no mutation falls between them.
  Status begin_migration(ContextId ctx);
  /// Serializes every entry mutated since begin/last collect (syncing its
  /// device-dirty ranges to swap first -- costed D2H) plus freed-entry
  /// tombstones, then clears the recorded set. Tracking stays armed.
  StatusOr<std::vector<u8>> collect_migration_delta(ContextId ctx);
  /// Disarms pre-copy tracking (migration committed or aborted).
  void end_migration(ContextId ctx);
  /// Applies a collected delta on the migration target: creates or
  /// refreshes entries, processes tombstones. Touched entries re-
  /// materialize from swap on the next launch.
  Status apply_migration_delta(ContextId ctx, std::span<const u8> delta);
  /// Bytes a naive freeze-ship-resume would move: the full (non-sparse)
  /// footprint of every entry plus headers -- the bench_migration baseline.
  u64 naive_image_bytes(ContextId ctx) const;

  // ---- Queries (thread-safe, no context lock needed) ------------------------
  /// Bytes of `ctx` data currently resident on `gpu`.
  u64 resident_bytes(ContextId ctx, GpuId gpu) const;
  /// GPU where this context has resident data (unique by construction), if any.
  std::optional<GpuId> residency(ContextId ctx) const;
  /// Total allocation footprint of the context (MemUsage in the paper).
  u64 mem_usage(ContextId ctx) const;
  /// Contexts other than `requester` with at least `needed` resident bytes
  /// on `gpu` -- inter-application swap victim candidates, LRU first.
  std::vector<ContextId> victim_candidates(GpuId gpu, u64 needed, ContextId requester) const;

  /// Called by the runtime when an inter-application swap victim was
  /// evicted (the memory manager performs the eviction via swap_context but
  /// cannot tell why it was asked).
  void count_inter_app_swap();

  MemStats stats() const;
  Config config() const { return config_; }

 private:
  /// Pre-copy dirty tracking for one migration attempt. Guarded -- like
  /// `entries` -- by the caller's ContextLock: every recording site already
  /// holds it. Ranges are swap-level: a device write counts when its
  /// write-set is declared (prepare_launch dirty marking), and the collect
  /// pass syncs those ranges into swap before reading them.
  struct MigrationEpoch {
    bool active = false;
    std::map<VirtualPtr, IntervalSet> dirty;  ///< keyed by entry base vptr
    std::vector<VirtualPtr> freed;            ///< tombstones since last collect
  };

  struct CtxMem {
    ContextId self{};  ///< owning context (for the cross-context LRU index)
    std::map<VirtualPtr, std::unique_ptr<PageTableEntry>> entries;
    /// Indexed LRU over *allocated* entries, keyed by (last_use, vptr):
    /// begin() is the exact entry the old O(entries) victim scan would have
    /// picked (oldest stamp, lowest virtual address on ties). Maintained on
    /// every last_use update / allocation / eviction, guarded -- like
    /// `entries` -- by the caller's ContextLock.
    std::map<std::pair<i64, u64>, PageTableEntry*> lru;
    std::atomic<u64> total_bytes{0};
    std::atomic<u64> resident_bytes{0};
    std::atomic<u64> resident_gpu{0};  // GpuId.value; 0 = none
    std::atomic<i64> last_use_ns{0};
    MigrationEpoch epoch;  ///< guarded by the caller's ContextLock

    // ---- Paged-engine per-context state (Config::paging) --------------------
    // Guarded -- like `entries` -- by the caller's ContextLock. Deterministic
    // by construction: the LRU order is a tick counter bumped per access,
    // never wall-clock, so identical launch sequences replay identical
    // hit/miss streams (the chaos determinism suite holds us to it).

    /// Software TLB over (entry vptr, page index) translations.
    struct Tlb {
      std::map<std::pair<u64, u64>, u64> slot;  ///< key -> tick of last access
      std::map<u64, std::pair<u64, u64>> order; ///< tick -> key (LRU = begin)
      u64 tick = 0;
    };
    Tlb tlb;
    /// Per-context policy instances (stateful prefetchers must not share
    /// observations across tenants). Null when paging is off or the
    /// prefetch policy is "none".
    std::unique_ptr<EvictionPolicy> evict;
    std::unique_ptr<PrefetchPolicy> prefetch;
  };

  using CtxMemPtr = std::shared_ptr<CtxMem>;

  CtxMemPtr find(ContextId ctx) const;

  /// A located page-table entry: the entry containing a (possibly interior)
  /// virtual pointer and the offset within it. `pte == nullptr` = miss.
  struct Located {
    PageTableEntry* pte = nullptr;
    u64 offset = 0;
  };
  static Located locate(CtxMem& mem, VirtualPtr ptr);

  // ---- Indexed LRU maintenance (caller holds the ContextLock) -------------
  /// Re-stamps the entry's last_use and moves it to the MRU position.
  static void lru_touch(CtxMem& mem, PageTableEntry& pte, vt::TimePoint stamp);
  /// Unlinks the entry (eviction, free, device loss).
  static void lru_remove(CtxMem& mem, PageTableEntry& pte);

  // ---- Cross-context LRU directory (its own mutex; no ContextLock) --------
  /// Records that `mem` has residency on `gpu` as of `now_ns`.
  void ctx_lru_touch(CtxMem& mem, u64 gpu, i64 now_ns) const;
  /// Drops the context from the directory (residency gone).
  void ctx_lru_remove(CtxMem& mem) const;

  /// The byte ranges a swap-path D2H write-back of this entry must ship
  /// (whole entry in naive mode, consolidated dev_dirty otherwise).
  std::vector<ByteRange> writeback_ranges(const PageTableEntry& pte) const;
  /// The byte ranges a re-materializing H2D upload must ship.
  std::vector<ByteRange> upload_ranges(const PageTableEntry& pte) const;

  /// Ensures the device copy is synced into swap (costed d2h when dirty).
  Status sync_to_swap(PageTableEntry& pte);

  /// Blocks until any in-flight asynchronous write-back of this entry has
  /// drained (modeled time only; the bytes are already in place). Call
  /// before *reading* the entry's swap bytes.
  void fence_writeback(PageTableEntry& pte);

  /// Writes back (if dirty) and frees the device allocation. Updates
  /// accounting. The paper's `Swap` internal call, for one entry. With
  /// async_writeback the D2H drain overlaps the caller's subsequent work.
  Status swap_entry(CtxMem& mem, PageTableEntry& pte);

  /// CUDA 4 direct migration of one resident entry to `gpu`; false on any
  /// obstacle (caller falls back to the swap path).
  bool try_peer_move(CtxMem& mem, PageTableEntry& pte, GpuId gpu, ClientId client);

  /// After device->swap writeback of a nested parent, the swap image must
  /// hold virtual (position-independent) pointers again.
  void rewrite_nested_to_virtual(CtxMem& mem, PageTableEntry& pte);
  /// After materialization, pointer slots on the device must hold the
  /// children's device addresses.
  Status patch_nested_on_device(CtxMem& mem, PageTableEntry& pte);

  /// Transitive closure over nested references, children first.
  static std::vector<PageTableEntry*> nested_closure(CtxMem& mem,
                                                     std::vector<PageTableEntry*> roots);

  /// Records `[begin, end)` of `pte` in the armed migration epoch (no-op
  /// when tracking is off). Call wherever the swap-level content or
  /// metadata of an entry changes.
  static void epoch_mark(CtxMem& mem, const PageTableEntry& pte, u64 begin, u64 end);

  // ---- Paged engine (caller holds the ContextLock) -------------------------
  /// Blocks until any in-flight asynchronous prefetch page-in of this entry
  /// has landed (modeled time; bytes are already in place). Call before a
  /// launch consumes the entry's device bytes.
  void fence_upload(PageTableEntry& pte);
  /// Drops every TLB translation of the entry (eviction, free, device loss,
  /// image import -- any point its device residency dissolves).
  static void tlb_flush_entry(CtxMem& mem, const PageTableEntry& pte);
  /// One TLB access for (entry, page); returns true on hit. Evicts the
  /// least-recently-ticked translation at capacity.
  bool tlb_access(CtxMem& mem, const PageTableEntry& pte, u64 page);
  /// Entry page count under the configured page size (>= 1 for size > 0).
  u64 page_count_of(const PageTableEntry& pte) const;
  /// Stamps page-use recency for the touched pages (grows page_use_ns
  /// lazily on first paged touch).
  void stamp_pages(PageTableEntry& pte, const std::vector<u64>& pages, i64 now_ns);

  cudart::CudaRt* rt_;
  Config config_;

  /// Per-context page tables, sharded by context id: tenants' memory ops
  /// touch only their own shard (leaf lock, held for map lookup only).
  ShardedMap<ContextId, CtxMemPtr> contexts_;
  /// Lock-free virtual-address bump allocator (256-aligned spans).
  std::atomic<u64> va_next_{1ull << 48};

  /// Bumped concurrently through std::atomic_ref (bump); read by stats().
  mutable MemStats stats_;

  /// Inter-application victim directory: contexts with device residency,
  /// keyed by (gpu, last_use_ns, ctx) so victim_candidates() is an in-order
  /// walk of one gpu's slice instead of a scan over every context. Guarded
  /// by its own leaf mutex (held for map surgery only).
  struct CtxLruDirectory {
    mutable std::mutex mu;
    std::map<std::tuple<u64, i64, u64>, CtxMem*> order;  // (gpu, stamp, ctx)
    std::map<u64, std::tuple<u64, i64, u64>> where;      // ctx -> current key
  };
  mutable CtxLruDirectory ctx_lru_;
};

}  // namespace gpuvm::core

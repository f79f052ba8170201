// First-fit address-space allocator for simulated device memory.
//
// Real cudaMalloc can fail even when total free bytes would suffice, because
// the free space is fragmented. The paper's memory manager explicitly copes
// with this ("because of possible memory fragmentation on GPU, the runtime
// may need to use the return code of the GPU memory allocation function"),
// so the simulated allocator reproduces fragmentation: allocations carve
// ranges out of a free list of [offset, offset+size) holes, frees coalesce
// with neighbours, and an allocation fails if no single hole fits even when
// the aggregate free space does.
#pragma once

#include <cstddef>
#include <map>
#include <optional>

#include "common/types.hpp"

namespace gpuvm::sim {

class AddressSpaceAllocator {
 public:
  /// Manages [base, base + capacity). `base` is nonzero so that offset 0
  /// can serve as the null device pointer.
  AddressSpaceAllocator(u64 base, u64 capacity, u64 alignment = 256);

  /// Returns the start address of a free range of `size` bytes (first fit),
  /// or nullopt if no single hole is large enough. Zero-sized allocations
  /// are rounded up to one alignment unit (as real allocators do).
  std::optional<u64> allocate(u64 size);

  /// Releases a range previously returned by allocate. Returns false if
  /// `addr` is not a live allocation.
  bool release(u64 addr);

  /// Size of the live allocation at `addr`, if any.
  std::optional<u64> allocation_size(u64 addr) const;

  u64 base() const { return base_; }
  u64 capacity() const { return capacity_; }
  u64 used_bytes() const { return used_; }
  u64 free_bytes() const { return capacity_ - used_; }
  /// Largest single allocatable block (shows fragmentation).
  u64 largest_free_block() const;
  size_t allocation_count() const { return live_.size(); }
  size_t hole_count() const { return holes_.size(); }

  /// Internal-consistency check used by property tests: holes are sorted,
  /// non-adjacent, non-overlapping, disjoint from live allocations, and
  /// hole + live bytes == capacity.
  bool check_invariants() const;

 private:
  u64 align_up(u64 v) const { return (v + alignment_ - 1) / alignment_ * alignment_; }

  u64 base_;
  u64 capacity_;
  u64 alignment_;
  u64 used_ = 0;
  std::map<u64, u64> holes_;  // start -> size, keyed for coalescing
  std::map<u64, u64> live_;   // start -> size
};

}  // namespace gpuvm::sim

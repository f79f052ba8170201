// Tests for the first-fit device-memory allocator (sim/allocator.hpp).
#include "sim/allocator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace gpuvm::sim {
namespace {

constexpr u64 kBase = 1 << 20;

TEST(Allocator, AllocatesAndFrees) {
  AddressSpaceAllocator a(kBase, 4096);
  auto p = a.allocate(1000);
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(*p, kBase);
  EXPECT_EQ(a.used_bytes(), 1024u);  // aligned up to 256
  EXPECT_TRUE(a.release(*p));
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_TRUE(a.check_invariants());
}

TEST(Allocator, ZeroSizeAllocationTakesOneUnit) {
  AddressSpaceAllocator a(kBase, 4096);
  auto p = a.allocate(0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.used_bytes(), 256u);
  EXPECT_TRUE(a.check_invariants());
}

TEST(Allocator, FailsWhenFull) {
  AddressSpaceAllocator a(kBase, 1024);
  EXPECT_TRUE(a.allocate(1024).has_value());
  EXPECT_FALSE(a.allocate(1).has_value());
  EXPECT_TRUE(a.check_invariants());
}

TEST(Allocator, ReleaseUnknownAddressFails) {
  AddressSpaceAllocator a(kBase, 4096);
  EXPECT_FALSE(a.release(kBase + 17));
  auto p = a.allocate(256);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(a.release(*p + 1));  // interior pointer is not the handle
  EXPECT_TRUE(a.release(*p));
  EXPECT_FALSE(a.release(*p));  // double free
}

TEST(Allocator, FragmentationBlocksLargeAllocation) {
  // Fill with 4 blocks, free two non-adjacent ones: aggregate free space
  // fits the request but no single hole does -- allocation must fail.
  AddressSpaceAllocator a(kBase, 4096);
  std::vector<u64> ptrs;
  for (int i = 0; i < 4; ++i) {
    auto p = a.allocate(1024);
    ASSERT_TRUE(p.has_value());
    ptrs.push_back(*p);
  }
  EXPECT_TRUE(a.release(ptrs[0]));
  EXPECT_TRUE(a.release(ptrs[2]));
  EXPECT_EQ(a.free_bytes(), 2048u);
  EXPECT_EQ(a.largest_free_block(), 1024u);
  EXPECT_FALSE(a.allocate(2048).has_value());
  EXPECT_TRUE(a.allocate(1024).has_value());
  EXPECT_TRUE(a.check_invariants());
}

TEST(Allocator, CoalescesAdjacentHoles) {
  AddressSpaceAllocator a(kBase, 4096);
  auto p0 = a.allocate(1024);
  auto p1 = a.allocate(1024);
  auto p2 = a.allocate(1024);
  ASSERT_TRUE(p0 && p1 && p2);
  EXPECT_TRUE(a.release(*p0));
  EXPECT_TRUE(a.release(*p2));
  EXPECT_TRUE(a.release(*p1));  // bridges both neighbours
  EXPECT_EQ(a.hole_count(), 1u);
  EXPECT_EQ(a.largest_free_block(), 4096u);
  EXPECT_TRUE(a.check_invariants());
}

TEST(Allocator, FirstFitPrefersLowestHole) {
  AddressSpaceAllocator a(kBase, 8192);
  auto p0 = a.allocate(1024);
  auto p1 = a.allocate(1024);
  ASSERT_TRUE(p0 && p1);
  EXPECT_TRUE(a.release(*p0));
  auto p2 = a.allocate(512);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(*p2, *p0);  // reuses the first hole
}

TEST(Allocator, AllocationSizeReportsAlignedSize) {
  AddressSpaceAllocator a(kBase, 4096);
  auto p = a.allocate(300);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.allocation_size(*p).value(), 512u);
  EXPECT_FALSE(a.allocation_size(*p + 256).has_value());
}

// Property test: random alloc/free soak keeps all invariants and never
// leaks or double-counts.
class AllocatorSoak : public ::testing::TestWithParam<u64> {};

TEST_P(AllocatorSoak, RandomOpsPreserveInvariants) {
  Rng rng(GetParam());
  AddressSpaceAllocator a(kBase, 1 << 20);
  std::map<u64, u64> live;  // addr -> requested size
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      const u64 size = rng.below(16 * 1024) + 1;
      auto p = a.allocate(size);
      if (p.has_value()) {
        ASSERT_TRUE(live.emplace(*p, size).second) << "allocator returned a live address";
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      ASSERT_TRUE(a.release(it->first));
      live.erase(it);
    }
    if (step % 256 == 0) {
      ASSERT_TRUE(a.check_invariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(a.check_invariants());
  for (const auto& [addr, size] : live) EXPECT_TRUE(a.release(addr));
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.hole_count(), 1u);
  EXPECT_EQ(a.largest_free_block(), 1u << 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorSoak, ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace gpuvm::sim

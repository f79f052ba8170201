// Tests for the simulated GPU device (sim/sim_gpu.hpp) and machine.
#include "sim/sim_gpu.hpp"

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "sim/machine.hpp"

namespace gpuvm::sim {
namespace {

std::span<const std::byte> as_bytes(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}
std::span<std::byte> as_writable_bytes(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

class SimGpuTest : public ::testing::Test {
 protected:
  SimGpuTest() : guard_(dom_), gpu_(GpuId{1}, test_gpu(1 << 20), SimParams{1}, dom_) {}

  vt::Domain dom_;
  vt::AttachGuard guard_;
  SimGpu gpu_;
};

TEST_F(SimGpuTest, MallocCopyRoundTrip) {
  auto ptr = gpu_.malloc(1024 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());

  std::vector<float> src(1024);
  std::iota(src.begin(), src.end(), 0.0f);
  ASSERT_EQ(gpu_.copy_to_device(ptr.value(), as_bytes(src)), Status::Ok);

  std::vector<float> dst(1024, -1.0f);
  ASSERT_EQ(gpu_.copy_from_device(as_writable_bytes(dst), ptr.value(), dst.size() * sizeof(float)),
            Status::Ok);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, TransfersTakeModeledTime) {
  auto ptr = gpu_.malloc(1 << 18);
  ASSERT_TRUE(ptr.has_value());
  std::vector<std::byte> buf(1 << 18);
  const vt::TimePoint before = dom_.now();
  ASSERT_EQ(gpu_.copy_to_device(ptr.value(), buf), Status::Ok);
  const vt::Duration took = dom_.now() - before;
  // 256 KiB over 5 GB/s is ~52us, plus 1us fixed latency.
  const vt::Duration expected = transfer_time(gpu_.spec(), gpu_.params(), 1 << 18);
  EXPECT_EQ(took, expected);
  EXPECT_GT(took, vt::from_micros(50));
  EXPECT_LT(took, vt::from_micros(60));
}

TEST_F(SimGpuTest, OutOfMemoryReturnsAllocationError) {
  auto big = gpu_.malloc(1 << 20);
  ASSERT_TRUE(big.has_value());
  auto fail = gpu_.malloc(1);
  EXPECT_EQ(fail.status(), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.free(big.value()), Status::Ok);
  EXPECT_TRUE(gpu_.malloc(1).has_value());
}

TEST_F(SimGpuTest, InteriorPointerCopyWorks) {
  auto ptr = gpu_.malloc(4096);
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> src{1.f, 2.f, 3.f};
  ASSERT_EQ(gpu_.copy_to_device(ptr.value() + 1024, as_bytes(src)), Status::Ok);
  std::vector<float> dst(3, 0.f);
  ASSERT_EQ(gpu_.copy_from_device(as_writable_bytes(dst), ptr.value() + 1024, sizeof(float) * 3),
            Status::Ok);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, OutOfBoundsCopyRejected) {
  auto ptr = gpu_.malloc(1024);
  ASSERT_TRUE(ptr.has_value());
  std::vector<std::byte> big(2048);
  EXPECT_EQ(gpu_.copy_to_device(ptr.value(), big), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.copy_to_device(ptr.value() + 512, std::span(big).first(1024)),
            Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.copy_to_device(kNullDevicePtr, std::span(big).first(16)),
            Status::ErrorInvalidDevicePointer);
}

TEST_F(SimGpuTest, FreeInvalidPointerRejected) {
  EXPECT_EQ(gpu_.free(DevicePtr{123456}), Status::ErrorInvalidDevicePointer);
  auto ptr = gpu_.malloc(256);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(gpu_.free(ptr.value()), Status::Ok);
  EXPECT_EQ(gpu_.free(ptr.value()), Status::ErrorInvalidDevicePointer);
}

TEST_F(SimGpuTest, KernelExecutesBodyOverDeviceData) {
  KernelDef def;
  def.name = "scale2";
  def.body = [](KernelExecContext& ctx) {
    auto data = ctx.buffer<float>(0);
    const i64 n = ctx.scalar_i64(1);
    for (i64 i = 0; i < n; ++i) data[static_cast<size_t>(i)] *= 2.0f;
    return Status::Ok;
  };
  def.cost = per_thread_cost(1.0, 8.0);

  auto ptr = gpu_.malloc(128 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> src(128, 3.0f);
  ASSERT_EQ(gpu_.copy_to_device(ptr.value(), as_bytes(src)), Status::Ok);

  LaunchConfig config{{1, 1, 1}, {128, 1, 1}};
  ASSERT_EQ(gpu_.launch(def, config, {KernelArg::dev(ptr.value()), KernelArg::i64v(128)}),
            Status::Ok);

  std::vector<float> out(128);
  ASSERT_EQ(gpu_.copy_from_device(as_writable_bytes(out), ptr.value(), out.size() * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 6.0f);
  EXPECT_EQ(gpu_.stats().kernels_launched, 1u);
}

TEST_F(SimGpuTest, KernelTimeScalesWithLaunchGeometry) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  def.cost = per_thread_cost(1000.0, 0.0);

  const vt::TimePoint t0 = dom_.now();
  ASSERT_EQ(gpu_.launch(def, {{64, 1, 1}, {256, 1, 1}}, {}), Status::Ok);
  const vt::Duration small = dom_.now() - t0;

  const vt::TimePoint t1 = dom_.now();
  ASSERT_EQ(gpu_.launch(def, {{640, 1, 1}, {256, 1, 1}}, {}), Status::Ok);
  const vt::Duration large = dom_.now() - t1;

  // 10x the threads => ~10x the compute time (minus fixed launch overhead).
  const double ratio = static_cast<double>(large.count()) / static_cast<double>(small.count());
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 10.5);
}

TEST_F(SimGpuTest, InvalidLaunchConfigurationsRejected) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  EXPECT_EQ(gpu_.launch(def, {{0, 1, 1}, {32, 1, 1}}, {}), Status::ErrorInvalidConfiguration);
  EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {2048, 1, 1}}, {}), Status::ErrorInvalidConfiguration);
}

TEST_F(SimGpuTest, LaunchWithStalePointerRejected) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  auto ptr = gpu_.malloc(256);
  ASSERT_TRUE(ptr.has_value());
  ASSERT_EQ(gpu_.free(ptr.value()), Status::Ok);
  EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {32, 1, 1}}, {KernelArg::dev(ptr.value())}),
            Status::ErrorInvalidDevicePointer);
}

TEST_F(SimGpuTest, ComputeEngineSerializesKernelsFcfs) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  // 100 GFLOPS effective, 1e8 flops => 1ms each.
  def.cost = [](const LaunchConfig&, const std::vector<KernelArg>&) {
    return KernelCost{1e8, 0.0};
  };

  vt::TimePoint end_a{};
  vt::TimePoint end_b{};
  {
    dom_.hold();
    vt::Thread a(dom_, [&] {
      EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {32, 1, 1}}, {}), Status::Ok);
      end_a = dom_.now();
    });
    vt::Thread b(dom_, [&] {
      EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {32, 1, 1}}, {}), Status::Ok);
      end_b = dom_.now();
    });
    dom_.unhold();
  }
  // Two 1ms kernels on one compute engine: the later one ends at ~2ms.
  const vt::TimePoint later = std::max(end_a, end_b);
  EXPECT_GE(later, vt::from_millis(2));
  EXPECT_LT(later, vt::from_millis(2.1));
}

TEST_F(SimGpuTest, FailureInjectionFailsAllOps) {
  auto ptr = gpu_.malloc(256);
  ASSERT_TRUE(ptr.has_value());
  gpu_.inject_failure();
  EXPECT_FALSE(gpu_.healthy());
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorDeviceUnavailable);
  EXPECT_EQ(gpu_.free(ptr.value()), Status::ErrorDeviceUnavailable);
  std::vector<std::byte> buf(16);
  EXPECT_EQ(gpu_.copy_to_device(ptr.value(), buf), Status::ErrorDeviceUnavailable);
}

TEST_F(SimGpuTest, FailAfterOpsCountsDown) {
  gpu_.fail_after_ops(2);
  EXPECT_TRUE(gpu_.malloc(16).has_value());
  EXPECT_TRUE(gpu_.malloc(16).has_value());
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorDeviceUnavailable);
  EXPECT_FALSE(gpu_.healthy());
}

// Chaos audit: the fail_after_ops countdown is decremented by every costed
// op from every vt thread concurrently. The 1 -> 0 transition must fire the
// failure exactly once -- no double-fire, no lost budget -- so with a budget
// of 100 ops, exactly 100 succeed no matter how many threads hammer it.
TEST_F(SimGpuTest, FailAfterOpsExactlyOnceUnderConcurrentHammer) {
  constexpr int kThreads = 16;
  constexpr int kAttemptsPerThread = 20;  // 320 attempts >> 100 budget
  constexpr u64 kBudget = 100;
  gpu_.fail_after_ops(kBudget);

  std::atomic<u64> ok{0};
  std::atomic<u64> unavailable{0};
  {
    std::vector<vt::Thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(dom_, [this, &ok, &unavailable] {
        for (int i = 0; i < kAttemptsPerThread; ++i) {
          auto r = gpu_.malloc(16);
          if (r.has_value()) ok.fetch_add(1, std::memory_order_relaxed);
          else if (r.status() == Status::ErrorDeviceUnavailable) {
            unavailable.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }  // joins

  EXPECT_EQ(ok.load(), kBudget);
  EXPECT_EQ(unavailable.load(), static_cast<u64>(kThreads * kAttemptsPerThread) - kBudget);
  EXPECT_FALSE(gpu_.healthy());
  EXPECT_EQ(gpu_.stats().injected_failures, 1u);
  EXPECT_EQ(gpu_.stats().mallocs, kBudget);
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorDeviceUnavailable);
}

TEST_F(SimGpuTest, AllocFaultPulseFailsAllocationsButKeepsDeviceHealthy) {
  gpu_.fail_next_allocs(2);
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorMemoryAllocation);
  EXPECT_TRUE(gpu_.healthy());
  auto ok = gpu_.malloc(16);
  EXPECT_TRUE(ok.has_value()) << to_string(ok.status());
  EXPECT_EQ(gpu_.stats().alloc_faults, 2u);
}

TEST_F(SimGpuTest, PeekPokeBypassTiming) {
  auto ptr = gpu_.malloc(64);
  ASSERT_TRUE(ptr.has_value());
  std::vector<std::byte> src(64, std::byte{0x5a});
  const vt::TimePoint before = dom_.now();
  ASSERT_EQ(gpu_.poke(ptr.value(), src), Status::Ok);
  std::vector<std::byte> dst(64);
  ASSERT_EQ(gpu_.peek(dst, ptr.value(), 64), Status::Ok);
  EXPECT_EQ(dom_.now(), before);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, DeviceToDeviceCopy) {
  auto a = gpu_.malloc(256);
  auto b = gpu_.malloc(256);
  ASSERT_TRUE(a && b);
  std::vector<std::byte> src(256, std::byte{7});
  ASSERT_EQ(gpu_.poke(a.value(), src), Status::Ok);
  ASSERT_EQ(gpu_.copy_device_to_device(b.value(), a.value(), 256), Status::Ok);
  std::vector<std::byte> dst(256);
  ASSERT_EQ(gpu_.peek(dst, b.value(), 256), Status::Ok);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, ReusedDeviceMemoryReadsAsZeroOnEveryPath) {
  // The device keeps its memory mapped across frees and zeroes only what a
  // read reaches before any write. Each read path gets its own reuse of
  // the freed address, so no path sees another path's zeroing.
  constexpr u64 kSize = 4096;
  constexpr u64 kWritten = 1024;  // [kWritten, 2 * kWritten) is written
  std::vector<std::byte> expected(kSize);
  std::fill_n(expected.begin() + kWritten, kWritten, std::byte{0x5c});
  const LaunchConfig config{{1, 1, 1}, {1, 1, 1}};

  auto d2d_target = gpu_.malloc(kSize);  // below the reused address
  ASSERT_TRUE(d2d_target.has_value());
  SimGpu peer(GpuId{2}, test_gpu(1 << 20), SimParams{1}, dom_);
  auto peer_target = peer.malloc(kSize);
  ASSERT_TRUE(peer_target.has_value());

  using Read = std::function<std::vector<std::byte>(DevicePtr)>;
  const auto through_kernel = [&](DevicePtr ptr, std::vector<KernelArg> args,
                                  bool nested) {
    std::vector<std::byte> seen;
    KernelDef def;
    def.name = "capture";
    def.body = [&seen, ptr, nested](KernelExecContext& ctx) {
      const std::span<std::byte> bytes = nested ? ctx.deref(ptr) : ctx.bytes(0);
      seen.assign(bytes.begin(), bytes.end());
      return Status::Ok;
    };
    EXPECT_EQ(gpu_.launch(def, config, args), Status::Ok);
    return seen;
  };
  const std::vector<std::pair<const char*, Read>> reads = {
      {"copy_from_device",
       [&](DevicePtr ptr) {
         std::vector<std::byte> out(kSize);
         EXPECT_EQ(gpu_.copy_from_device(out, ptr, kSize), Status::Ok);
         return out;
       }},
      {"copy_from_device_async",
       [&](DevicePtr ptr) {
         std::vector<std::byte> out(kSize);
         EXPECT_TRUE(gpu_.copy_from_device_async(out, ptr, kSize).has_value());
         return out;
       }},
      {"peek",
       [&](DevicePtr ptr) {
         std::vector<std::byte> out(kSize);
         EXPECT_EQ(gpu_.peek(out, ptr, kSize), Status::Ok);
         return out;
       }},
      {"copy_device_to_device source",
       [&](DevicePtr ptr) {
         std::vector<std::byte> out(kSize);
         EXPECT_EQ(gpu_.copy_device_to_device(d2d_target.value(), ptr, kSize), Status::Ok);
         EXPECT_EQ(gpu_.peek(out, d2d_target.value(), kSize), Status::Ok);
         return out;
       }},
      {"copy_from_peer source",
       [&](DevicePtr ptr) {
         std::vector<std::byte> out(kSize);
         EXPECT_EQ(peer.copy_from_peer(peer_target.value(), gpu_, ptr, kSize), Status::Ok);
         EXPECT_EQ(peer.peek(out, peer_target.value(), kSize), Status::Ok);
         return out;
       }},
      {"kernel argument",
       [&](DevicePtr ptr) { return through_kernel(ptr, {KernelArg::dev(ptr)}, false); }},
      {"nested resolver",
       [&](DevicePtr ptr) {
         return through_kernel(ptr, {KernelArg::i64v(static_cast<i64>(ptr))}, true);
       }},
  };
  for (const auto& [name, read] : reads) {
    SCOPED_TRACE(name);
    auto first = gpu_.malloc(kSize);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(gpu_.copy_to_device(first.value(), std::vector<std::byte>(kSize, std::byte{0xab})),
              Status::Ok);
    ASSERT_EQ(gpu_.free(first.value()), Status::Ok);
    auto reused = gpu_.malloc(kSize);
    ASSERT_TRUE(reused.has_value());
    ASSERT_EQ(reused.value(), first.value());  // first fit: the freed address
    ASSERT_EQ(gpu_.copy_to_device(reused.value() + kWritten,
                                  std::span(expected).subspan(kWritten, kWritten)),
              Status::Ok);
    EXPECT_EQ(read(reused.value()), expected);
    ASSERT_EQ(gpu_.free(reused.value()), Status::Ok);
  }
}

TEST_F(SimGpuTest, FreedDeviceMemoryIsPoisonedUnderAsan) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "built without AddressSanitizer";
#else
  // Freed device bytes stay mapped, so only the sanitizer's poison stops a
  // kernel or copy that uses a stale pointer.
  std::byte* bytes = nullptr;
  KernelDef def;
  def.name = "capture";
  def.body = [&bytes](KernelExecContext& ctx) {
    bytes = ctx.bytes(0).data();
    return Status::Ok;
  };
  auto ptr = gpu_.malloc(4096);
  ASSERT_TRUE(ptr.has_value());
  ASSERT_EQ(gpu_.launch(def, {{1, 1, 1}, {1, 1, 1}}, {KernelArg::dev(ptr.value())}), Status::Ok);
  ASSERT_NE(bytes, nullptr);
  EXPECT_FALSE(__asan_address_is_poisoned(bytes));
  ASSERT_EQ(gpu_.free(ptr.value()), Status::Ok);
  EXPECT_TRUE(__asan_address_is_poisoned(bytes));
  EXPECT_TRUE(__asan_address_is_poisoned(bytes + 4095));
  auto again = gpu_.malloc(4096);
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again.value(), ptr.value());
  EXPECT_FALSE(__asan_address_is_poisoned(bytes));
  EXPECT_FALSE(__asan_address_is_poisoned(bytes + 4095));
#endif
}

// ---- Launch reuse -------------------------------------------------------------

/// An idempotent dst[i] = src[i] over n floats that counts its body runs,
/// owned by a shared_ptr as the registry's defs are.
std::shared_ptr<KernelDef> counting_copy(int* runs) {
  auto def = std::make_shared<KernelDef>();
  def->name = "copy_into";
  def->idempotent = true;
  def->body = [runs](KernelExecContext& ctx) {
    ++*runs;
    auto src = ctx.buffer<float>(0);
    auto dst = ctx.buffer<float>(1);
    const u64 n = static_cast<u64>(ctx.scalar_i64(2));
    if (src.size() < n || dst.size() < n) return Status::ErrorLaunchFailure;
    std::copy_n(src.begin(), n, dst.begin());
    return Status::Ok;
  };
  def->cost = per_thread_cost(1e5, 0.0);
  return def;
}

class LaunchReuseTest : public SimGpuTest {
 protected:
  static constexpr u64 kN = 256;
  static constexpr u64 kBytes = kN * sizeof(float);

  LaunchReuseTest() {
    src_ = gpu_.malloc(kBytes).value();
    dst_ = gpu_.malloc(kBytes).value();
    EXPECT_EQ(gpu_.copy_to_device(src_, as_bytes(fresh_values())), Status::Ok);
  }

  /// Values no buffer holds yet.
  std::vector<float> fresh_values() {
    std::vector<float> v(kN);
    std::iota(v.begin(), v.end(), static_cast<float>(++fills_) * 1000.0f);
    return v;
  }

  Status launch(const KernelDef& def, i64 n = kN, LaunchConfig config = kConfig) {
    return gpu_.launch(def, config,
                       {KernelArg::dev(src_), KernelArg::dev_out(dst_), KernelArg::i64v(n)});
  }
  Status launch() { return launch(*copy_); }

  std::vector<float> read(DevicePtr ptr) {
    std::vector<float> out(kN);
    EXPECT_EQ(gpu_.peek(as_writable_bytes(out), ptr, kBytes), Status::Ok);
    return out;
  }

  static constexpr LaunchConfig kConfig{{1, 1, 1}, {kN, 1, 1}};
  int runs_ = 0;
  int fills_ = 0;
  std::shared_ptr<KernelDef> copy_ = counting_copy(&runs_);
  DevicePtr src_ = kNullDevicePtr;
  DevicePtr dst_ = kNullDevicePtr;
};

TEST_F(LaunchReuseTest, UnchangedRelaunchesRunTheBodyOnceAndKeepTheirModeledTime) {
  constexpr int kLaunches = 8;
  const vt::Duration each = kernel_time(
      gpu_.spec(), copy_->cost(kConfig, {KernelArg::dev(src_), KernelArg::dev_out(dst_),
                                         KernelArg::i64v(static_cast<i64>(kN))}));
  ASSERT_GT(each, vt::Duration::zero());
  const GpuStats before = gpu_.stats();
  for (int i = 0; i < kLaunches; ++i) {
    const vt::TimePoint start = dom_.now();
    ASSERT_EQ(launch(), Status::Ok);
    EXPECT_EQ(dom_.now() - start, each) << "launch " << i;
  }
  EXPECT_EQ(runs_, 1);
  const GpuStats after = gpu_.stats();
  EXPECT_EQ(after.kernels_launched - before.kernels_launched, u64{kLaunches});
  EXPECT_EQ(after.reused_kernels - before.reused_kernels, u64{kLaunches - 1});
  EXPECT_DOUBLE_EQ(after.compute_busy_seconds - before.compute_busy_seconds,
                   kLaunches * vt::to_seconds(each));
  EXPECT_EQ(read(dst_), read(src_));
}

TEST_F(LaunchReuseTest, EveryChangeToTheRunRunsTheBodyAgain) {
  SimGpu peer(GpuId{2}, test_gpu(1 << 20), SimParams{1}, dom_);
  const DevicePtr peer_buf = peer.malloc(kBytes).value();
  const DevicePtr third = gpu_.malloc(kBytes).value();
  int other_runs = 0;
  const std::shared_ptr<KernelDef> other_copy = counting_copy(&other_runs);
  KernelDef scale2;  // not idempotent
  scale2.name = "scale2";
  scale2.body = [](KernelExecContext& ctx) {
    for (float& v : ctx.buffer<float>(0)) v *= 2.0f;
    return Status::Ok;
  };
  KernelDef nested_fill;  // writes what its scalar points to
  nested_fill.name = "nested_fill";
  nested_fill.body = [](KernelExecContext& ctx) {
    for (float& v : ctx.deref_as<float>(static_cast<DevicePtr>(ctx.scalar_i64(0)))) v = 7.0f;
    return Status::Ok;
  };
  const LaunchConfig one{{1, 1, 1}, {1, 1, 1}};

  const std::vector<std::pair<const char*, std::function<void()>>> changes = {
      {"copy_to_device into the input",
       [&] { ASSERT_EQ(gpu_.copy_to_device(src_, as_bytes(fresh_values())), Status::Ok); }},
      {"copy_to_device into the output",
       [&] { ASSERT_EQ(gpu_.copy_to_device(dst_, as_bytes(fresh_values())), Status::Ok); }},
      {"copy_to_device_async into the input",
       [&] {
         const std::vector<float> values = fresh_values();
         ASSERT_TRUE(gpu_.copy_to_device_async(src_, as_bytes(values)).has_value());
       }},
      {"poke into the output",
       [&] { ASSERT_EQ(gpu_.poke(dst_, as_bytes(fresh_values())), Status::Ok); }},
      {"copy_device_to_device into the input",
       [&] {
         ASSERT_EQ(gpu_.poke(third, as_bytes(fresh_values())), Status::Ok);
         ASSERT_EQ(gpu_.copy_device_to_device(src_, third, kBytes), Status::Ok);
       }},
      {"copy_from_peer into the output",
       [&] {
         ASSERT_EQ(peer.poke(peer_buf, as_bytes(fresh_values())), Status::Ok);
         ASSERT_EQ(gpu_.copy_from_peer(dst_, peer, peer_buf, kBytes), Status::Ok);
       }},
      {"free and malloc of the input at its address",
       [&] {
         ASSERT_EQ(gpu_.free(src_), Status::Ok);
         ASSERT_EQ(gpu_.malloc(kBytes).value(), src_);  // reads as zeroes
       }},
      {"free and malloc of the output at its address",
       [&] {
         ASSERT_EQ(gpu_.free(dst_), Status::Ok);
         ASSERT_EQ(gpu_.malloc(kBytes).value(), dst_);
       }},
      {"a non-idempotent kernel writing the output",
       [&] { ASSERT_EQ(gpu_.launch(scale2, one, {KernelArg::dev_out(dst_)}), Status::Ok); }},
      {"a kernel writing the output through a nested pointer",
       [&] {
         ASSERT_EQ(gpu_.launch(nested_fill, one, {KernelArg::i64v(static_cast<i64>(dst_))}),
                   Status::Ok);
       }},
      {"an idempotent run of another def over the same arguments",
       [&] { ASSERT_EQ(launch(*other_copy), Status::Ok); }},
      {"a launch with another scalar", [&] { ASSERT_EQ(launch(*copy_, kN / 2), Status::Ok); }},
      {"a launch with another grid",
       [&] { ASSERT_EQ(launch(*copy_, kN, {{2, 1, 1}, {kN, 1, 1}}), Status::Ok); }},
  };
  for (const auto& [name, change] : changes) {
    SCOPED_TRACE(name);
    ASSERT_EQ(launch(), Status::Ok);
    ASSERT_EQ(launch(), Status::Ok);  // reused: nothing changed
    change();
    const int runs = runs_;  // the scalar and grid changes ran the body themselves
    ASSERT_EQ(launch(), Status::Ok);
    EXPECT_EQ(runs_, runs + 1);
    EXPECT_EQ(read(dst_), read(src_));
    ASSERT_EQ(launch(), Status::Ok);
    EXPECT_EQ(runs_, runs + 1) << "the new run is not reused";
  }
}

TEST_F(LaunchReuseTest, SameNameReRegistrationRunsTheNewBody) {
  KernelRegistry registry;
  registry.add(*copy_);
  ASSERT_EQ(launch(*registry.find("copy_into")), Status::Ok);
  ASSERT_EQ(launch(*registry.find("copy_into")), Status::Ok);
  EXPECT_EQ(runs_, 1);
  KernelDef doubled = *copy_;  // same name, a new body
  doubled.body = [](KernelExecContext& ctx) {
    auto src = ctx.buffer<float>(0);
    auto dst = ctx.buffer<float>(1);
    for (u64 i = 0; i < static_cast<u64>(ctx.scalar_i64(2)); ++i) dst[i] = 2.0f * src[i];
    return Status::Ok;
  };
  registry.add(doubled);
  ASSERT_EQ(launch(*registry.find("copy_into")), Status::Ok);
  std::vector<float> want = read(src_);
  for (float& v : want) v *= 2.0f;
  EXPECT_EQ(read(dst_), want);
}

TEST_F(LaunchReuseTest, RunsThatCannotBeKeptAreNeverReused) {
  constexpr int kLaunches = 3;
  const auto runs_over = [&](const KernelDef& def, const std::vector<KernelArg>& args,
                             Status want) {
    const int before = runs_;
    for (int i = 0; i < kLaunches; ++i) EXPECT_EQ(gpu_.launch(def, kConfig, args), want);
    return runs_ - before;
  };
  const std::vector<KernelArg> normal = {KernelArg::dev(src_), KernelArg::dev_out(dst_),
                                         KernelArg::i64v(static_cast<i64>(kN))};

  // Two arguments in one allocation: the body's writes reach its input.
  EXPECT_EQ(runs_over(*copy_,
                      {KernelArg::dev(src_), KernelArg::dev_out(src_ + kBytes / 2),
                       KernelArg::i64v(static_cast<i64>(kN / 2))},
                      Status::Ok),
            kLaunches);

  // A failed body, which wrote its output first.
  auto failing = std::make_shared<KernelDef>(*copy_);
  failing->body = [this](KernelExecContext& ctx) {
    ++runs_;
    std::fill_n(ctx.buffer<float>(1).begin(), kN, -1.0f);
    return Status::ErrorLaunchFailure;
  };
  ASSERT_EQ(launch(), Status::Ok);
  EXPECT_EQ(runs_over(*failing, normal, Status::ErrorLaunchFailure), kLaunches);
  EXPECT_EQ(runs_over(*copy_, normal, Status::Ok), 1) << "the failed run's writes are undone";
  EXPECT_EQ(read(dst_), read(src_));

  // A body that read an allocation outside its arguments through a nested
  // pointer: a later write there would go unseen.
  const DevicePtr table = gpu_.malloc(kBytes).value();
  auto nested = std::make_shared<KernelDef>(*copy_);
  nested->body = [this](KernelExecContext& ctx) {
    ++runs_;
    const auto from = ctx.deref_as<float>(static_cast<DevicePtr>(ctx.scalar_i64(3)));
    std::copy_n(from.begin(), kN, ctx.buffer<float>(1).begin());
    return Status::Ok;
  };
  std::vector<KernelArg> through_table = normal;
  through_table.push_back(KernelArg::i64v(static_cast<i64>(table)));
  EXPECT_EQ(runs_over(*nested, through_table, Status::Ok), kLaunches);

  // A kernel not declared idempotent, or a def no shared_ptr owns (it has
  // no identity to key on).
  auto plain = std::make_shared<KernelDef>(*copy_);
  plain->idempotent = false;
  EXPECT_EQ(runs_over(*plain, normal, Status::Ok), kLaunches);
  KernelDef unowned = *copy_;
  EXPECT_EQ(runs_over(unowned, normal, Status::Ok), kLaunches);

  EXPECT_EQ(gpu_.stats().failed_ops, u64{kLaunches});
}

TEST(LaunchReuse, SkippedBodiesAreNeverCountedAsReused) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimParams params{1};
  params.execute_kernel_bodies = false;
  SimGpu gpu(GpuId{1}, test_gpu(1 << 20), params, dom);
  int runs = 0;
  const std::shared_ptr<KernelDef> def = counting_copy(&runs);
  const DevicePtr src = gpu.malloc(1024).value();
  const DevicePtr dst = gpu.malloc(1024).value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(gpu.launch(*def, {{1, 1, 1}, {1, 1, 1}},
                         {KernelArg::dev(src), KernelArg::dev_out(dst), KernelArg::i64v(256)}),
              Status::Ok);
  }
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(gpu.stats().kernels_launched, 3u);
  EXPECT_EQ(gpu.stats().reused_kernels, 0u);
}

// ---- SimMachine ------------------------------------------------------------

TEST(SimMachine, AddRemoveFailLifecycle) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  const GpuId a = machine.add_gpu(test_gpu());
  const GpuId b = machine.add_gpu(test_gpu());
  EXPECT_EQ(machine.gpus().size(), 2u);

  ASSERT_EQ(machine.remove_gpu(a), Status::Ok);
  EXPECT_EQ(machine.gpus().size(), 1u);
  EXPECT_EQ(machine.gpus()[0], b);
  EXPECT_NE(machine.gpu(a), nullptr);  // object survives for error reporting
  EXPECT_FALSE(machine.gpu(a)->healthy());

  EXPECT_EQ(machine.remove_gpu(a), Status::ErrorInvalidDevice);
  ASSERT_EQ(machine.fail_gpu(b), Status::Ok);
  EXPECT_TRUE(machine.gpus().empty());
}

TEST(SimMachine, TopologyNotifications) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  std::vector<std::pair<TopologyEvent, GpuId>> events;
  machine.subscribe([&](TopologyEvent e, GpuId id) { events.emplace_back(e, id); });

  const GpuId a = machine.add_gpu(test_gpu());
  const GpuId b = machine.add_gpu(test_gpu());
  ASSERT_EQ(machine.fail_gpu(a), Status::Ok);
  ASSERT_EQ(machine.remove_gpu(b), Status::Ok);

  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], (std::pair{TopologyEvent::GpuAdded, a}));
  EXPECT_EQ(events[1], (std::pair{TopologyEvent::GpuAdded, b}));
  EXPECT_EQ(events[2], (std::pair{TopologyEvent::GpuFailed, a}));
  EXPECT_EQ(events[3], (std::pair{TopologyEvent::GpuRemoved, b}));
}

TEST(SimMachine, MemoryListenersHearEverySuccessfulMallocAndFreeWhileSubscribed) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  SimGpu* first = machine.gpu(machine.add_gpu(test_gpu(1 << 20)));
  auto before = first->malloc(256);  // nobody listens yet
  ASSERT_TRUE(before.has_value());

  int heard = 0;
  const u64 handle = machine.subscribe_memory([&heard] { ++heard; });
  auto ptr = first->malloc(256);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(heard, 1);
  EXPECT_FALSE(first->malloc(u64{1} << 30).has_value());  // failed: nothing changed
  EXPECT_EQ(first->free(ptr.value() + 1), Status::ErrorInvalidDevicePointer);
  EXPECT_EQ(heard, 1);
  ASSERT_EQ(first->free(ptr.value()), Status::Ok);
  EXPECT_EQ(heard, 2);
  // A GPU added after the subscription is covered too.
  SimGpu* later = machine.gpu(machine.add_gpu(test_gpu(1 << 20)));
  ASSERT_TRUE(later->malloc(256).has_value());
  EXPECT_EQ(heard, 3);

  machine.unsubscribe_memory(handle);
  ASSERT_EQ(first->free(before.value()), Status::Ok);
  EXPECT_EQ(heard, 3);
}

TEST(SimMachine, DistinctAddressSpacesPerGpu) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  SimGpu* g1 = machine.gpu(machine.add_gpu(test_gpu()));
  SimGpu* g2 = machine.gpu(machine.add_gpu(test_gpu()));
  auto p1 = g1->malloc(256);
  auto p2 = g2->malloc(256);
  ASSERT_TRUE(p1 && p2);
  // A pointer from one device is invalid on the other.
  EXPECT_FALSE(g2->valid_pointer(p1.value()));
  EXPECT_FALSE(g1->valid_pointer(p2.value()));
  EXPECT_EQ(g2->free(p1.value()), Status::ErrorInvalidDevicePointer);
}

TEST(SimMachine, PaperSpecsHaveExpectedCapacities) {
  SimParams params{1024};
  EXPECT_EQ(tesla_c2050(params).memory_bytes, 3ull * 1024 * 1024);
  EXPECT_EQ(tesla_c1060(params).memory_bytes, 4ull * 1024 * 1024);
  EXPECT_EQ(quadro_2000(params).memory_bytes, 1ull * 1024 * 1024);
  // Relative compute power ordering drives the load-balancing experiments.
  EXPECT_GT(tesla_c2050(params).compute_power(), tesla_c1060(params).compute_power());
  EXPECT_GT(tesla_c1060(params).compute_power(), quadro_2000(params).compute_power());
}

}  // namespace
}  // namespace gpuvm::sim

// End-to-end tests of the gpuvm daemon (core/runtime.hpp) through the
// interposition frontend: abstraction, sharing, isolation, swap under
// memory pressure, dynamic binding, migration, fault tolerance, offload.
#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/frontend.hpp"
#include "sim/machine.hpp"
#include "transport/channel.hpp"

namespace gpuvm::core {
namespace {

constexpr u64 kDevBytes = 1 << 20;  // 1 MiB test devices

void register_test_kernels(sim::SimMachine& machine) {
  sim::KernelDef addone;
  addone.name = "addone";
  addone.body = [](sim::KernelExecContext& ctx) {
    const i64 n = ctx.scalar_i64(1);
    auto data = ctx.buffer<float>(0);
    for (i64 i = 0; i < n; ++i) data[static_cast<size_t>(i)] += 1.0f;
    return Status::Ok;
  };
  addone.cost = sim::per_thread_cost(10.0, 8.0);
  machine.kernels().add(addone);

  sim::KernelDef slow;
  slow.name = "slow";  // ~1ms on the 100-GFLOPS test GPU
  slow.body = [](sim::KernelExecContext&) { return Status::Ok; };
  slow.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{1e8, 0.0};
  };
  machine.kernels().add(slow);
}

class RuntimeTest : public ::testing::Test {
 protected:
  explicit RuntimeTest(int gpus = 1) : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    for (int i = 0; i < gpus; ++i) machine_.add_gpu(sim::test_gpu(kDevBytes));
    register_test_kernels(machine_);
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
  }

  void start(RuntimeConfig config = {}) {
    runtime_ = std::make_unique<Runtime>(*rt_, config);
  }

  /// One simulated application: fill a buffer, run `addone` `iters` times
  /// with a CPU phase between launches, read back and verify.
  void run_app(double cpu_phase_ms, int iters, u64 floats = 64) {
    FrontendApi api(runtime_->connect());
    ASSERT_TRUE(api.connected());
    ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
    auto ptr = api.malloc(floats * sizeof(float));
    ASSERT_TRUE(ptr.has_value());
    std::vector<float> host(floats, 1.0f);
    ASSERT_EQ(api.copy_in(ptr.value(), host), Status::Ok);
    const u32 blocks = static_cast<u32>((floats + 255) / 256);
    for (int i = 0; i < iters; ++i) {
      ASSERT_EQ(api.launch("addone", {{blocks, 1, 1}, {256, 1, 1}},
                           {sim::KernelArg::dev(ptr.value()),
                            sim::KernelArg::i64v(static_cast<i64>(floats))}),
                Status::Ok);
      if (cpu_phase_ms > 0) dom_.sleep_for(vt::from_millis(cpu_phase_ms));
    }
    std::vector<float> out(floats);
    ASSERT_EQ(api.copy_out(out, ptr.value()), Status::Ok);
    for (float v : out) ASSERT_EQ(v, 1.0f + static_cast<float>(iters));
    ASSERT_EQ(api.free(ptr.value()), Status::Ok);
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<Runtime> runtime_;
};

class RuntimeTest3Gpus : public RuntimeTest {
 protected:
  RuntimeTest3Gpus() : RuntimeTest(3) {}
};

TEST_F(RuntimeTest, SingleAppEndToEnd) {
  start();
  run_app(0.0, 3);
  const auto stats = runtime_->stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.launches, 3u);
}

TEST_F(RuntimeTest, DeviceCountReportsVirtualGpus) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 4;
  start(config);
  FrontendApi api(runtime_->connect());
  // One physical GPU, four vGPUs: the hardware setup is hidden.
  EXPECT_EQ(api.device_count(), 4);
  // cudaSetDevice is overridden (ignored), not an error.
  EXPECT_EQ(api.set_device(2), Status::Ok);
  EXPECT_EQ(api.set_device(99), Status::Ok);
}

TEST_F(RuntimeTest, LaunchOfUnregisteredKernelRejected) {
  start();
  FrontendApi api(runtime_->connect());
  auto ptr = api.malloc(64);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(api.launch("addone", {{1, 1, 1}, {16, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
            Status::ErrorUnknownSymbol);  // never called register_kernels
  EXPECT_EQ(api.get_last_error(), Status::ErrorUnknownSymbol);
  EXPECT_EQ(api.get_last_error(), Status::Ok);
}

TEST_F(RuntimeTest, BadCopyDetectedWithoutDeviceInvolvement) {
  start();
  FrontendApi api(runtime_->connect());
  auto ptr = api.malloc(64);
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> too_big(64);
  EXPECT_EQ(api.copy_in(ptr.value(), too_big), Status::ErrorSwapSizeMismatch);
  EXPECT_EQ(machine_.gpu(machine_.all_gpus()[0])->stats().bytes_to_device, 0u);
}

TEST_F(RuntimeTest, ConcurrentAppsOversubscribedMemoryTimeShare) {
  // The paper's headline scenario: each app fits the device alone, their
  // sum does not. On bare CUDA the second app would die with OOM; with the
  // runtime both finish correctly via inter-application swap.
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 4;
  start(config);

  const u64 floats = 120 * 1024;  // 480 KiB per app x 3 apps >> 1 MiB device
  {
    dom_.hold();
    std::vector<vt::Thread> apps;
    for (int i = 0; i < 3; ++i) {
      // Long CPU phases: victims are idle when a swap request arrives.
      apps.emplace_back(dom_, [&] { run_app(600.0, 12, floats); });
    }
    dom_.unhold();
  }
  const auto mem_stats = runtime_->memory().stats();
  EXPECT_GT(mem_stats.inter_app_swaps, 0u);
  EXPECT_GT(mem_stats.swapped_entries, 0u);
  // Isolation: every app saw its own data round-trip correctly (asserted in
  // run_app) despite sharing a device that cannot hold all footprints.
}

TEST_F(RuntimeTest, MoreAppsThanVGpusAllComplete) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;
  start(config);
  {
    dom_.hold();
    std::vector<vt::Thread> apps;
    for (int i = 0; i < 8; ++i) {
      apps.emplace_back(dom_, [&] { run_app(0.2, 3); });
    }
    dom_.unhold();
  }
  const auto s = runtime_->stats();
  EXPECT_EQ(s.connections, 8u);
  EXPECT_EQ(s.launches, 24u);
  const auto sched = runtime_->scheduler().stats();
  EXPECT_GT(sched.unbinds, 0u);  // dynamic binding released vGPUs in CPU phases
}

TEST_F(RuntimeTest3Gpus, LoadBalancesAcrossDevices) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 1;
  start(config);
  {
    dom_.hold();
    std::vector<vt::Thread> apps;
    for (int i = 0; i < 3; ++i) apps.emplace_back(dom_, [&] { run_app(0.0, 2); });
    dom_.unhold();
  }
  // All three devices saw kernels (round-robin load balancing).
  int devices_used = 0;
  for (GpuId id : machine_.all_gpus()) {
    if (machine_.gpu(id)->stats().kernels_launched > 0) ++devices_used;
  }
  EXPECT_EQ(devices_used, 3);
}

TEST_F(RuntimeTest3Gpus, GpuFailureRecoversOntoSurvivors) {
  RuntimeConfig config;
  config.auto_checkpoint_after_kernel_seconds = 1e-7;  // checkpoint after every kernel
  start(config);

  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  auto ptr = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> host(64, 1.0f);
  ASSERT_EQ(api.copy_in(ptr.value(), host), Status::Ok);
  const auto launch_once = [&] {
    return api.launch("addone", {{1, 1, 1}, {64, 1, 1}},
                      {sim::KernelArg::dev(ptr.value()), sim::KernelArg::i64v(64)});
  };
  ASSERT_EQ(launch_once(), Status::Ok);

  // Kill whichever GPU the context is bound to.
  std::optional<GpuId> resident = runtime_->memory().residency(ContextId{1});
  ASSERT_TRUE(resident.has_value());
  ASSERT_EQ(machine_.fail_gpu(*resident), Status::Ok);

  // The next kernels replay transparently on a surviving device.
  ASSERT_EQ(launch_once(), Status::Ok);
  ASSERT_EQ(launch_once(), Status::Ok);
  std::vector<float> out(64);
  ASSERT_EQ(api.copy_out(out, ptr.value()), Status::Ok);
  for (float v : out) EXPECT_EQ(v, 4.0f);
  EXPECT_GE(runtime_->stats().auto_checkpoints, 1u);
}

TEST_F(RuntimeTest, AllGpusGoneFailsGracefully) {
  start();
  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  auto ptr = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  machine_.fail_gpu(machine_.all_gpus()[0]);
  EXPECT_EQ(api.launch("addone", {{1, 1, 1}, {64, 1, 1}},
                       {sim::KernelArg::dev(ptr.value()), sim::KernelArg::i64v(64)}),
            Status::ErrorDeviceUnavailable);
}

TEST_F(RuntimeTest, GpuHotAddSpawnsVgpusAndSpreadsLoad) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 1;
  start(config);
  EXPECT_EQ(runtime_->scheduler().vgpu_count(), 1);
  machine_.add_gpu(sim::test_gpu(kDevBytes));
  EXPECT_EQ(runtime_->scheduler().vgpu_count(), 2);
  {
    dom_.hold();
    std::vector<vt::Thread> apps;
    for (int i = 0; i < 2; ++i) apps.emplace_back(dom_, [&] { run_app(0.0, 2); });
    dom_.unhold();
  }
  EXPECT_GT(machine_.gpu(machine_.all_gpus()[1])->stats().kernels_launched, 0u);
}

TEST_F(RuntimeTest, ExplicitCheckpointSupported) {
  start();
  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  auto ptr = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> host(64, 5.0f);
  ASSERT_EQ(api.copy_in(ptr.value(), host), Status::Ok);
  ASSERT_EQ(api.launch("addone", {{1, 1, 1}, {64, 1, 1}},
                       {sim::KernelArg::dev(ptr.value()), sim::KernelArg::i64v(64)}),
            Status::Ok);
  EXPECT_EQ(api.checkpoint(), Status::Ok);
}

TEST_F(RuntimeTest, NestedStructuresEndToEnd) {
  start();
  sim::KernelDef gather;
  gather.name = "gather";
  gather.uses_nested_pointers = true;
  gather.body = [](sim::KernelExecContext& ctx) {
    auto slots = ctx.buffer<u64>(0);
    auto src = ctx.deref_as<float>(DevicePtr{slots[0]});
    auto dst = ctx.deref_as<float>(DevicePtr{slots[1]});
    if (src.size() < 8 || dst.size() < 8) return Status::ErrorLaunchFailure;
    for (size_t i = 0; i < 8; ++i) dst[i] = src[i] * 2.0f;
    return Status::Ok;
  };
  gather.cost = sim::per_thread_cost(1.0, 8.0);
  machine_.kernels().add(gather);

  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"gather"}), Status::Ok);
  auto src = api.malloc(8 * sizeof(float));
  auto dst = api.malloc(8 * sizeof(float));
  auto parent = api.malloc(2 * sizeof(u64));
  ASSERT_TRUE(src && dst && parent);
  std::vector<float> data{1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(api.copy_in(src.value(), data), Status::Ok);
  ASSERT_EQ(api.register_nested(parent.value(), {{0, src.value()}, {8, dst.value()}}),
            Status::Ok);
  ASSERT_EQ(api.launch("gather", {{1, 1, 1}, {8, 1, 1}},
                       {sim::KernelArg::dev(parent.value())}),
            Status::Ok);
  std::vector<float> out(8);
  ASSERT_EQ(api.copy_out(out, dst.value()), Status::Ok);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], data[i] * 2.0f);
}

TEST_F(RuntimeTest, OffloadShedsConnectionsToPeerNode) {
  // Two nodes: node A is overloaded (threshold 0 forces offload), node B
  // executes the work. The application only talks to node A.
  start();
  sim::SimMachine machine_b(dom_, sim::SimParams{1});
  machine_b.add_gpu(sim::test_gpu(kDevBytes));
  register_test_kernels(machine_b);
  cudart::CudaRt rt_b(machine_b, cudart::CudaRtConfig{4 * 1024, 8});
  Runtime node_b(rt_b);

  RuntimeConfig config_a;
  config_a.offload_threshold = 0;  // everything offloads
  runtime_ = std::make_unique<Runtime>(*rt_, config_a);
  runtime_->set_offload_peer([&] { return node_b.connect(); });

  run_app(0.0, 2);

  EXPECT_EQ(runtime_->stats().offloaded_connections, 1u);
  EXPECT_EQ(node_b.stats().launches, 2u);
  // The local devices never saw the kernels.
  EXPECT_EQ(machine_.gpu(machine_.all_gpus()[0])->stats().kernels_launched, 0u);
}

TEST_F(RuntimeTest, SynchronizeAndGoodbyeCleanUp) {
  start();
  {
    FrontendApi api(runtime_->connect());
    ASSERT_EQ(api.synchronize(), Status::Ok);
    auto ptr = api.malloc(128);
    ASSERT_TRUE(ptr.has_value());
    // api destructor sends Goodbye.
  }
  runtime_->drain();
  // Context memory was reclaimed on disconnect.
  EXPECT_EQ(machine_.gpu(machine_.all_gpus()[0])->used_bytes(), 0u);
}

/// The two ways a Runtime serves a connection: on the sending thread (an
/// in-process channel from connect()) or on a thread of its own
/// (serve_channel, as for a unix socket).
enum class Driver { Inline, Thread };

class RuntimeDriverTest : public RuntimeTest, public ::testing::WithParamInterface<Driver> {
 protected:
  std::unique_ptr<transport::MessageChannel> open_channel() {
    if (GetParam() == Driver::Inline) return runtime_->connect();
    auto [client, server] =
        transport::make_local_pair(dom_, transport::ChannelCosts::local_socket());
    runtime_->serve_channel(std::move(server));
    return std::move(client);
  }

  GpuId gpu() const { return machine_.all_gpus()[0]; }
};

INSTANTIATE_TEST_SUITE_P(Drivers, RuntimeDriverTest,
                         ::testing::Values(Driver::Inline, Driver::Thread),
                         [](const auto& info) {
                           return info.param == Driver::Inline ? "inline" : "thread";
                         });

TEST_P(RuntimeDriverTest, ClosingWithoutGoodbyeReleasesTheVgpuAndMemory) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 1;
  start(config);
  {
    auto channel = open_channel();
    transport::MessageChannel* raw = channel.get();
    FrontendApi api(std::move(channel));
    ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
    auto ptr = api.malloc(64 * sizeof(float));
    ASSERT_TRUE(ptr.has_value());
    ASSERT_EQ(api.launch("addone", {{1, 1, 1}, {64, 1, 1}},
                         {sim::KernelArg::dev(ptr.value()), sim::KernelArg::i64v(64)}),
              Status::Ok);  // binds the only vGPU
    raw->close();  // the destructor finds the channel closed: no Goodbye
  }
  runtime_->drain();
  // Only the vGPU's own CUDA context is left on the device.
  EXPECT_EQ(machine_.gpu(gpu())->used_bytes(), rt_->context_reservation_bytes());
  run_app(0.0, 1);  // a second tenant binds the only vGPU
}

TEST_P(RuntimeDriverTest, ACallThatThrowsClosesOnlyItsConnection) {
  sim::KernelDef boom;
  boom.name = "boom";
  boom.body = [](sim::KernelExecContext&) -> Status {
    throw std::runtime_error("bug in a kernel body");
  };
  machine_.kernels().add(boom);
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 1;
  start(config);
  {
    FrontendApi api(open_channel());
    ASSERT_EQ(api.register_kernels({"boom"}), Status::Ok);
    auto ptr = api.malloc(64);
    ASSERT_TRUE(ptr.has_value());
    EXPECT_EQ(api.launch("boom", {{1, 1, 1}, {16, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
              Status::ErrorProtocol);
    // The daemon closed the connection after the error reply.
    EXPECT_EQ(api.malloc(64).status(), Status::ErrorConnectionClosed);
  }
  runtime_->drain();
  EXPECT_EQ(machine_.gpu(gpu())->used_bytes(), rt_->context_reservation_bytes());
  run_app(0.0, 2);  // a second tenant binds the only vGPU and completes
}

TEST_F(RuntimeTest, InProcessConnectionsRunNoDaemonThread) {
  start();
  const int before = dom_.attached_threads();
  FrontendApi api(runtime_->connect());
  ASSERT_TRUE(api.connected());
  EXPECT_EQ(dom_.attached_threads(), before);
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  auto ptr = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(dom_.attached_threads(), before);
  ASSERT_EQ(api.launch("addone", {{1, 1, 1}, {64, 1, 1}},
                       {sim::KernelArg::dev(ptr.value()), sim::KernelArg::i64v(64)}),
            Status::Ok);
  EXPECT_EQ(dom_.attached_threads(), before);
}

TEST_F(RuntimeTest, EachCallCostsExactlyItsTransitsAndItsService) {
  start();
  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  const vt::Duration hop = transport::ChannelCosts::local_socket().latency;  // 20 us

  vt::TimePoint t0 = dom_.now();
  auto ptr = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ((dom_.now() - t0).count(), (2 * hop).count());  // 40,000 ns

  const auto launch = [&] {
    return api.launch("addone", {{1, 1, 1}, {256, 1, 1}},
                      {sim::KernelArg::dev(ptr.value()), sim::KernelArg::i64v(64)});
  };
  ASSERT_EQ(launch(), Status::Ok);  // binds the vGPU and materializes the buffer
  t0 = dom_.now();
  ASSERT_EQ(launch(), Status::Ok);  // bound and resident: transits plus the kernel
  // The kernel's modeled time on test_gpu: 1 us launch overhead plus 40 ns.
  EXPECT_EQ((dom_.now() - t0).count(), (2 * hop).count() + 1040);  // 41,040 ns
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    // A slow and a fast device (same memory).
    auto slow = sim::test_gpu(kDevBytes);
    slow.effective_gflops = 20.0;
    slow.model = "SlowGPU";
    slow_id_ = machine_.add_gpu(slow);
    auto fast = sim::test_gpu(kDevBytes);
    fast.effective_gflops = 200.0;
    fast.model = "FastGPU";
    fast_id_ = machine_.add_gpu(fast);
    register_test_kernels(machine_);
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  GpuId slow_id_;
  GpuId fast_id_;
  std::unique_ptr<cudart::CudaRt> rt_;
};

TEST_F(MigrationTest, JobMigratesFromSlowToFastGpu) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 1;
  config.scheduler.enable_migration = true;
  Runtime runtime(*rt_, config);

  // Occupy the fast GPU with a long burst; a second app must start on the
  // slow GPU, then migrate to the fast one once it frees up.
  std::atomic<bool> second_started{false};
  {
    dom_.hold();
    vt::Thread hog(dom_, [&] {
      FrontendApi api(runtime.connect());
      ASSERT_EQ(api.register_kernels({"slow"}), Status::Ok);
      auto p = api.malloc(64);
      ASSERT_TRUE(p.has_value());
      // Long GPU burst with no CPU phase: holds the fast GPU.
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(api.launch("slow", {{1, 1, 1}, {32, 1, 1}}, {sim::KernelArg::dev(p.value())}),
                  Status::Ok);
      }
    });
    vt::Thread mover(dom_, [&] {
      dom_.sleep_for(vt::from_micros(100));  // arrive second
      second_started.store(true);
      FrontendApi api(runtime.connect());
      ASSERT_EQ(api.register_kernels({"slow"}), Status::Ok);
      auto p = api.malloc(64);
      ASSERT_TRUE(p.has_value());
      for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(api.launch("slow", {{1, 1, 1}, {32, 1, 1}}, {sim::KernelArg::dev(p.value())}),
                  Status::Ok);
        dom_.sleep_for(vt::from_millis(2));  // CPU phases allow unbinding
      }
    });
    dom_.unhold();
  }
  EXPECT_TRUE(second_started.load());
  EXPECT_GE(runtime.scheduler().stats().migrations, 1u);
  // The fast GPU executed kernels from both.
  EXPECT_GT(machine_.gpu(fast_id_)->stats().kernels_launched, 5u);
}

}  // namespace
}  // namespace gpuvm::core

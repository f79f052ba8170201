// Concurrency tests for the sharded dispatch hot path: an N-tenant
// mixed-operation hammer (run under GPUVM_SANITIZE=thread to validate the
// lock hierarchy), the same hammer under memory pressure, and regressions
// proving the asynchronous swap write-back never serves stale swap bytes.
// The contended dispatch-lock path is covered in test_cuda4.cpp, where two
// threads of one application share a context.
#include <gtest/gtest.h>

#include <vector>

#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

constexpr u64 kDevBytes = 1 << 20;  // 1 MiB test devices

class DispatchConcurrencyTest : public ::testing::Test {
 protected:
  explicit DispatchConcurrencyTest(int gpus = 2)
      : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    for (int i = 0; i < gpus; ++i) machine_.add_gpu(sim::test_gpu(kDevBytes));
    sim::KernelDef addone;
    addone.name = "addone";
    addone.body = [](sim::KernelExecContext& ctx) {
      const i64 n = ctx.scalar_i64(1);
      auto data = ctx.buffer<float>(0);
      for (i64 i = 0; i < n; ++i) data[static_cast<size_t>(i)] += 1.0f;
      return Status::Ok;
    };
    addone.cost = sim::per_thread_cost(10.0, 8.0);
    machine_.kernels().add(addone);
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 32});
  }

  void start(RuntimeConfig config = {}) {
    runtime_ = std::make_unique<Runtime>(*rt_, config);
  }

  /// One tenant of the hammer: a loop of malloc -> copy_in -> launch ->
  /// copy_out -> verify -> free with a tenant-specific fill pattern, plus
  /// one long-lived buffer re-verified at the end (catches cross-tenant
  /// corruption that a transient buffer would miss).
  void hammer_tenant(int tenant, int iters, u64 floats) {
    FrontendApi api(runtime_->connect());
    ASSERT_TRUE(api.connected());
    ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);

    const float base = 10.0f * static_cast<float>(tenant + 1);
    const u32 blocks = static_cast<u32>((floats + 255) / 256);
    auto keeper = api.malloc(floats * sizeof(float));
    ASSERT_TRUE(keeper.has_value());
    std::vector<float> kept(floats, base);
    ASSERT_EQ(api.copy_in(keeper.value(), kept), Status::Ok);
    // Materialize the keeper on the device so later launches must evict it
    // (and its bytes must survive the write-back round trip).
    ASSERT_EQ(api.launch("addone", {{blocks, 1, 1}, {256, 1, 1}},
                         {sim::KernelArg::dev(keeper.value()),
                          sim::KernelArg::i64v(static_cast<i64>(floats))}),
              Status::Ok);
    for (int i = 0; i < iters; ++i) {
      auto buf = api.malloc(floats * sizeof(float));
      ASSERT_TRUE(buf.has_value());
      std::vector<float> host(floats, base + static_cast<float>(i));
      ASSERT_EQ(api.copy_in(buf.value(), host), Status::Ok);
      ASSERT_EQ(api.launch("addone", {{blocks, 1, 1}, {256, 1, 1}},
                           {sim::KernelArg::dev(buf.value()),
                            sim::KernelArg::i64v(static_cast<i64>(floats))}),
                Status::Ok);
      std::vector<float> out(floats);
      ASSERT_EQ(api.copy_out(out, buf.value()), Status::Ok);
      for (float v : out) ASSERT_EQ(v, base + static_cast<float>(i) + 1.0f);
      ASSERT_EQ(api.free(buf.value()), Status::Ok);
      dom_.sleep_for(vt::from_millis(1.0 + tenant));  // staggered CPU phase
    }

    std::vector<float> out(floats);
    ASSERT_EQ(api.copy_out(out, keeper.value()), Status::Ok);
    for (float v : out) ASSERT_EQ(v, base + 1.0f);
    ASSERT_EQ(api.free(keeper.value()), Status::Ok);
  }

  void run_hammer(int tenants, int iters, u64 floats) {
    dom_.hold();
    std::vector<vt::Thread> apps;
    for (int t = 0; t < tenants; ++t) {
      apps.emplace_back(dom_, [this, t, iters, floats] { hammer_tenant(t, iters, floats); });
    }
    dom_.unhold();
    apps.clear();
    runtime_->drain();
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(DispatchConcurrencyTest, EightTenantHammerSharded) {
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;  // 4 vGPUs < 8 tenants: queueing too
  start(config);
  run_hammer(8, 6, 16 * 1024);
  const auto s = runtime_->stats();
  EXPECT_EQ(s.connections, 8u);
  EXPECT_EQ(s.launches, 56u);
}

TEST_F(DispatchConcurrencyTest, ShardedHammerUnderMemoryPressure) {
  // Footprints that cannot all be resident: the hammer additionally drives
  // eviction, async write-back and re-materialization concurrently.
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;
  start(config);
  run_hammer(4, 4, 100 * 1024);  // 400 KiB live per tenant x 2 buffers
  const auto ms = runtime_->memory().stats();
  EXPECT_GT(ms.swapped_entries, 0u);  // pressure actually materialized
}

class AsyncWritebackTest : public DispatchConcurrencyTest {
 protected:
  AsyncWritebackTest() : DispatchConcurrencyTest(1) {}
};

TEST_F(AsyncWritebackTest, EvictionNeverServesStaleSwapBytes) {
  // Two buffers that cannot both be resident on the 1 MiB device. After a
  // kernel dirties A on the device, materializing B evicts A through the
  // *asynchronous* write-back; a subsequent host read of A must see the
  // kernel's values (2.0), never the stale pre-launch swap copy (1.0).
  RuntimeConfig config;
  ASSERT_TRUE(config.async_writeback);
  start(config);

  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  const u64 floats = 150 * 1024;  // 600 KiB each
  const u32 blocks = static_cast<u32>((floats + 255) / 256);
  const auto launch_on = [&](VirtualPtr p) {
    return api.launch("addone", {{blocks, 1, 1}, {256, 1, 1}},
                      {sim::KernelArg::dev(p), sim::KernelArg::i64v(static_cast<i64>(floats))});
  };

  auto a = api.malloc(floats * sizeof(float));
  ASSERT_TRUE(a.has_value());
  std::vector<float> ones(floats, 1.0f);
  ASSERT_EQ(api.copy_in(a.value(), ones), Status::Ok);
  ASSERT_EQ(launch_on(a.value()), Status::Ok);  // device copy of A now 2.0, dirty

  auto b = api.malloc(floats * sizeof(float));
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(api.copy_in(b.value(), ones), Status::Ok);
  ASSERT_EQ(launch_on(b.value()), Status::Ok);  // evicts A via async write-back

  std::vector<float> out(floats);
  ASSERT_EQ(api.copy_out(out, a.value()), Status::Ok);
  for (float v : out) ASSERT_EQ(v, 2.0f);  // the drained, not the stale, bytes
  EXPECT_GT(runtime_->memory().stats().async_writebacks, 0u);
}

TEST_F(AsyncWritebackTest, ReaderInsideDrainWindowFencesOnCompletion) {
  // Race the drain directly: trigger an asynchronous whole-context
  // write-back (the inter-application swap victim path) and read the swap
  // bytes back with no intervening device work -- the modeled D2H is still
  // in flight, so the read must fence on its completion (and count it).
  RuntimeConfig config;
  start(config);

  FrontendApi api(runtime_->connect());
  ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
  const u64 floats = 150 * 1024;  // 600 KiB: ~120us drain on the 5 GB/s bus
  const u32 blocks = static_cast<u32>((floats + 255) / 256);
  auto a = api.malloc(floats * sizeof(float));
  ASSERT_TRUE(a.has_value());
  std::vector<float> ones(floats, 1.0f);
  ASSERT_EQ(api.copy_in(a.value(), ones), Status::Ok);
  ASSERT_EQ(api.launch("addone", {{blocks, 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev(a.value()),
                        sim::KernelArg::i64v(static_cast<i64>(floats))}),
            Status::Ok);

  // The victim path: write back and free everything, without blocking.
  ASSERT_EQ(runtime_->memory().swap_context(ContextId{1}), Status::Ok);

  std::vector<float> out(floats);
  ASSERT_EQ(api.copy_out(out, a.value()), Status::Ok);
  for (float v : out) ASSERT_EQ(v, 2.0f);

  const auto ms = runtime_->memory().stats();
  EXPECT_GT(ms.async_writebacks, 0u);
  EXPECT_GT(ms.writeback_fences, 0u);  // the read landed inside the window
}

TEST_F(AsyncWritebackTest, SyncAndAsyncWritebackAgreeOnBytes) {
  // Differential check: the async pipeline must be invisible to data --
  // run the same eviction-heavy sequence in both modes and compare.
  const u64 floats = 150 * 1024;
  const u32 blocks = static_cast<u32>((floats + 255) / 256);
  std::vector<std::vector<float>> results;
  for (const bool async : {false, true}) {
    RuntimeConfig config;
    config.async_writeback = async;
    start(config);
    FrontendApi api(runtime_->connect());
    ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
    auto a = api.malloc(floats * sizeof(float));
    auto b = api.malloc(floats * sizeof(float));
    ASSERT_TRUE(a.has_value() && b.has_value());
    std::vector<float> host(floats);
    for (u64 i = 0; i < floats; ++i) host[i] = static_cast<float>(i % 97);
    ASSERT_EQ(api.copy_in(a.value(), host), Status::Ok);
    ASSERT_EQ(api.copy_in(b.value(), host), Status::Ok);
    for (int round = 0; round < 3; ++round) {  // ping-pong: A and B evict each other
      for (const auto& p : {a, b}) {
        ASSERT_EQ(api.launch("addone", {{blocks, 1, 1}, {256, 1, 1}},
                             {sim::KernelArg::dev(p.value()),
                              sim::KernelArg::i64v(static_cast<i64>(floats))}),
                  Status::Ok);
      }
    }
    std::vector<float> out_a(floats);
    std::vector<float> out_b(floats);
    ASSERT_EQ(api.copy_out(out_a, a.value()), Status::Ok);
    ASSERT_EQ(api.copy_out(out_b, b.value()), Status::Ok);
    out_a.insert(out_a.end(), out_b.begin(), out_b.end());
    results.push_back(std::move(out_a));
  }
  EXPECT_EQ(results[0], results[1]);
}

}  // namespace
}  // namespace gpuvm::core

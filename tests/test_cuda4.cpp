// Tests for CUDA 4.0 support mode (paper section 4.8): shared application
// contexts (data sharing across threads, same-device mapping) and direct
// GPU-to-GPU transfers for migration. Also covers the pitched/2D memory
// API additions.
#include <gtest/gtest.h>

#include <vector>

#include "core/direct_api.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

class Cuda4Test : public ::testing::Test {
 protected:
  Cuda4Test() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    machine_.add_gpu(sim::test_gpu(1 << 20));
    machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});

    sim::KernelDef addone;
    addone.name = "addone";
    addone.body = [](sim::KernelExecContext& kc) {
      for (auto& v : kc.buffer<float>(0)) v += 1.0f;
      return Status::Ok;
    };
    addone.cost = sim::per_thread_cost(1.0, 4.0);
    machine_.kernels().add(addone);
  }

  void start(bool cuda4) {
    RuntimeConfig config;
    config.cuda4_semantics = cuda4;
    config.scheduler.vgpus_per_device = 2;
    runtime_ = std::make_unique<Runtime>(*rt_, config);
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(Cuda4Test, ThreadsOfOneApplicationShareAContext) {
  start(true);
  ConnectOptions options;
  options.application_id = 42;
  FrontendApi thread_a(runtime_->connect(), options);
  FrontendApi thread_b(runtime_->connect(), options);
  ASSERT_TRUE(thread_a.connected());
  ASSERT_TRUE(thread_b.connected());
  // Same daemon context id: one CUDA context per application.
  EXPECT_EQ(thread_a.connection_id().value, thread_b.connection_id().value);

  // Thread A's buffer is visible to thread B (shared virtual addresses).
  ASSERT_EQ(thread_a.register_kernels({"addone"}), Status::Ok);
  auto buf = thread_a.malloc(32 * sizeof(float));
  ASSERT_TRUE(buf.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(thread_a.copy_in(buf.value(), data), Status::Ok);

  ASSERT_EQ(thread_b.register_kernels({"addone"}), Status::Ok);
  ASSERT_EQ(thread_b.launch("addone", {{1, 1, 1}, {32, 1, 1}},
                            {sim::KernelArg::dev(buf.value())}),
            Status::Ok);
  std::vector<float> out(32);
  ASSERT_EQ(thread_a.copy_out(out, buf.value()), Status::Ok);
  for (float v : out) EXPECT_EQ(v, 2.0f);
}

TEST_F(Cuda4Test, DifferentApplicationsStayIsolated) {
  start(true);
  ConnectOptions app1;
  app1.application_id = 1;
  ConnectOptions app2;
  app2.application_id = 2;
  FrontendApi a(runtime_->connect(), app1);
  FrontendApi b(runtime_->connect(), app2);
  EXPECT_NE(a.connection_id().value, b.connection_id().value);

  auto buf = a.malloc(64);
  ASSERT_TRUE(buf.has_value());
  // b cannot touch a's virtual addresses.
  std::vector<std::byte> bytes(64);
  EXPECT_EQ(b.memcpy_d2h(bytes, buf.value(), 64), Status::ErrorNoValidPte);
}

TEST_F(Cuda4Test, WithoutCuda4ModeAppIdsAreIgnored) {
  start(false);
  ConnectOptions options;
  options.application_id = 42;
  FrontendApi a(runtime_->connect(), options);
  FrontendApi b(runtime_->connect(), options);
  EXPECT_NE(a.connection_id().value, b.connection_id().value);  // CUDA 3.2 rules
}

TEST_F(Cuda4Test, SharedContextSurvivesFirstThreadExit) {
  start(true);
  ConnectOptions options;
  options.application_id = 7;
  auto thread_a = std::make_unique<FrontendApi>(runtime_->connect(), options);
  FrontendApi thread_b(runtime_->connect(), options);
  auto buf = thread_a->malloc(64);
  ASSERT_TRUE(buf.has_value());
  std::vector<std::byte> data(64, std::byte{0x3c});
  ASSERT_EQ(thread_a->memcpy_h2d(buf.value(), data), Status::Ok);

  thread_a.reset();  // first thread exits; context must survive

  std::vector<std::byte> out(64);
  ASSERT_EQ(thread_b.memcpy_d2h(out, buf.value(), 64), Status::Ok);
  EXPECT_EQ(out, data);
}

TEST_F(Cuda4Test, MigrationUsesDirectPeerTransfer) {
  // Materialize on GPU 0, then force re-materialization on GPU 1: with
  // cuda4 semantics the entry moves with one GPU-to-GPU copy.
  start(true);
  MemoryManager& mm = runtime_->memory();
  ContextId ctx{100};
  mm.add_context(ctx);
  ClientId slot0 = rt_->create_client();
  (void)rt_->set_device(slot0, 0);
  ClientId slot1 = rt_->create_client();
  (void)rt_->set_device(slot1, 1);

  auto p = mm.on_malloc(ctx, 64 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(64, 9.0f);
  ASSERT_EQ(mm.on_copy_h2d(ctx, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  ASSERT_EQ(mm.prepare_launch(ctx, machine_.all_gpus()[0], slot0,
                              {sim::KernelArg::dev(p.value())})
                .outcome,
            MemoryManager::PrepareOutcome::Ready);

  auto prep = mm.prepare_launch(ctx, machine_.all_gpus()[1], slot1,
                                {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MemoryManager::PrepareOutcome::Ready);
  EXPECT_GE(mm.stats().peer_copies, 1u);
  EXPECT_EQ(mm.stats().swapped_entries, 0u);  // no swap round trip

  std::vector<float> out(64);
  ASSERT_EQ(machine_.gpu(machine_.all_gpus()[1])
                ->peek(std::as_writable_bytes(std::span(out)), prep.translated[0].as_ptr(),
                       64 * sizeof(float)),
            Status::Ok);
  EXPECT_EQ(out, data);

  rt_->destroy_client(slot0);
  rt_->destroy_client(slot1);
}

TEST_F(Cuda4Test, PeerTransferFallsBackToSwapWhenSourceDied) {
  start(true);
  MemoryManager& mm = runtime_->memory();
  ContextId ctx{100};
  mm.add_context(ctx);
  ClientId slot0 = rt_->create_client();
  (void)rt_->set_device(slot0, 0);
  ClientId slot1 = rt_->create_client();
  (void)rt_->set_device(slot1, 1);

  auto p = mm.on_malloc(ctx, 64);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> data(64, std::byte{5});
  ASSERT_EQ(mm.on_copy_h2d(ctx, p.value(), data, std::nullopt), Status::Ok);
  ASSERT_EQ(mm.prepare_launch(ctx, machine_.all_gpus()[0], slot0,
                              {sim::KernelArg::dev(p.value())})
                .outcome,
            MemoryManager::PrepareOutcome::Ready);
  machine_.fail_gpu(machine_.all_gpus()[0]);

  auto prep = mm.prepare_launch(ctx, machine_.all_gpus()[1], slot1,
                                {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MemoryManager::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().peer_copies, 0u);  // source dead: swap-recovery path
  std::vector<std::byte> out(64);
  ASSERT_EQ(mm.on_copy_d2h(ctx, out, p.value(), 64), Status::Ok);
  EXPECT_EQ(out, data);

  rt_->destroy_client(slot0);
  rt_->destroy_client(slot1);
}

TEST_F(Cuda4Test, ThreadsSharingAContextContendOnItsLock) {
  // Two threads of one application register, copy and launch concurrently
  // on their shared context: one thread's call waits on the context lock
  // while the other's holds it, and the daemon counts the contended
  // acquisitions.
  start(true);
  constexpr u64 kFloats = 1024;
  ConnectOptions options;
  options.application_id = 9;
  FrontendApi thread_a(runtime_->connect(), options);
  FrontendApi thread_b(runtime_->connect(), options);
  const auto worker = [&](FrontendApi& api, float base) {
    ASSERT_EQ(api.register_kernels({"addone"}), Status::Ok);
    auto buf = api.malloc(kFloats * sizeof(float));
    ASSERT_TRUE(buf.has_value());
    for (int i = 0; i < 6; ++i) {
      const float value = base + static_cast<float>(i);
      ASSERT_EQ(api.copy_in(buf.value(), std::vector<float>(kFloats, value)), Status::Ok);
      ASSERT_EQ(api.launch("addone", {{4, 1, 1}, {256, 1, 1}},
                           {sim::KernelArg::dev(buf.value())}),
                Status::Ok);
      std::vector<float> out(kFloats);
      ASSERT_EQ(api.copy_out(out, buf.value()), Status::Ok);
      for (float v : out) ASSERT_EQ(v, value + 1.0f);
    }
  };
  {
    // Declared before the hold so the hold is released before the joins.
    std::vector<vt::Thread> threads;
    vt::HoldGuard hold(dom_);
    threads.emplace_back(dom_, [&] { worker(thread_a, 10.0f); });
    threads.emplace_back(dom_, [&] { worker(thread_b, 100.0f); });
  }
  EXPECT_GT(runtime_->stats().dispatch_lock_contended, 0u);
}

// ---- Pitched / 2D memory API -----------------------------------------------

class Memcpy2DTest : public ::testing::TestWithParam<bool> {};

TEST_P(Memcpy2DTest, PitchedRoundTripOnBothBackends) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sim::SimParams{1});
  machine.add_gpu(sim::test_gpu(1 << 20));
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
  Runtime runtime(rt);

  std::unique_ptr<GpuApi> api;
  if (GetParam()) {
    api = std::make_unique<FrontendApi>(runtime.connect());
  } else {
    api = std::make_unique<DirectApi>(rt);
  }

  constexpr u64 kWidth = 100;  // bytes per row
  constexpr u64 kHeight = 8;
  auto ptr = api->malloc_pitch(kWidth, kHeight);
  ASSERT_TRUE(ptr.has_value());
  const u64 pitch = ptr->pitch;
  EXPECT_EQ(pitch, 256u);

  std::vector<std::byte> src(kWidth * kHeight);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i % 251);
  ASSERT_EQ(api->memcpy2d_h2d(ptr->ptr, pitch, src, kWidth, kWidth, kHeight), Status::Ok);

  std::vector<std::byte> dst(kWidth * kHeight, std::byte{0});
  ASSERT_EQ(api->memcpy2d_d2h(dst, kWidth, ptr->ptr, pitch, kWidth, kHeight), Status::Ok);
  EXPECT_EQ(dst, src);

  // Bad geometry rejected.
  EXPECT_EQ(api->memcpy2d_h2d(ptr->ptr, pitch, src, kWidth, kWidth + 1, kHeight),
            Status::ErrorInvalidValue);
}

INSTANTIATE_TEST_SUITE_P(Backends, Memcpy2DTest, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? std::string("gpuvm") : std::string("bare");
                         });

}  // namespace
}  // namespace gpuvm::core

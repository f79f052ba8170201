// Differential property tests: randomized CUDA-call sequences must produce
// byte-identical results on the bare runtime (DirectApi) and through the
// gpuvm daemon (FrontendApi) -- including under artificial memory pressure
// that forces the gpuvm path to swap constantly. This is the apples-to-
// apples guarantee behind every performance comparison in the evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/direct_api.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

void register_kernels(sim::SimMachine& machine) {
  sim::KernelDef scale_add;
  scale_add.name = "scale_add";  // dst[i] = a * src[i] + dst[i]
  scale_add.body = [](sim::KernelExecContext& kc) {
    auto src = kc.buffer<float>(0);
    auto dst = kc.buffer<float>(1);
    const double a = kc.scalar_f64(2);
    const u64 n = static_cast<u64>(kc.scalar_i64(3));
    if (src.size() < n || dst.size() < n) return Status::ErrorLaunchFailure;
    for (u64 i = 0; i < n; ++i) dst[i] += static_cast<float>(a) * src[i];
    return Status::Ok;
  };
  scale_add.cost = sim::per_thread_cost(2.0, 8.0);
  machine.kernels().add(scale_add);

  sim::KernelDef fill;
  fill.name = "fill";  // dst[i] = v
  fill.body = [](sim::KernelExecContext& kc) {
    auto dst = kc.buffer<float>(0);
    const double v = kc.scalar_f64(1);
    const u64 n = static_cast<u64>(kc.scalar_i64(2));
    if (dst.size() < n) return Status::ErrorLaunchFailure;
    for (u64 i = 0; i < n; ++i) dst[i] = static_cast<float>(v);
    return Status::Ok;
  };
  fill.cost = sim::per_thread_cost(1.0, 4.0);
  machine.kernels().add(fill);

  sim::KernelDef copy_into;
  copy_into.name = "copy_into";  // dst[i] = src[i]
  copy_into.idempotent = true;
  copy_into.body = [](sim::KernelExecContext& kc) {
    auto src = kc.buffer<float>(0);
    auto dst = kc.buffer<float>(1);
    const u64 n = static_cast<u64>(kc.scalar_i64(2));
    if (src.size() < n || dst.size() < n) return Status::ErrorLaunchFailure;
    std::copy_n(src.begin(), n, dst.begin());
    return Status::Ok;
  };
  copy_into.cost = sim::per_thread_cost(1.0, 8.0);
  machine.kernels().add(copy_into);
}

/// Runs a seeded random op sequence; returns a digest of every byte the
/// application observed (copy-outs) plus the status sequence.
struct Trace {
  std::vector<Status> statuses;
  std::vector<std::vector<float>> observations;

  bool operator==(const Trace&) const = default;
};

Trace run_sequence(GpuApi& api, u64 seed, int ops, u64 max_floats) {
  Trace trace;
  Rng rng(seed);
  (void)api.register_kernels({"scale_add", "fill"});

  struct Buffer {
    VirtualPtr ptr;
    u64 floats;
  };
  std::vector<Buffer> buffers;

  const auto random_buffer = [&]() -> Buffer& {
    return buffers[rng.below(buffers.size())];
  };

  for (int op = 0; op < ops; ++op) {
    const u64 kind = rng.below(6);
    if (buffers.empty() || kind == 0) {
      if (buffers.size() >= 6) continue;
      const u64 floats = rng.below(max_floats) + 16;
      auto p = api.malloc(floats * sizeof(float));
      trace.statuses.push_back(p.status());
      if (p) buffers.push_back({p.value(), floats});
      continue;
    }
    switch (kind) {
      case 1: {  // host -> device (possibly interior)
        Buffer& buf = random_buffer();
        const u64 offset = rng.below(buf.floats);
        const u64 count = rng.below(buf.floats - offset) + 1;
        std::vector<float> data(count);
        for (auto& v : data) v = static_cast<float>(rng.below(1000));
        trace.statuses.push_back(
            api.memcpy_h2d(buf.ptr + offset * sizeof(float), std::as_bytes(std::span(data))));
        break;
      }
      case 2: {  // device -> host: record observation
        Buffer& buf = random_buffer();
        const u64 offset = rng.below(buf.floats);
        const u64 count = rng.below(buf.floats - offset) + 1;
        std::vector<float> data(count, -1.0f);
        trace.statuses.push_back(api.memcpy_d2h(std::as_writable_bytes(std::span(data)),
                                                buf.ptr + offset * sizeof(float),
                                                count * sizeof(float)));
        trace.observations.push_back(std::move(data));
        break;
      }
      case 3: {  // kernel launch
        Buffer& src = random_buffer();
        Buffer& dst = random_buffer();
        const u64 n = std::min(src.floats, dst.floats);
        trace.statuses.push_back(
            api.launch("scale_add", {{static_cast<u32>((n + 255) / 256), 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev(src.ptr), sim::KernelArg::dev(dst.ptr),
                        sim::KernelArg::f64v(static_cast<double>(rng.below(5))),
                        sim::KernelArg::i64v(static_cast<i64>(n))}));
        break;
      }
      case 4: {  // fill kernel
        Buffer& buf = random_buffer();
        trace.statuses.push_back(api.launch(
            "fill", {{static_cast<u32>((buf.floats + 255) / 256), 1, 1}, {256, 1, 1}},
            {sim::KernelArg::dev(buf.ptr), sim::KernelArg::f64v(static_cast<double>(op)),
             sim::KernelArg::i64v(static_cast<i64>(buf.floats))}));
        break;
      }
      case 5: {  // free
        const u64 index = rng.below(buffers.size());
        trace.statuses.push_back(api.free(buffers[index].ptr));
        buffers.erase(buffers.begin() + static_cast<long>(index));
        break;
      }
      default:
        break;
    }
  }
  // Final observation of everything still allocated.
  for (const Buffer& buf : buffers) {
    std::vector<float> data(buf.floats, -2.0f);
    trace.statuses.push_back(api.copy_out(data, buf.ptr));
    trace.observations.push_back(std::move(data));
    (void)api.free(buf.ptr);
  }
  return trace;
}

/// A seeded sequence that relaunches the idempotent copy_into, one to four
/// times in a row, between uploads, readbacks, frees and mallocs, so the
/// device keeps some runs' results and must rerun after every change. Its
/// buffers hold at least half of `max_floats`, so six of them overfill a
/// device that fits two.
Trace run_relaunch_sequence(GpuApi& api, u64 seed, int ops, u64 max_floats) {
  Trace trace;
  Rng rng(seed);
  (void)api.register_kernels({"copy_into"});

  struct Buffer {
    VirtualPtr ptr;
    u64 floats;
  };
  std::vector<Buffer> buffers;
  const auto random_buffer = [&]() -> Buffer& { return buffers[rng.below(buffers.size())]; };
  std::optional<std::pair<Buffer, Buffer>> pair;  // the last launch's, while allocated

  for (int op = 0; op < ops; ++op) {
    const u64 kind = rng.below(5);
    if (buffers.empty() || kind == 0) {
      if (buffers.size() >= 6) continue;
      const u64 floats = max_floats / 2 + rng.below(max_floats / 2) + 16;
      auto p = api.malloc(floats * sizeof(float));
      trace.statuses.push_back(p.status());
      if (p) buffers.push_back({p.value(), floats});
      continue;
    }
    switch (kind) {
      case 1: {  // host -> device (possibly interior)
        Buffer& buf = random_buffer();
        const u64 offset = rng.below(buf.floats);
        std::vector<float> data(rng.below(buf.floats - offset) + 1);
        for (auto& v : data) v = static_cast<float>(rng.below(1000));
        trace.statuses.push_back(
            api.memcpy_h2d(buf.ptr + offset * sizeof(float), std::as_bytes(std::span(data))));
        break;
      }
      case 2: {  // device -> host: record observation
        Buffer& buf = random_buffer();
        std::vector<float> data(buf.floats, -1.0f);
        trace.statuses.push_back(api.copy_out(data, buf.ptr));
        trace.observations.push_back(std::move(data));
        break;
      }
      case 3: {  // relaunches: of the last pair half the time
        if (!pair || rng.below(2) == 0) pair.emplace(random_buffer(), random_buffer());
        const auto [src, dst] = *pair;
        const u64 n = std::min(src.floats, dst.floats);
        for (u64 i = rng.below(4) + 1; i > 0; --i) {
          trace.statuses.push_back(api.launch(
              "copy_into", {{static_cast<u32>((n + 255) / 256), 1, 1}, {256, 1, 1}},
              {sim::KernelArg::dev(src.ptr), sim::KernelArg::dev_out(dst.ptr),
               sim::KernelArg::i64v(static_cast<i64>(n))}));
        }
        break;
      }
      case 4: {  // free
        const u64 index = rng.below(buffers.size());
        const VirtualPtr ptr = buffers[index].ptr;
        trace.statuses.push_back(api.free(ptr));
        buffers.erase(buffers.begin() + static_cast<long>(index));
        if (pair && (pair->first.ptr == ptr || pair->second.ptr == ptr)) pair.reset();
        break;
      }
      default:
        break;
    }
  }
  for (const Buffer& buf : buffers) {
    std::vector<float> data(buf.floats, -2.0f);
    trace.statuses.push_back(api.copy_out(data, buf.ptr));
    trace.observations.push_back(std::move(data));
    (void)api.free(buf.ptr);
  }
  return trace;
}

class DifferentialTest : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialTest, BareAndGpuvmObserveIdenticalBytes) {
  const u64 seed = GetParam();
  // Plenty of device memory: no swapping, pure protocol equivalence.
  Trace direct_trace;
  {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    machine.add_gpu(sim::test_gpu(8 << 20));
    register_kernels(machine);
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    DirectApi api(rt);
    direct_trace = run_sequence(api, seed, 120, 8 * 1024);
  }
  Trace gpuvm_trace;
  {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    machine.add_gpu(sim::test_gpu(8 << 20));
    register_kernels(machine);
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    Runtime runtime(rt);
    FrontendApi api(runtime.connect());
    gpuvm_trace = run_sequence(api, seed, 120, 8 * 1024);
  }
  EXPECT_EQ(direct_trace.observations, gpuvm_trace.observations);
}

TEST_P(DifferentialTest, GpuvmUnderMemoryPressureMatchesAmpleMemoryRun) {
  // The same sequence against a tiny device (constant swapping) and a huge
  // device (no swapping) must observe identical bytes: swapping is
  // invisible to the application.
  const u64 seed = GetParam() * 7919;
  const auto run_with_capacity = [&](u64 capacity) {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    machine.add_gpu(sim::test_gpu(capacity));
    register_kernels(machine);
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    Runtime runtime(rt);
    FrontendApi api(runtime.connect());
    return run_sequence(api, seed, 100, 6 * 1024);  // up to ~24 KiB buffers
  };
  const Trace ample = run_with_capacity(8 << 20);
  const Trace pressured = run_with_capacity(96 * 1024);  // a few buffers fit
  EXPECT_EQ(ample.observations, pressured.observations);
  EXPECT_EQ(ample.statuses, pressured.statuses);
}

TEST_P(DifferentialTest, RelaunchedIdempotentKernelObservesIdenticalBytes) {
  // The device keeps the result of a relaunch over unchanged buffers. Bare,
  // gpuvm with ample memory and gpuvm swapping constantly must observe the
  // bytes of a reference run whose copy_into is not declared idempotent,
  // so that every launch runs its body.
  const u64 seed = GetParam() * 104729;
  struct Run {
    Trace trace;
    u64 reused = 0;
    u64 swaps = 0;
  };
  const auto run = [&](bool gpuvm, u64 capacity, bool idempotent) {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    const GpuId gpu = machine.add_gpu(sim::test_gpu(capacity));
    register_kernels(machine);
    sim::KernelDef copy_into = *machine.kernels().find("copy_into");
    copy_into.idempotent = idempotent;
    machine.kernels().add(copy_into);
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    Run out;
    if (gpuvm) {
      Runtime runtime(rt);
      FrontendApi api(runtime.connect());
      out.trace = run_relaunch_sequence(api, seed, 300, 6 * 1024);
      out.swaps = runtime.memory().stats().intra_app_swaps;
    } else {
      DirectApi api(rt);
      out.trace = run_relaunch_sequence(api, seed, 300, 6 * 1024);
    }
    out.reused = machine.gpu(gpu)->stats().reused_kernels;
    return out;
  };
  const Run reference = run(false, 8 << 20, false);
  const Run bare = run(false, 8 << 20, true);
  const Run ample = run(true, 8 << 20, true);
  const Run pressured = run(true, 56 * 1024, true);  // two of the largest buffers fit
  EXPECT_EQ(reference.reused, 0u);
  EXPECT_GT(bare.reused, 0u);
  EXPECT_GT(ample.reused, 0u);
  EXPECT_GT(pressured.swaps, 0u);
  EXPECT_EQ(reference.trace, bare.trace);
  EXPECT_EQ(reference.trace.observations, ample.trace.observations);
  EXPECT_EQ(ample.trace, pressured.trace);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace gpuvm::core

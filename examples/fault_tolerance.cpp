// Fault-tolerance demo: GPU failure, checkpoint-restart, hot add/remove.
//
// A long-running iterative job computes on one GPU of a two-GPU node with
// automatic post-kernel checkpointing enabled. Mid-run the GPU it is bound
// to fails; the daemon rolls the job's memory state back to the swap-area
// checkpoint and transparently replays onto the surviving device -- the
// job's results stay correct and no restart is needed. A third GPU is then
// hot-added and picks up new work.
//
//   ./examples/fault_tolerance
#include <cstdio>
#include <vector>

#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "sim/machine.hpp"

using namespace gpuvm;

int main() {
  vt::Domain dom;
  vt::AttachGuard attach(dom);
  sim::SimParams params{1};
  sim::SimMachine machine(dom, params);
  const GpuId gpu_a = machine.add_gpu(sim::test_gpu(1 << 20));
  machine.add_gpu(sim::test_gpu(1 << 20));  // the survivor the job replays onto

  sim::KernelDef step;
  step.name = "simulate_step";
  step.body = [](sim::KernelExecContext& ctx) {
    for (auto& v : ctx.buffer<float>(0)) v = v * 0.5f + 1.0f;
    return Status::Ok;
  };
  step.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{2e8, 0.0};  // ~2 ms per step on the test GPU
  };
  machine.kernels().add(step);

  cudart::CudaRt cuda(machine, cudart::CudaRtConfig{4 * 1024, 8});
  core::RuntimeConfig config;
  config.auto_checkpoint_after_kernel_seconds = 1e-3;  // checkpoint long kernels
  core::Runtime daemon(cuda, config);

  core::FrontendApi api(daemon.connect());
  (void)api.register_kernels({"simulate_step"});

  constexpr u64 kN = 32 * 1024;
  auto state = api.malloc(kN * sizeof(float));
  if (!state) return 1;
  std::vector<float> host(kN, 0.0f);
  (void)api.copy_in(state.value(), host);

  const auto run_step = [&] {
    return api.launch("simulate_step", {{kN / 256, 1, 1}, {256, 1, 1}},
                      {sim::KernelArg::dev(state.value())});
  };

  std::printf("running 5 simulation steps on a healthy node...\n");
  for (int i = 0; i < 5; ++i) {
    if (!ok(run_step())) return 1;
  }

  const auto resident = daemon.memory().residency(ContextId{1});
  const GpuId victim = resident.value_or(gpu_a);
  std::printf("injecting failure into GPU %llu (the job's device)...\n",
              static_cast<unsigned long long>(victim.value));
  (void)machine.fail_gpu(victim);

  std::printf("continuing: the daemon replays onto the surviving GPU...\n");
  for (int i = 0; i < 5; ++i) {
    const Status s = run_step();
    if (!ok(s)) {
      std::printf("step failed after GPU loss: %s\n", to_string(s));
      return 1;
    }
  }

  std::printf("hot-adding a third GPU (dynamic upgrade)...\n");
  (void)machine.add_gpu(sim::test_gpu(1 << 20));
  std::printf("visible vGPUs now: %d\n", api.device_count());
  for (int i = 0; i < 2; ++i) {
    if (!ok(run_step())) return 1;
  }

  // 12 steps of x := x/2 + 1 from 0 converge toward 2.
  (void)api.copy_out(host, state.value());
  std::printf("state[0] after 12 steps across a GPU failure: %.5f (expected ~2)\n",
              static_cast<double>(host[0]));

  const auto stats = daemon.stats();
  std::printf("recoveries: %llu, auto checkpoints: %llu\n",
              static_cast<unsigned long long>(stats.recoveries),
              static_cast<unsigned long long>(stats.auto_checkpoints));
  const bool converged = host[0] > 1.99f && host[0] < 2.01f;
  std::printf("%s\n", converged ? "OK: no restart, state survived" : "MISMATCH");
  return converged ? 0 : 1;
}

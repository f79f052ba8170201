// Shared scaffolding for the reproduction benchmarks.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (section 5). Reported times are *modeled seconds* (the virtual
// clock), directly comparable to the paper's axes; counters annotate swap /
// migration / offload counts the way the figures do. Kernel bodies are
// skipped (pure performance simulation); correctness is covered by the test
// suite.
//
// GPUVM_BENCH_RUNS overrides the number of randomized repetitions
// (default 5; the paper averages over 10 -- set GPUVM_BENCH_RUNS=10 to
// match at the cost of wall-clock time).
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/direct_api.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "workloads/batch.hpp"
#include "workloads/workload.hpp"

namespace gpuvm::bench {

/// Records a trace for one environment's lifetime when GPUVM_TRACE_OUT
/// names a file; the Chrome JSON is written there on teardown (each env
/// overwrites the file, so the last configuration's trace survives --
/// run a single benchmark when capturing).
class TraceSession {
 public:
  explicit TraceSession(vt::Domain& dom) {
    const char* path = std::getenv("GPUVM_TRACE_OUT");
    if (path == nullptr || *path == '\0') return;
    path_ = path;
    recorder_ = std::make_unique<obs::TraceRecorder>(dom);
    recorder_->set_process_name(obs::kRuntimePid, "gpuvm runtime");
    obs::set_tracer(recorder_.get());
  }

  ~TraceSession() {
    if (recorder_ == nullptr) return;
    obs::set_tracer(nullptr);
    (void)recorder_->export_chrome_json_file(path_);
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

inline int bench_runs() {
  if (const char* env = std::getenv("GPUVM_BENCH_RUNS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

inline sim::SimParams bench_params() {
  sim::SimParams params;
  params.mem_scale = 1024;
  params.execute_kernel_bodies = false;
  return params;
}

/// One single-node experiment environment. GPU set chosen per figure.
class NodeEnv {
 public:
  NodeEnv(const std::vector<sim::GpuSpec>& gpus, core::RuntimeConfig config)
      : guard_(dom_), trace_(dom_), machine_(dom_, bench_params()) {
    obs::metrics().reset();  // per-run annotations, not cumulative
    for (const auto& spec : gpus) machine_.add_gpu(spec);
    workloads::register_all_kernels(machine_.kernels());
    rt_ = std::make_unique<cudart::CudaRt>(machine_);
    runtime_ = std::make_unique<core::Runtime>(*rt_, config);
  }

  /// Environment without the gpuvm daemon (bare CUDA runtime baseline).
  explicit NodeEnv(const std::vector<sim::GpuSpec>& gpus)
      : guard_(dom_), trace_(dom_), machine_(dom_, bench_params()) {
    obs::metrics().reset();
    for (const auto& spec : gpus) machine_.add_gpu(spec);
    workloads::register_all_kernels(machine_.kernels());
    rt_ = std::make_unique<cudart::CudaRt>(machine_);
  }

  workloads::BatchOutcome run_direct(const std::vector<workloads::JobSpec>& jobs) {
    // Bare-CUDA jobs use the programmer-defined static mapping: round-robin
    // cudaSetDevice across the node's GPUs (what a user would hand-code).
    auto next_device = std::make_shared<std::atomic<int>>(0);
    const int devices = rt_->get_device_count();
    workloads::BatchRunner runner(
        dom_, machine_.params(), [this, next_device, devices](const workloads::JobSpec&, double) {
          auto api = std::make_unique<core::DirectApi>(*rt_);
          (void)api->set_device(next_device->fetch_add(1) % devices);
          return api;
        });
    return runner.run(jobs);
  }

  workloads::BatchOutcome run_gpuvm(const std::vector<workloads::JobSpec>& jobs) {
    workloads::BatchRunner runner(
        dom_, machine_.params(), [&](const workloads::JobSpec&, double hint) {
          core::ConnectOptions options;
          options.job_cost_hint_seconds = hint;
          return std::make_unique<core::FrontendApi>(runtime_->connect(), options);
        });
    return runner.run(jobs);
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  TraceSession trace_;  // before machine_: GPUs register track names on build
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<core::Runtime> runtime_;
};

inline std::vector<sim::GpuSpec> paper_node_gpus() {
  // The paper's main node: two Tesla C2050s and one Tesla C1060.
  const auto params = bench_params();
  return {sim::tesla_c2050(params), sim::tesla_c2050(params), sim::tesla_c1060(params)};
}

inline std::vector<sim::GpuSpec> unbalanced_node_gpus() {
  // Figure 9's node: the C1060 replaced by the weaker Quadro 2000.
  const auto params = bench_params();
  return {sim::tesla_c2050(params), sim::tesla_c2050(params), sim::quadro_2000(params)};
}

inline core::RuntimeConfig sharing_config(int vgpus) {
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = vgpus;
  return config;
}

/// Turns a JobSpec batch into jobs with no verification (bodies skipped).
inline std::vector<workloads::JobSpec> no_verify(std::vector<workloads::JobSpec> jobs) {
  for (auto& job : jobs) job.verify = false;
  return jobs;
}

/// Mixed BS-L / MM-L batch at a given MM-L percentage (Figures 8 and 11).
inline std::vector<workloads::JobSpec> mixed_long_batch(int count, int mml_percent,
                                                        double mml_cpu_fraction, u64 seed) {
  std::vector<workloads::JobSpec> jobs;
  const int mml_jobs = count * mml_percent / 100;
  for (int i = 0; i < count; ++i) {
    workloads::JobSpec spec;
    spec.workload = i < mml_jobs ? "MM-L" : "BS-L";
    spec.cpu_fraction = spec.workload == "MM-L" ? mml_cpu_fraction : 0.0;
    spec.seed = seed * 100 + static_cast<u64>(i);
    spec.verify = false;
    jobs.push_back(spec);
  }
  return jobs;
}

inline void report_outcome(benchmark::State& state, const workloads::BatchOutcome& outcome) {
  state.SetIterationTime(outcome.total_seconds);
  state.counters["avg_job_s"] = outcome.avg_seconds;
  if (!outcome.all_good()) state.counters["FAILED_JOBS"] = outcome.jobs_failed;
}

/// Annotates the benchmark with the run's queue wait (the registry was
/// reset when the NodeEnv was built, so it is per-run) and the node's swap
/// counts.
inline void report_registry(benchmark::State& state, const NodeEnv& env) {
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  if (const auto* h = snap.find("sched.queue_wait_seconds")) {
    state.counters["queue_wait_s"] = h->sum;
  }
  const core::MemStats mm = env.runtime_ != nullptr ? env.runtime_->memory().stats()
                                                    : core::MemStats{};
  state.counters["swaps"] = static_cast<double>(mm.intra_app_swaps + mm.inter_app_swaps);
  state.counters["swap_MB"] = static_cast<double>(mm.swap_bytes) / 1048576.0;
}

}  // namespace gpuvm::bench

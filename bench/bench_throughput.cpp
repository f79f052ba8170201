// N-tenant contention throughput benchmark for the dispatch hot path.
//
// Measures aggregate tenant throughput (full malloc -> copyHD -> launch ->
// copyDH -> free cycles per modeled second) at 1/4/8/16 concurrent tenants
// through the sharded dispatcher (per-context locks, sharded tables, async
// write-back).
//
// Times are modeled (virtual-clock) seconds: the scaling comes from
// overlapping the modeled device/engine/channel delays across tenants, not
// from host-side lock spinning. Kernel bodies are skipped (correctness is
// covered by the test suite).
//
// Emits machine-readable JSON (default BENCH_throughput.json) with ops/sec
// per tenant count plus scaling_8_over_1, the 8-tenant rate over the
// 1-tenant rate -- the number the CI bench smoke job tracks. A dispatcher
// that serialized tenants would read 1.0.
//
// --trace-overhead switches to the tracing-cost smoke mode the CI trace
// job runs: the same 8-tenant sharded workload back to back with the obs
// TraceRecorder detached, then attached, timed in host wall-clock (the
// modeled virtual makespan is identical by construction -- tracing costs
// no virtual time -- so only wall time can show the instrumentation tax).
// Best-of-N wall times keep scheduler noise out of the ratio. Emits
// {"overhead_ratio": traced/untraced, ...} and optionally the captured
// trace (--trace-out) as the CI artifact.
//
// Flags: --out <path>  --iters <n>  --tenant-counts <csv>  --quick
//        --trace-overhead  --reps <n>  --trace-out <path.json>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"

namespace {

using namespace gpuvm;

constexpr u64 kDevBytes = 8ull << 20;  // 8 MiB per GPU: no swap pressure
constexpr int kGpus = 4;
constexpr int kVgpusPerDevice = 4;
constexpr u64 kFloats = 16 * 1024;  // 64 KiB working buffer per cycle

sim::SimParams bench_params() {
  sim::SimParams params;
  params.execute_kernel_bodies = false;
  return params;
}

void register_kernel(sim::SimMachine& machine) {
  sim::KernelDef busy;
  busy.name = "busy";
  busy.body = [](sim::KernelExecContext&) { return Status::Ok; };
  // ~200us of compute on the 100-GFLOPS test GPU: engine time dominates
  // the per-call channel hops, as in the paper's workloads.
  busy.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{2e7, 0.0};
  };
  machine.kernels().add(busy);
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "bench_throughput: %s\n", what);
  std::exit(1);
}

/// One full environment run; returns aggregate ops per modeled second.
struct RunResult {
  double ops_per_sec = 0.0;
  double elapsed_seconds = 0.0;
  u64 lock_contended = 0;
  u64 async_writebacks = 0;
  u64 trace_events = 0;
};

RunResult run_tenants(int tenants, int iters, bool traced = false,
                      std::string* trace_json = nullptr) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  // The recorder shares the run's domain so event stamps use its clock;
  // scoped so untraced runs pay literally zero instrumentation cost beyond
  // the null-check in the emit helpers.
  std::optional<obs::TraceRecorder> recorder;
  std::optional<obs::ScopedTracer> scoped;
  if (traced) {
    recorder.emplace(dom);
    scoped.emplace(*recorder);
  }
  sim::SimMachine machine(dom, bench_params());
  for (int i = 0; i < kGpus; ++i) machine.add_gpu(sim::test_gpu(kDevBytes));
  register_kernel(machine);
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 64});
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = kVgpusPerDevice;
  core::Runtime runtime(rt, config);

  const auto tenant_loop = [&](int tenant) {
    core::FrontendApi api(runtime.connect());
    if (!api.connected()) die("handshake failed");
    if (!ok(api.register_kernels({"busy"}))) die("register failed");
    std::vector<float> host(kFloats, static_cast<float>(tenant));
    std::vector<float> back(kFloats);
    for (int i = 0; i < iters; ++i) {
      auto ptr = api.malloc(kFloats * sizeof(float));
      if (!ptr) die("malloc failed");
      if (!ok(api.copy_in(ptr.value(), host))) die("copy_in failed");
      if (!ok(api.launch("busy", {{64, 1, 1}, {256, 1, 1}},
                         {sim::KernelArg::dev(ptr.value())}))) {
        die("launch failed");
      }
      if (!ok(api.copy_out(back, ptr.value()))) die("copy_out failed");
      if (!ok(api.free(ptr.value()))) die("free failed");
      dom.sleep_for(vt::from_micros(50));  // short CPU phase between cycles
    }
  };

  vt::StopWatch watch(dom);
  {
    dom.hold();
    std::vector<vt::Thread> apps;
    for (int t = 0; t < tenants; ++t) {
      apps.emplace_back(dom, [&, t] { tenant_loop(t); });
    }
    dom.unhold();
  }
  runtime.drain();

  RunResult result;
  result.elapsed_seconds = watch.elapsed_seconds();
  result.ops_per_sec =
      static_cast<double>(tenants) * iters / std::max(result.elapsed_seconds, 1e-12);
  result.lock_contended = runtime.stats().dispatch_lock_contended;
  result.async_writebacks = runtime.memory().stats().async_writebacks;
  if (recorder.has_value()) {
    result.trace_events = recorder->size();
    if (trace_json != nullptr) *trace_json = recorder->export_chrome_json();
  }
  return result;
}

/// One wall-clock-timed run of the sharded workload, optionally traced.
/// Returns host seconds (the virtual makespan is trace-invariant).
double run_walltimed(int tenants, int iters, bool traced, std::string* trace_json,
                     u64* trace_events) {
  const auto start = std::chrono::steady_clock::now();
  const RunResult r = run_tenants(tenants, iters, traced, trace_json);
  const auto stop = std::chrono::steady_clock::now();
  if (trace_events != nullptr) *trace_events = r.trace_events;
  return std::chrono::duration<double>(stop - start).count();
}

/// Tracing-cost smoke: best-of-`reps` wall time with tracing off vs on.
int run_trace_overhead(const std::string& out_path, const std::string& trace_out, int tenants,
                       int iters, int reps) {
  double best_off = 0.0;
  double best_on = 0.0;
  std::string trace_json;
  for (int r = 0; r < reps; ++r) {
    const double off = run_walltimed(tenants, iters, false, nullptr, nullptr);
    u64 events = 0;
    const bool want_json = r == 0 && !trace_out.empty();
    const double on =
        run_walltimed(tenants, iters, true, want_json ? &trace_json : nullptr, &events);
    if (r == 0 || off < best_off) best_off = off;
    if (r == 0 || on < best_on) best_on = on;
    std::printf("rep %d: untraced %.4fs traced %.4fs (%llu events)\n", r, off, on,
                static_cast<unsigned long long>(events));
  }
  const double total_ops = static_cast<double>(tenants) * iters;
  const double ratio = best_on / std::max(best_off, 1e-12);

  if (!trace_out.empty() && !trace_json.empty()) {
    FILE* tf = std::fopen(trace_out.c_str(), "w");
    if (tf == nullptr) die("cannot open --trace-out file");
    std::fputs(trace_json.c_str(), tf);
    std::fclose(tf);
    std::printf("trace written to %s\n", trace_out.c_str());
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) die("cannot open --out file");
  std::fprintf(f,
               "{\n  \"bench\": \"trace_overhead\",\n  \"tenants\": %d,\n"
               "  \"iters_per_tenant\": %d,\n  \"reps\": %d,\n"
               "  \"untraced_wall_seconds\": %.6f,\n  \"traced_wall_seconds\": %.6f,\n"
               "  \"untraced_ops_per_sec\": %.1f,\n  \"traced_ops_per_sec\": %.1f,\n"
               "  \"overhead_ratio\": %.4f\n}\n",
               tenants, iters, reps, best_off, best_on, total_ops / std::max(best_off, 1e-12),
               total_ops / std::max(best_on, 1e-12), ratio);
  std::fclose(f);
  std::printf("trace overhead ratio=%.4f (traced/untraced wall time) -> %s\n", ratio,
              out_path.c_str());
  return 0;
}

std::vector<int> parse_counts(const char* csv) {
  std::vector<int> counts;
  std::string s(csv);
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const int n = std::atoi(tok.c_str());
    if (n <= 0) die("bad --tenant-counts");
    counts.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  std::string trace_out;
  int iters = 40;
  int reps = 3;
  bool trace_overhead = false;
  std::vector<int> counts = {1, 4, 8, 16};
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) die("missing flag value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next();
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::atoi(next());
      if (iters <= 0) die("bad --iters");
    } else if (std::strcmp(argv[i], "--tenant-counts") == 0) {
      counts = parse_counts(next());
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      iters = 8;
      counts = {1, 8};
    } else if (std::strcmp(argv[i], "--trace-overhead") == 0) {
      trace_overhead = true;
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(next());
      if (reps <= 0) die("bad --reps");
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = next();
    } else {
      die("unknown flag (expected --out/--iters/--tenant-counts/--quick/"
          "--trace-overhead/--reps/--trace-out)");
    }
  }

  if (trace_overhead) {
    return run_trace_overhead(out_path, trace_out, /*tenants=*/8, iters, reps);
  }

  std::vector<RunResult> results;
  double ops_1 = 0.0;
  double ops_8 = 0.0;
  for (int tenants : counts) {
    const RunResult r = run_tenants(tenants, iters);
    results.push_back(r);
    if (tenants == 1) ops_1 = r.ops_per_sec;
    if (tenants == 8) ops_8 = r.ops_per_sec;
    std::printf("sharded tenants=%-3d ops/sec=%10.1f modeled_s=%.4f contended=%llu\n", tenants,
                r.ops_per_sec, r.elapsed_seconds,
                static_cast<unsigned long long>(r.lock_contended));
  }
  // 0 when the sweep lacks the 1- or 8-tenant point.
  const double scaling = ops_1 > 0.0 ? ops_8 / ops_1 : 0.0;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) die("cannot open --out file");
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n  \"iters_per_tenant\": %d,\n", iters);
  std::fprintf(f, "  \"gpus\": %d,\n  \"vgpus_per_device\": %d,\n", kGpus, kVgpusPerDevice);
  std::fprintf(f, "  \"sharded\": [\n");
  for (size_t i = 0; i < counts.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f,
                 "    {\"tenants\": %d, \"ops_per_sec\": %.1f, "
                 "\"modeled_seconds\": %.6f, \"dispatch_lock_contended\": %llu, "
                 "\"async_writebacks\": %llu}%s\n",
                 counts[i], r.ops_per_sec, r.elapsed_seconds,
                 static_cast<unsigned long long>(r.lock_contended),
                 static_cast<unsigned long long>(r.async_writebacks),
                 i + 1 < counts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"scaling_8_over_1\": %.3f\n}\n", scaling);
  std::fclose(f);
  std::printf("scaling_8_over_1=%.3f -> %s\n", scaling, out_path.c_str());
  return 0;
}

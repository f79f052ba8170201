// Outside-in probes: decorators the benchmark wraps around the public
// interfaces it calls, so every per-layer number is measured at the layer
// boundary without touching the program under test.
//
//   - ProbedApi        : a core::GpuApi decorator. Counts calls per op and
//                        records each call's modeled time (virtual clock)
//                        and host time (steady clock); opens one "frontend"
//                        span per call when a tracer is installed.
//   - CountingChannel  : a transport::MessageChannel decorator for the
//                        client end of a connection. Counts messages and
//                        payload bytes in both directions.
//   - KernelBodyTimer  : re-registers kernel bodies with a wrapper that
//                        charges each body's thread-CPU time.
//
// Every probe forwards arguments and results unchanged.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/vt.hpp"
#include "core/gpu_api.hpp"
#include "obs/trace.hpp"
#include "sim/kernels.hpp"
#include "transport/channel.hpp"

namespace gpuvm::perfbench {

enum class Op : int {
  DeviceCount,
  SetDevice,
  RegisterKernels,
  Malloc,
  Free,
  H2D,
  D2H,
  D2D,
  Launch,
  Synchronize,
  GetLastError,
  RegisterNested,
  Checkpoint,
  kCount,
};

inline constexpr std::array<const char*, static_cast<size_t>(Op::kCount)> kOpNames = {
    "device_count", "set_device", "register_kernels", "malloc", "free",
    "h2d", "d2h", "d2d", "launch", "synchronize", "get_last_error",
    "register_nested", "checkpoint"};

/// Per-op call record of one tenant (single-threaded; merged after join).
struct FrontendStats {
  struct PerOp {
    u64 calls = 0;
    u64 failed = 0;
    double host_seconds = 0.0;
    std::vector<double> modeled_us;  ///< one entry per call
  };
  std::array<PerOp, static_cast<size_t>(Op::kCount)> ops;

  PerOp& operator[](Op op) { return ops[static_cast<size_t>(op)]; }
  const PerOp& operator[](Op op) const { return ops[static_cast<size_t>(op)]; }

  u64 total_calls() const {
    u64 n = 0;
    for (const PerOp& p : ops) n += p.calls;
    return n;
  }
  u64 total_failed() const {
    u64 n = 0;
    for (const PerOp& p : ops) n += p.failed;
    return n;
  }
  double total_host_seconds() const {
    double s = 0.0;
    for (const PerOp& p : ops) s += p.host_seconds;
    return s;
  }

  void merge(const FrontendStats& other) {
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].calls += other.ops[i].calls;
      ops[i].failed += other.ops[i].failed;
      ops[i].host_seconds += other.ops[i].host_seconds;
      ops[i].modeled_us.insert(ops[i].modeled_us.end(), other.ops[i].modeled_us.begin(),
                               other.ops[i].modeled_us.end());
    }
  }
};

/// GpuApi decorator: forwards every call to `inner` and records it in
/// `stats`. One instance per job thread.
class ProbedApi final : public core::GpuApi {
 public:
  ProbedApi(core::GpuApi& inner, vt::Domain& dom, FrontendStats& stats, u64 track_tid)
      : inner_(&inner), dom_(&dom), stats_(&stats), tid_(track_tid) {}

 private:
  static bool failed(Status s) { return !ok(s); }
  static bool failed(const Result<VirtualPtr>& r) { return !r; }
  static bool failed(int) { return false; }

  template <typename Fn>
  auto timed(Op op, Fn&& fn) {
    obs::SpanScope span(kOpNames[static_cast<size_t>(op)], "frontend", obs::kRuntimePid, tid_);
    const vt::TimePoint modeled_start = dom_->now();
    const auto host_start = std::chrono::steady_clock::now();
    auto result = fn();
    const std::chrono::duration<double> host = std::chrono::steady_clock::now() - host_start;
    FrontendStats::PerOp& rec = (*stats_)[op];
    ++rec.calls;
    if (failed(result)) ++rec.failed;
    rec.host_seconds += host.count();
    rec.modeled_us.push_back(static_cast<double>((dom_->now() - modeled_start).count()) * 1e-3);
    return result;
  }

 public:
  int device_count() override {
    return timed(Op::DeviceCount, [&] { return inner_->device_count(); });
  }
  Status set_device(int index) override {
    return timed(Op::SetDevice, [&] { return inner_->set_device(index); });
  }
  Status register_kernels(const std::vector<std::string>& names) override {
    return timed(Op::RegisterKernels, [&] { return inner_->register_kernels(names); });
  }
  Result<VirtualPtr> malloc(u64 size) override {
    return timed(Op::Malloc, [&] { return inner_->malloc(size); });
  }
  Status free(VirtualPtr ptr) override {
    return timed(Op::Free, [&] { return inner_->free(ptr); });
  }
  Status memcpy_h2d(VirtualPtr dst, std::span<const std::byte> src) override {
    return timed(Op::H2D, [&] { return inner_->memcpy_h2d(dst, src); });
  }
  Status memcpy_d2h(std::span<std::byte> dst, VirtualPtr src, u64 size) override {
    return timed(Op::D2H, [&] { return inner_->memcpy_d2h(dst, src, size); });
  }
  Status memcpy_d2d(VirtualPtr dst, VirtualPtr src, u64 size) override {
    return timed(Op::D2D, [&] { return inner_->memcpy_d2d(dst, src, size); });
  }
  Status launch(const std::string& kernel, const sim::LaunchConfig& config,
                const std::vector<sim::KernelArg>& args) override {
    return timed(Op::Launch, [&] { return inner_->launch(kernel, config, args); });
  }
  Status synchronize() override {
    return timed(Op::Synchronize, [&] { return inner_->synchronize(); });
  }
  Status get_last_error() override {
    return timed(Op::GetLastError, [&] { return inner_->get_last_error(); });
  }
  Status register_nested(VirtualPtr parent, const std::vector<core::NestedRef>& refs) override {
    return timed(Op::RegisterNested, [&] { return inner_->register_nested(parent, refs); });
  }
  Status checkpoint() override {
    return timed(Op::Checkpoint, [&] { return inner_->checkpoint(); });
  }

 private:
  core::GpuApi* inner_;
  vt::Domain* dom_;
  FrontendStats* stats_;
  u64 tid_;
};

/// Message and payload-byte totals, shared by every CountingChannel of a
/// run (offload proxies send from daemon threads, hence atomics).
struct TransportCounters {
  std::atomic<u64> messages{0};
  std::atomic<u64> payload_bytes{0};

  void count(const transport::Message& msg) {
    messages.fetch_add(1, std::memory_order_relaxed);
    payload_bytes.fetch_add(msg.payload.size(), std::memory_order_relaxed);
  }
};

/// MessageChannel decorator for the client end of a connection: counts
/// every message sent and received, forwards everything unchanged.
class CountingChannel final : public transport::MessageChannel {
 public:
  CountingChannel(std::unique_ptr<transport::MessageChannel> inner, TransportCounters& counters)
      : inner_(std::move(inner)), counters_(&counters) {}

  bool send(transport::Message msg) override {
    counters_->count(msg);
    return inner_->send(std::move(msg));
  }
  std::optional<transport::Message> receive() override {
    auto msg = inner_->receive();
    if (msg.has_value()) counters_->count(*msg);
    return msg;
  }
  void close() override { inner_->close(); }
  bool closed() const override { return inner_->closed(); }
  bool pending() const override { return inner_->pending(); }

 private:
  std::unique_ptr<transport::MessageChannel> inner_;
  TransportCounters* counters_;
};

/// Charges kernel-body host CPU: wrap() re-registers each named kernel with
/// its body run under a thread-CPU stopwatch. The wrapped bodies capture
/// `this`, so the timer must outlive every registry it wrapped.
class KernelBodyTimer {
 public:
  KernelBodyTimer() = default;
  KernelBodyTimer(const KernelBodyTimer&) = delete;
  KernelBodyTimer& operator=(const KernelBodyTimer&) = delete;

  void wrap(sim::KernelRegistry& registry, const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      std::shared_ptr<const sim::KernelDef> def = registry.find(name);
      if (def == nullptr || !def->body) continue;
      sim::KernelDef wrapped = *def;
      wrapped.body = [this, body = def->body](sim::KernelExecContext& kc) {
        const u64 start = thread_cpu_ns();
        const Status s = body(kc);
        cpu_ns_.fetch_add(thread_cpu_ns() - start, std::memory_order_relaxed);
        calls_.fetch_add(1, std::memory_order_relaxed);
        return s;
      };
      registry.add(std::move(wrapped));
    }
  }

  u64 calls() const { return calls_.load(std::memory_order_relaxed); }
  double cpu_seconds() const {
    return static_cast<double>(cpu_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  static u64 thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
  }

  std::atomic<u64> cpu_ns_{0};
  std::atomic<u64> calls_{0};
};

}  // namespace gpuvm::perfbench

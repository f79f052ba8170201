// Self-test of the benchmark's probes: each one passes arguments and
// results through unchanged, and its counts match a hand-counted job.
// Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "probes.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace gpuvm::perfbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (false)

/// Canned GpuApi: fixed results, records what it was asked.
class StubApi final : public core::GpuApi {
 public:
  int device_count() override { return 7; }
  Status set_device(int index) override {
    last_index = index;
    return Status::ErrorInvalidValue;
  }
  Status register_kernels(const std::vector<std::string>& names) override {
    last_names = names;
    return Status::Ok;
  }
  Result<VirtualPtr> malloc(u64 size) override {
    last_size = size;
    if (size == 0) return Status::ErrorMemoryAllocation;
    return VirtualPtr{0x1234};
  }
  Status free(VirtualPtr) override { return Status::Ok; }
  Status memcpy_h2d(VirtualPtr, std::span<const std::byte> src) override {
    last_size = src.size();
    return Status::Ok;
  }
  Status memcpy_d2h(std::span<std::byte> dst, VirtualPtr, u64 size) override {
    std::memset(dst.data(), 0x5a, size);
    return Status::Ok;
  }
  Status memcpy_d2d(VirtualPtr, VirtualPtr, u64) override { return Status::Ok; }
  Status launch(const std::string& kernel, const sim::LaunchConfig&,
                const std::vector<sim::KernelArg>& args) override {
    last_names = {kernel};
    last_size = args.size();
    return Status::ErrorLaunchFailure;
  }
  Status synchronize() override { return Status::Ok; }
  Status get_last_error() override { return Status::ErrorLaunchFailure; }

  int last_index = -1;
  u64 last_size = 0;
  std::vector<std::string> last_names;
};

void probed_api_passes_results_through() {
  vt::Domain dom;
  vt::AttachGuard attach(dom);
  StubApi stub;
  FrontendStats stats;
  ProbedApi api(stub, dom, stats, 1);

  CHECK(api.device_count() == 7);
  CHECK(api.set_device(3) == Status::ErrorInvalidValue && stub.last_index == 3);
  CHECK(ok(api.register_kernels({"a", "b"})) && stub.last_names.size() == 2);
  auto ptr = api.malloc(64);
  CHECK(ptr && ptr.value() == VirtualPtr{0x1234} && stub.last_size == 64);
  CHECK(!api.malloc(0));
  std::vector<std::byte> buf(16);
  CHECK(ok(api.memcpy_d2h(buf, VirtualPtr{0x1234}, buf.size())));
  CHECK(buf[0] == std::byte{0x5a} && buf[15] == std::byte{0x5a});
  CHECK(ok(api.memcpy_h2d(VirtualPtr{0x1234}, buf)) && stub.last_size == 16);
  CHECK(api.launch("k", {}, {sim::KernelArg::i64v(1), sim::KernelArg::i64v(2)}) ==
        Status::ErrorLaunchFailure);
  CHECK(stub.last_names.at(0) == "k" && stub.last_size == 2);
  CHECK(api.get_last_error() == Status::ErrorLaunchFailure);

  CHECK(stats.total_calls() == 9);
  CHECK(stats[Op::Malloc].calls == 2 && stats[Op::Malloc].failed == 1);
  CHECK(stats[Op::Launch].calls == 1 && stats[Op::Launch].failed == 1);
  // set_device, malloc(0), launch, get_last_error
  CHECK(stats.total_failed() == 4);
  CHECK(stats[Op::D2H].modeled_us.size() == 1 && stats[Op::D2H].modeled_us[0] == 0.0);
}

void counting_channel_passes_messages_through() {
  vt::Domain dom;
  vt::AttachGuard attach(dom);
  auto [client, server] = transport::make_local_pair(dom);
  TransportCounters counters;
  CountingChannel probed(std::move(client), counters);

  transport::Message msg;
  msg.op = transport::Opcode::Malloc;
  msg.connection = ConnectionId{9};
  msg.payload = {1, 2, 3, 4, 5};
  CHECK(probed.send(msg));
  auto got = server->receive();
  CHECK(got.has_value() && got->op == msg.op && got->connection == msg.connection &&
        got->payload == msg.payload);

  CHECK(server->send(transport::make_reply(msg.connection, Status::Ok, {7, 8})));
  CHECK(probed.pending());
  auto reply = probed.receive();
  CHECK(reply.has_value() && transport::reply_status(*reply) == Status::Ok);
  CHECK(counters.messages.load() == 2);
  CHECK(counters.payload_bytes.load() == msg.payload.size() + reply->payload.size());

  probed.close();
  CHECK(probed.closed() && !probed.send(msg));
}

void kernel_timer_passes_bodies_through() {
  sim::KernelRegistry plain;
  sim::KernelRegistry timed;
  workloads::register_all_kernels(plain);
  workloads::register_all_kernels(timed);
  KernelBodyTimer timer;
  timer.wrap(timed, {"va_add", "no_such_kernel"});

  constexpr u64 n = 64;
  const auto run = [&](const sim::KernelRegistry& registry, std::vector<float>& c) {
    std::vector<float> a(n, 1.5f);
    std::vector<float> b(n, 2.0f);
    std::vector<std::span<std::byte>> spans = {
        std::as_writable_bytes(std::span(a)), std::as_writable_bytes(std::span(b)),
        std::as_writable_bytes(std::span(c)), {}};
    sim::KernelExecContext kc({}, {sim::KernelArg::dev(1), sim::KernelArg::dev(2),
                                   sim::KernelArg::dev_out(3), sim::KernelArg::i64v(n)},
                              spans);
    return registry.find("va_add")->body(kc);
  };
  std::vector<float> expect(n);
  std::vector<float> got(n);
  CHECK(ok(run(plain, expect)));
  CHECK(ok(run(timed, got)));
  CHECK(got == expect && got[0] == 3.5f);
  CHECK(timer.calls() == 1);
  CHECK(timed.find("no_such_kernel") == nullptr);
  CHECK(timed.size() == plain.size());
}

/// VA by hand: register_kernels 1, malloc 3, h2d 2, launch 1, d2h 1,
/// free 3. On the wire: Hello, RegisterFatBinary, RegisterFunction, the 10
/// memory/launch calls and Goodbye, each answered by one reply.
void hand_counted_job() {
  vt::Domain dom;
  vt::AttachGuard attach(dom);
  sim::SimParams params;
  sim::SimMachine machine(dom, params);
  machine.add_gpu(sim::tesla_c2050(params));
  workloads::register_all_kernels(machine.kernels());
  KernelBodyTimer timer;
  timer.wrap(machine.kernels(), workloads::find_workload("VA")->kernels());
  cudart::CudaRt rt(machine);
  core::Runtime runtime(rt);

  FrontendStats stats;
  TransportCounters counters;
  workloads::AppResult result;
  {
    core::FrontendApi frontend(std::make_unique<CountingChannel>(runtime.connect(), counters));
    ProbedApi api(frontend, dom, stats, 1);
    workloads::AppContext ctx;
    ctx.dom = &dom;
    ctx.api = &api;
    ctx.params = params;
    ctx.seed = 42;
    result = workloads::find_workload("VA")->run(ctx);
  }
  CHECK(result.success());
  CHECK(stats.total_calls() == 11);
  CHECK(stats[Op::RegisterKernels].calls == 1);
  CHECK(stats[Op::Malloc].calls == 3);
  CHECK(stats[Op::H2D].calls == 2);
  CHECK(stats[Op::Launch].calls == 1);
  CHECK(stats[Op::D2H].calls == 1);
  CHECK(stats[Op::Free].calls == 3);
  CHECK(stats.total_failed() == 0);
  CHECK(stats[Op::Launch].modeled_us.at(0) > 0.0);
  CHECK(counters.messages.load() == 2 * 14);
  CHECK(timer.calls() == 1);
  CHECK(machine.gpu(machine.gpus().at(0))->stats().kernels_launched == 1);
  runtime.drain();
}

}  // namespace
}  // namespace gpuvm::perfbench

int main() {
  using namespace gpuvm::perfbench;
  probed_api_passes_results_through();
  counting_channel_passes_messages_through();
  kernel_timer_passes_bodies_through();
  hand_counted_job();
  if (failures != 0) {
    std::fprintf(stderr, "probes_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("probes_test: all checks passed\n");
  return 0;
}

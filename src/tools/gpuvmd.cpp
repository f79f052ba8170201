// gpuvmd: the stand-alone gpuvm node daemon.
//
// Runs the runtime as its own process listening on an AF_UNIX socket -- the
// deployment shape of the paper's prototype ("our runtime is a stand-alone
// process"). Client processes (gpuvm_run, or anything speaking the wire
// protocol) connect and issue CUDA calls. The daemon hosts the simulated
// node: GPUs are configured on the command line.
//
//   gpuvmd --socket /tmp/gpuvm.sock --gpus c2050,c2050,c1060
//          --vgpus 4 --policy fcfs [--migration] [--cuda4] [--mem-scale 1024]
//          [--trace-out FILE]
//
// Stops on SIGINT/SIGTERM or when `--serve-seconds N` of wall time elapse.
// With --trace-out, a Perfetto-loadable trace of the whole run is written at
// shutdown; SIGUSR1 dumps the trace collected so far without stopping.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/dispatch_policy.hpp"
#include "core/paging_policy.hpp"
#include "core/runtime.hpp"
#include "core/sched_policy.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "transport/unix_socket.hpp"
#include "workloads/workload.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_trace = 0;

void handle_signal(int) { g_stop = 1; }

void handle_dump_signal(int) { g_dump_trace = 1; }

gpuvm::sim::GpuSpec spec_by_name(const std::string& name, const gpuvm::sim::SimParams& params) {
  if (name == "c2050") return gpuvm::sim::tesla_c2050(params);
  if (name == "c1060") return gpuvm::sim::tesla_c1060(params);
  if (name == "quadro2000") return gpuvm::sim::quadro_2000(params);
  if (name == "test") return gpuvm::sim::test_gpu();
  std::fprintf(stderr, "unknown GPU model '%s' (c2050|c1060|quadro2000|test)\n", name.c_str());
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: gpuvmd --socket PATH [--node-name NAME] [--gpus LIST] [--vgpus N] "
               "[--policy fcfs|sjf|credit|deadline|tq|fair] [--quantum-us N] [--migration]\n"
               "              [--dispatch-policy NAME] [--cuda4] [--eager-transfers] "
               "[--mem-scale N] [--serve-seconds N] [--trace-out FILE]\n"
               "              [--paging] [--page-kb N] [--evict NAME] [--prefetch NAME]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpuvm;

  std::string socket_path;
  std::string node_name;
  std::string gpus = "c2050";
  std::string trace_out;
  core::RuntimeConfig config;
  sim::SimParams params;
  int serve_seconds = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--node-name") {
      node_name = next();
    } else if (arg == "--gpus") {
      gpus = next();
    } else if (arg == "--vgpus") {
      config.scheduler.vgpus_per_device = std::atoi(next());
    } else if (arg == "--policy") {
      // Any registered SchedulingPolicy name; validated eagerly so a typo
      // fails the command instead of silently scheduling FCFS.
      config.scheduler.policy = next();
      if (!core::make_scheduling_policy(config.scheduler.policy).has_value()) {
        std::fprintf(stderr, "gpuvmd: unknown policy '%s' (registered:",
                     config.scheduler.policy.c_str());
        for (const std::string& name : core::scheduling_policy_names()) {
          std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    } else if (arg == "--quantum-us") {
      config.scheduler.quantum_seconds = std::atof(next()) * 1e-6;
    } else if (arg == "--dispatch-policy") {
      config.scheduler.dispatch_policy = next();
      if (!cluster::make_dispatch_policy(config.scheduler.dispatch_policy).has_value()) {
        std::fprintf(stderr,
                     "gpuvmd: unknown dispatch policy '%s' "
                     "(round_robin|least_loaded|memory_aware)\n",
                     config.scheduler.dispatch_policy.c_str());
        return 2;
      }
    } else if (arg == "--migration") {
      config.scheduler.enable_migration = true;
    } else if (arg == "--cuda4") {
      config.cuda4_semantics = true;
    } else if (arg == "--eager-transfers") {
      config.defer_transfers = false;
    } else if (arg == "--paging") {
      config.paging = true;
    } else if (arg == "--page-kb") {
      config.page_bytes = static_cast<u64>(std::atoll(next())) * 1024;
    } else if (arg == "--evict") {
      config.eviction_policy = next();
      if (!core::make_eviction_policy(config.eviction_policy).has_value()) {
        std::fprintf(stderr, "gpuvmd: unknown eviction policy '%s' (registered:",
                     config.eviction_policy.c_str());
        for (const std::string& name : core::eviction_policy_names()) {
          std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    } else if (arg == "--prefetch") {
      config.prefetch_policy = next();
      if (!core::make_prefetch_policy(config.prefetch_policy).has_value()) {
        std::fprintf(stderr, "gpuvmd: unknown prefetch policy '%s' (registered:",
                     config.prefetch_policy.c_str());
        for (const std::string& name : core::prefetch_policy_names()) {
          std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    } else if (arg == "--mem-scale") {
      params.mem_scale = static_cast<u64>(std::atoll(next()));
    } else if (arg == "--serve-seconds") {
      serve_seconds = std::atoi(next());
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else {
      usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    usage();
    return 2;
  }

  // The daemon's simulation runs in scaled-real mode so remote clients and
  // the daemon agree on the flow of time across process boundaries (the
  // virtual-clock mode needs all threads in one process).
  vt::Domain dom(vt::Mode::ScaledReal, /*real_scale=*/1e-3);

  // Install the recorder before the machine exists so GPU construction can
  // register its track names.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!trace_out.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>(dom);
    recorder->set_process_name(obs::kRuntimePid, "gpuvm runtime");
    obs::set_tracer(recorder.get());
  }

  sim::SimMachine machine(dom, params);
  for (const std::string& name : split(gpus, ',')) {
    if (!name.empty()) machine.add_gpu(spec_by_name(name, params));
  }
  workloads::register_all_kernels(machine.kernels());
  workloads::register_extended_kernels(machine.kernels());
  cudart::CudaRt cuda(machine);
  core::Runtime daemon(cuda, config);
  if (!node_name.empty()) {
    // Stamps LoadSnapshots and the per-node "stats.node.<name>.*" gauges so
    // a head node aggregating several daemons can tell them apart. The
    // numeric id hashes the name (stand-alone daemons have no cluster
    // authority assigning ids).
    daemon.set_node_identity(std::hash<std::string>{}(node_name), node_name);
  }

  auto server = transport::UnixSocketServer::listen(
      socket_path, [&daemon](std::unique_ptr<transport::MessageChannel> channel) {
        daemon.serve_channel(std::move(channel));
      });
  if (!server.has_value()) {
    std::fprintf(stderr, "gpuvmd: cannot listen on %s\n", socket_path.c_str());
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump_signal);
  std::printf("gpuvmd: %d GPU(s), %d vGPU(s), listening on %s\n",
              static_cast<int>(machine.gpus().size()), daemon.scheduler().vgpu_count(),
              socket_path.c_str());
  std::fflush(stdout);

  const auto dump_trace = [&] {
    if (recorder == nullptr) return;
    if (recorder->export_chrome_json_file(trace_out)) {
      std::printf("gpuvmd: wrote %zu trace events to %s (%llu dropped)\n", recorder->size(),
                  trace_out.c_str(), static_cast<unsigned long long>(recorder->dropped()));
    } else {
      std::fprintf(stderr, "gpuvmd: cannot write trace to %s\n", trace_out.c_str());
    }
    std::fflush(stdout);
  };

  int waited = 0;
  while (g_stop == 0 && (serve_seconds == 0 || waited < serve_seconds)) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    ++waited;
    if (g_dump_trace != 0) {
      g_dump_trace = 0;
      dump_trace();  // SIGUSR1: snapshot the trace without stopping
    }
  }

  server.value()->stop();
  daemon.publish_metrics();
  const auto stats = daemon.stats();
  const auto mem = daemon.memory().stats();
  std::printf("gpuvmd: served %llu connections, %llu launches, %llu swaps, shutting down\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.launches),
              static_cast<unsigned long long>(mem.inter_app_swaps + mem.intra_app_swaps));
  dump_trace();
  obs::set_tracer(nullptr);
  return 0;
}

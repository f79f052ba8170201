// gpuvm_run: client CLI -- runs a Table-2 workload against a gpuvmd daemon.
//
//   gpuvm_run --socket /tmp/gpuvm.sock --workload MM-L [--cpu-fraction 1.0]
//             [--seed 7] [--jobs 4] [--no-verify] [--mem-scale 1024] [--stats]
//
// Each job is one application thread with its own connection (the paper's
// thread/connection/context correspondence). Exit code 0 iff every job
// completed with verified results. --stats polls the daemon's metrics
// registry (QueryStats) after the jobs finish and prints it. With
// --cluster, the query fans out to the primary socket plus every
// --peer NAME=PATH daemon and prints the merged node.<name>.* /
// cluster.total.* view (obs/aggregate.hpp) instead of one registry.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/frontend.hpp"
#include "obs/aggregate.hpp"
#include "transport/unix_socket.hpp"
#include "workloads/workload.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gpuvm_run --socket PATH --workload NAME [--cpu-fraction F]\n"
               "                 [--seed N] [--jobs N] [--no-verify] [--mem-scale N] [--stats]\n"
               "                 [--cluster] [--peer NAME=PATH]...\n"
               "workloads: ");
  for (const auto& name : gpuvm::workloads::all_workload_names()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  for (const auto& name : gpuvm::workloads::extended_workload_names()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpuvm;

  std::string socket_path;
  std::string workload_name;
  double cpu_fraction = 0.0;
  u64 seed = 1;
  int jobs = 1;
  bool verify = true;
  bool stats = false;
  bool cluster = false;
  std::vector<std::pair<std::string, std::string>> peers;  // name, socket
  sim::SimParams params;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--workload") workload_name = next();
    else if (arg == "--cpu-fraction") cpu_fraction = std::atof(next());
    else if (arg == "--seed") seed = static_cast<u64>(std::atoll(next()));
    else if (arg == "--jobs") jobs = std::atoi(next());
    else if (arg == "--no-verify") verify = false;
    else if (arg == "--stats") stats = true;
    else if (arg == "--cluster") { cluster = true; stats = true; }
    else if (arg == "--peer") {
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "gpuvm_run: --peer wants NAME=PATH, got '%s'\n", spec.c_str());
        return 2;
      }
      peers.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    }
    else if (arg == "--mem-scale") params.mem_scale = static_cast<u64>(std::atoll(next()));
    else {
      usage();
      return 2;
    }
  }
  const workloads::Workload* app = workloads::find_workload(workload_name);
  if (app == nullptr) app = workloads::find_extended_workload(workload_name);
  // A stats/cluster poll with no --workload is a pure metrics query; running
  // jobs still requires a valid workload name.
  if (socket_path.empty() || (app == nullptr && !(stats && workload_name.empty()))) {
    usage();
    return 2;
  }

  // Client time flows in the same scaled-real mode as the daemon's.
  vt::Domain dom(vt::Mode::ScaledReal, /*real_scale=*/1e-3);

  std::atomic<int> failures{0};
  if (app != nullptr) {
    std::vector<vt::Thread> threads;
    for (int j = 0; j < jobs; ++j) {
      threads.emplace_back(dom, [&, j] {
        auto channel = transport::unix_connect(socket_path);
        if (!channel.has_value()) {
          std::fprintf(stderr, "job %d: cannot connect to %s\n", j, socket_path.c_str());
          failures.fetch_add(1);
          return;
        }
        core::ConnectOptions options;
        options.job_cost_hint_seconds = app->expected_gpu_seconds();
        core::FrontendApi api(std::move(channel.value()), options);
        if (!api.connected()) {
          failures.fetch_add(1);
          return;
        }
        workloads::AppContext ctx;
        ctx.dom = &dom;
        ctx.api = &api;
        ctx.params = params;
        ctx.seed = seed + static_cast<u64>(j);
        ctx.cpu_fraction = cpu_fraction;
        ctx.verify = verify;
        const auto result = app->run(ctx);
        if (!result.success()) {
          std::fprintf(stderr, "job %d: %s (%s)\n", j, to_string(result.status),
                       result.detail.c_str());
          failures.fetch_add(1);
        } else {
          std::printf("job %d: %s ok, %d kernel launches\n", j, workload_name.c_str(),
                      result.kernel_launches);
        }
      });
    }
  }

  if (cluster) {
    // Head-node view: poll every daemon's registry and merge. The primary
    // socket is node "local" unless the caller named it via a --peer entry
    // that points at the same path.
    std::vector<obs::NodeStats> nodes;
    const auto poll = [&](const std::string& name, const std::string& path) {
      auto ch = transport::unix_connect(path);
      if (!ch.has_value()) {
        std::fprintf(stderr, "gpuvm_run: --cluster cannot connect to %s (%s)\n", name.c_str(),
                     path.c_str());
        return;
      }
      core::FrontendApi api(std::move(ch.value()));
      if (auto snap = api.query_stats()) {
        nodes.push_back(obs::NodeStats{name, std::move(snap.value())});
      } else {
        std::fprintf(stderr, "gpuvm_run: QueryStats to %s failed (%s)\n", name.c_str(),
                     to_string(snap.status()));
      }
    };
    bool primary_named = false;
    for (const auto& [name, path] : peers) primary_named = primary_named || path == socket_path;
    if (!primary_named) poll("local", socket_path);
    for (const auto& [name, path] : peers) poll(name, path);
    const obs::MetricsSnapshot merged = obs::aggregate_cluster(nodes);
    std::printf("---- cluster metrics (%zu node%s) ----\n%s", nodes.size(),
                nodes.size() == 1 ? "" : "s", merged.to_text().c_str());
  }

  if (stats && !cluster) {
    auto channel = transport::unix_connect(socket_path);
    if (channel.has_value()) {
      core::FrontendApi api(std::move(channel.value()));
      if (auto snap = api.query_stats()) {
        std::printf("---- daemon metrics ----\n%s", snap.value().to_text().c_str());
        // Swap pipeline health: device traffic actually moved vs footprint
        // the incremental engine (dirty intervals, write-sets, zero-page
        // validity) avoided shipping.
        bool swap_header = false;
        for (const auto& v : snap.value().values) {
          if (v.name.rfind("stats.mm.swap", 0) != 0 &&
              v.name.rfind("stats.mm.dirty", 0) != 0 &&
              v.name.rfind("stats.mm.clean", 0) != 0) {
            continue;
          }
          if (!swap_header) {
            std::printf("---- swap pipeline ----\n");
            swap_header = true;
          }
          std::printf("%-48s %.0f\n", v.name.c_str(), v.gauge);
        }
        // Scheduler health: dispatch + preemption counters (binds, unbinds,
        // preemptions, thrash-governor trips, the current quantum) and the
        // latency quantiles (queue wait, binding hold) that preemptive
        // policies trade against each other.
        bool sched_header = false;
        const auto sched_section = [&] {
          if (!sched_header) {
            std::printf("---- scheduler ----\n");
            sched_header = true;
          }
        };
        for (const auto& v : snap.value().values) {
          if (v.name.rfind("stats.sched.", 0) != 0) continue;
          sched_section();
          std::printf("%-48s %.0f\n", v.name.c_str(), v.gauge);
        }
        for (const auto& v : snap.value().values) {
          if (v.kind != obs::MetricKind::Histogram || v.count == 0) continue;
          if (v.name.rfind("sched.", 0) != 0) continue;
          sched_section();
          std::printf("%-48s count %llu p50 %.6f p95 %.6f p99 %.6f\n", v.name.c_str(),
                      static_cast<unsigned long long>(v.count),
                      obs::histogram_quantile(v.edges, v.buckets, 0.50),
                      obs::histogram_quantile(v.edges, v.buckets, 0.95),
                      obs::histogram_quantile(v.edges, v.buckets, 0.99));
        }
        // Paging health (MmConfig::paging): fault/TLB/prefetch counters, the
        // computed TLB hit-rate, and the per-launch fault-service quantiles.
        // A daemon running the entry-granular engine publishes all-zero
        // gauges; suppress the section entirely then.
        {
          double tlb_hits = 0.0;
          double tlb_misses = 0.0;
          bool paging_any = false;
          for (const auto& v : snap.value().values) {
            if (v.name == "stats.mm.tlb_hits") tlb_hits = v.gauge;
            if (v.name == "stats.mm.tlb_misses") tlb_misses = v.gauge;
            if ((v.name.rfind("stats.mm.page", 0) == 0 ||
                 v.name.rfind("stats.mm.tlb", 0) == 0 ||
                 v.name.rfind("stats.mm.prefetch", 0) == 0) &&
                v.gauge != 0.0) {
              paging_any = true;
            }
          }
          if (paging_any) {
            std::printf("---- paging ----\n");
            for (const auto& v : snap.value().values) {
              if (v.name.rfind("stats.mm.page", 0) != 0 &&
                  v.name.rfind("stats.mm.tlb", 0) != 0 &&
                  v.name.rfind("stats.mm.prefetch", 0) != 0) {
                continue;
              }
              std::printf("%-48s %.0f\n", v.name.c_str(), v.gauge);
            }
            if (tlb_hits + tlb_misses > 0.0) {
              std::printf("%-48s %.1f%%\n", "tlb hit-rate",
                          100.0 * tlb_hits / (tlb_hits + tlb_misses));
            }
            for (const auto& v : snap.value().values) {
              if (v.kind != obs::MetricKind::Histogram || v.count == 0) continue;
              if (v.name != "mm.page_fault_seconds") continue;
              std::printf("%-48s count %llu p50 %.6f p95 %.6f p99 %.6f\n", v.name.c_str(),
                          static_cast<unsigned long long>(v.count),
                          obs::histogram_quantile(v.edges, v.buckets, 0.50),
                          obs::histogram_quantile(v.edges, v.buckets, 0.95),
                          obs::histogram_quantile(v.edges, v.buckets, 0.99));
            }
          }
        }
        // Virtual clock engine health: advance count, dispatched events and
        // peak sleeper population (vt::Domain::clock_stats). An advance-rate
        // regression (e.g. a timer storm) shows up here first.
        bool vt_header = false;
        for (const auto& v : snap.value().values) {
          if (v.name.rfind("stats.vt.", 0) != 0) continue;
          if (!vt_header) {
            std::printf("---- virtual clock ----\n");
            vt_header = true;
          }
          std::printf("%-48s %.0f\n", v.name.c_str(), v.gauge);
        }
        // Offload health: this daemon's connections proxied to a peer,
        // local fallbacks, recoveries and live migrations.
        std::printf("---- cluster offload health ----\n");
        for (const char* field : {"offloaded_connections", "offload_fallbacks", "recoveries",
                                  "migrations_out", "migrations_in", "migrations_refused"}) {
          const std::string name = std::string("stats.runtime.") + field;
          std::printf("%-48s %.0f\n", name.c_str(), snap.value().gauge_value(name));
        }
      } else {
        std::fprintf(stderr, "gpuvm_run: QueryStats failed (%s)\n", to_string(snap.status()));
      }
      if (auto load = api.query_load()) {
        const auto& snap_load = load.value();
        std::printf(
            "---- daemon load ----\npending %d bound %d active %d vgpus %d "
            "queue-wait-p50 %.6fs\n",
            snap_load.pending_contexts, snap_load.bound_contexts, snap_load.active_contexts,
            snap_load.vgpu_count, snap_load.queue_wait_p50_seconds);
        for (const auto& dev : snap_load.devices) {
          std::printf("gpu %llu: vgpus %d bound %d free %llu/%llu bytes\n",
                      static_cast<unsigned long long>(dev.gpu), dev.vgpus, dev.bound,
                      static_cast<unsigned long long>(dev.free_bytes),
                      static_cast<unsigned long long>(dev.total_bytes));
        }
      }  // v2 daemons: no QueryLoad, silently skip
    } else {
      std::fprintf(stderr, "gpuvm_run: cannot connect for --stats\n");
    }
  }
  return failures.load() == 0 ? 0 : 1;
}

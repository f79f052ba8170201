// gpuvm_bench: one round of one benchmark workload, end to end.
//
// A round builds the deployment (set-up, timed several times), then runs a
// closed loop of 4 tenant threads. Each tenant runs its seeded job list back
// to back, one connection per job, so at most 4 tenant connections are open
// at once. Every job runs its kernel bodies and verifies its own output.
//
//   node-short    1x C2050, 2 vGPUs; Table-2 short apps, no swapping
//   node-oversub  1x C2050, 4 vGPUs; MM-L/BS-L 3:1, inter-app swapping
//   cluster-shed  node-a 2x C2050 + node-b 1x C1060, 1 vGPU each; jobs go
//                 through TorqueScheduler, heartbeats on, node-b sheds
//                 connections to node-a
//
// Output: one JSON object on stdout with the round's metrics, the shape
// counters run.py compares across rounds, and the job tally.
// Usage: gpuvm_bench --workload NAME --seed N [--round R] [--trace 0|1]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/dispatch_policy.hpp"
#include "cluster/node_directory.hpp"
#include "cluster/torque.hpp"
#include "common/rng.hpp"
#include "core/frontend.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "workloads/workload.hpp"

namespace gpuvm::perfbench {
namespace {

constexpr int kTenants = 4;
/// Set-up is timed this many times per round; the round reports the median.
constexpr int kSetups = 20;

[[noreturn]] void die(const char* fmt, const char* arg) {
  std::fprintf(stderr, "gpuvm_bench: ");
  std::fprintf(stderr, fmt, arg);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// ---- Workloads --------------------------------------------------------------

struct JobSpec {
  std::string app;
  double cpu_fraction = 0.0;
  u64 seed = 0;
};

struct WorkloadDef {
  std::string name;
  std::vector<cluster::NodeSpec> nodes;
  int vgpus_per_device = 1;
  bool cluster = false;  ///< jobs go through TorqueScheduler, heartbeats, offload
  /// Each tenant runs `blocks` blocks, each a seeded shuffle of `block`.
  /// The seed orders the jobs and seeds the apps' input data; every seed
  /// carries the same work, and the app mix is the same in every block, so
  /// tenants stay in step with the mix and results vary little by seed.
  std::vector<std::string> block;
  int blocks = 1;
};

WorkloadDef make_workload(const std::string& name, const sim::SimParams& params) {
  WorkloadDef w;
  w.name = name;
  const std::vector<std::string> shorts = workloads::short_running_names();
  if (name == "node-short") {
    w.nodes = {{"node-a", {sim::tesla_c2050(params)}}};
    w.vgpus_per_device = 2;
    w.block = shorts;
    w.blocks = 2;
  } else if (name == "node-oversub") {
    // Two MM-L footprints (1.2 GB each at paper scale) fill the 3 GB card.
    w.nodes = {{"node-a", {sim::tesla_c2050(params)}}};
    w.vgpus_per_device = 4;
    w.block = {"MM-L", "MM-L", "MM-L", "BS-L"};
    w.blocks = 3;
  } else if (name == "cluster-shed") {
    w.nodes = {{"node-a", {sim::tesla_c2050(params), sim::tesla_c2050(params)}},
               {"node-b", {sim::tesla_c1060(params)}}};
    w.vgpus_per_device = 1;
    w.cluster = true;
    w.block = shorts;
  } else {
    die("unknown workload '%s' (node-short | node-oversub | cluster-shed)", name.c_str());
  }
  return w;
}

/// Seeded job lists: per tenant, `blocks` shuffled copies of the block,
/// with per-job data seeds derived from (seed, round, tenant, position).
/// Each round of a run gets its own ordering; the multiset is the same.
std::vector<std::vector<JobSpec>> make_jobs(const WorkloadDef& w, u64 seed, u64 round) {
  std::vector<std::vector<JobSpec>> tenants;
  const u64 order_seed = obs::mix_ids(seed, round);
  Rng rng(order_seed);
  for (u64 t = 0; t < kTenants; ++t) {
    std::vector<std::string> apps;
    for (int b = 0; b < w.blocks; ++b) {
      std::vector<std::string> block = w.block;
      for (size_t i = block.size(); i > 1; --i) std::swap(block[i - 1], block[rng.below(i)]);
      apps.insert(apps.end(), block.begin(), block.end());
    }
    std::vector<JobSpec> jobs;
    for (size_t j = 0; j < apps.size(); ++j) {
      JobSpec spec;
      spec.app = apps[j];
      spec.cpu_fraction = spec.app == "MM-L" ? 1.0 : 0.0;
      spec.seed = order_seed * 1'000'003 + t * 1000 + j;
      jobs.push_back(spec);
    }
    tenants.push_back(std::move(jobs));
  }
  return tenants;
}

/// Each kernel once: apps share kernels (MM-S/MM-L, BS-S/BS-L), and a body
/// wrapped twice would be timed twice.
std::vector<std::string> all_kernel_names() {
  std::set<std::string> names;
  for (const std::string& app : workloads::all_workload_names()) {
    for (const std::string& k : workloads::find_workload(app)->kernels()) names.insert(k);
  }
  return {names.begin(), names.end()};
}

// ---- Deployment -------------------------------------------------------------

/// Everything set-up builds. Member order is teardown order reversed: the
/// kernel timer and counters outlive the cluster whose registries and
/// offload factories point at them.
struct Env {
  Env(const WorkloadDef& w, const sim::SimParams& params) : attach(dom) {
    core::RuntimeConfig config;
    config.scheduler.vgpus_per_device = w.vgpus_per_device;
    config.scheduler.dispatch_policy = "round_robin";
    if (w.cluster) config.offload_threshold = 0;  // the directory's watermarks decide
    cluster = std::make_unique<cluster::Cluster>(dom, params, w.nodes, config);
    const std::vector<std::string> kernels = all_kernel_names();
    for (size_t n = 0; n < cluster->size(); ++n) {
      sim::KernelRegistry& registry = cluster->node(n).machine().kernels();
      workloads::register_all_kernels(registry);
      kernel_timer.wrap(registry, kernels);
    }
    if (!w.cluster) return;
    cluster->enable_load_reports(cluster::directory_config_from(config.scheduler));
    // Mesh offloading from the 1-GPU node only, with the proxy's client end
    // wrapped so the cluster link's traffic is counted.
    cluster::NodeDirectory* dir = cluster->directory();
    cluster::Node* self = &cluster->node(1);
    self->runtime().set_offload_peer([this, self, dir] {
      cluster::Node* target =
          dir->pick_offload_target(self->id(), self->runtime().load_snapshot().load_score());
      if (target == nullptr) return std::unique_ptr<transport::MessageChannel>();
      return std::unique_ptr<transport::MessageChannel>(std::make_unique<CountingChannel>(
          target->runtime().connect_with(transport::ChannelCosts::cluster_link()), transport));
    });
  }

  ~Env() {
    if (cluster != nullptr) cluster->stop_load_reports();
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  vt::Domain dom;
  vt::AttachGuard attach;
  KernelBodyTimer kernel_timer;
  TransportCounters transport;
  std::unique_ptr<cluster::Cluster> cluster;
};

// ---- Tenants ----------------------------------------------------------------

struct JobRecord {
  double start_s = 0.0;  ///< virtual time the job was dispatched/connected
  double end_s = 0.0;
  double head_s = 0.0;   ///< cluster: dispatch -> body start (head queue + connect)
  bool ok = false;
  u64 node = 0;
};

struct TenantResult {
  FrontendStats frontend;
  std::vector<JobRecord> jobs;
};

workloads::AppResult run_app(Env& env, const sim::SimParams& params, const JobSpec& spec,
                             core::GpuApi& inner, FrontendStats& stats, u64 job_id) {
  const workloads::Workload* app = workloads::find_workload(spec.app);
  // The app body's own span: what its calls do not cover is its CPU phases.
  obs::SpanScope job_span(spec.app, "job", obs::kRuntimePid, obs::kJobTidBase + job_id);
  ProbedApi api(inner, env.dom, stats, obs::kJobTidBase + job_id);
  workloads::AppContext ctx;
  ctx.dom = &env.dom;
  ctx.api = &api;
  ctx.params = params;
  ctx.seed = spec.seed;
  ctx.cpu_fraction = spec.cpu_fraction;
  ctx.verify = true;
  workloads::AppResult result = app->run(ctx);
  if (!result.success()) {
    std::fprintf(stderr, "job %llu (%s) failed: %s verified=%d %s\n",
                 static_cast<unsigned long long>(job_id), spec.app.c_str(),
                 to_string(result.status), result.verified ? 1 : 0, result.detail.c_str());
  }
  return result;
}

/// node-*: the tenant connects straight to the node daemon.
void node_tenant(Env& env, const sim::SimParams& params, const std::vector<JobSpec>& jobs,
                 u64 first_job_id, u64 seed, TenantResult& out) {
  core::Runtime& runtime = env.cluster->node(0).runtime();
  for (size_t j = 0; j < jobs.size(); ++j) {
    const u64 job_id = first_job_id + j;
    const u64 trace_id = obs::mint_trace_id(seed, job_id);
    obs::ScopedTraceContext trace({trace_id, 0});
    JobRecord rec;
    rec.start_s = vt::to_seconds(env.dom.now());
    {
      core::ConnectOptions options;
      // The daemon's spans hang off a parent id of their own: under a parent
      // the job thread also uses, both threads would mint the same child ids.
      options.trace = {trace_id, obs::mint_span_id(trace_id, 0, ~u64{0})};
      options.job_cost_hint_seconds =
          workloads::find_workload(jobs[j].app)->expected_gpu_seconds();
      core::FrontendApi frontend(
          std::make_unique<CountingChannel>(runtime.connect(), env.transport), options);
      rec.ok = run_app(env, params, jobs[j], frontend, out.frontend, job_id).success();
    }
    rec.end_s = vt::to_seconds(env.dom.now());
    rec.node = env.cluster->node(0).id().value;
    out.jobs.push_back(rec);
  }
}

/// cluster-shed: every job is submitted to a head-node TorqueScheduler
/// (Oblivious, round-robin) and waited for before the tenant's next job.
void cluster_tenant(Env& env, const sim::SimParams& params, const std::vector<JobSpec>& jobs,
                    u64 first_job_id, u64 seed, TenantResult& out) {
  cluster::TorqueScheduler::Options options;
  options.mode = cluster::TorqueScheduler::Mode::Oblivious;
  options.sched.dispatch_policy = "round_robin";
  options.directory = env.cluster->directory();
  options.trace_seed = seed;
  cluster::TorqueScheduler torque(env.dom, env.cluster->node_pointers(), std::move(options));
  for (size_t j = 0; j < jobs.size(); ++j) {
    const u64 job_id = first_job_id + j;
    JobRecord rec;
    double body_start = 0.0;
    cluster::Job job;
    job.id = JobId{job_id};
    job.name = jobs[j].app;
    job.cost_hint_seconds = workloads::find_workload(jobs[j].app)->expected_gpu_seconds();
    job.body = [&, j, job_id](core::GpuApi& api) {
      body_start = vt::to_seconds(env.dom.now());
      rec.ok = run_app(env, params, jobs[j], api, out.frontend, job_id).success();
    };
    torque.submit(std::move(job));
    // The clock cannot move while this thread runs, so this is the instant
    // the scheduler's worker starts the job. Reading the clock after the
    // join instead would add however far heartbeats advanced it meanwhile.
    rec.start_s = vt::to_seconds(env.dom.now());
    const cluster::BatchResult batch = torque.run_to_completion();
    rec.end_s = rec.start_s + batch.jobs.at(0).seconds;
    rec.head_s = body_start - rec.start_s;
    rec.node = batch.jobs.at(0).node.value;
    out.jobs.push_back(rec);
  }
}

// ---- Statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest percentile with at least 10 samples beyond it: the value with
/// exactly 10 larger samples (the maximum when there are 10 or fewer).
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() <= 10 ? v.back() : v[v.size() - 11];
}

struct HostSample {
  double cpu_s = 0.0;
  std::chrono::steady_clock::time_point wall;
};

HostSample host_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  s.wall = std::chrono::steady_clock::now();
  return s;
}

/// Peak RSS of this process image (VmHWM). Not getrusage's ru_maxrss:
/// that survives exec and so reports the launching process's peak when it
/// was larger.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Modeled self time per span category: each span's duration minus the part
/// its causal children cover.
///
/// Span ids are not unique within a trace: they hash (trace, parent,
/// per-thread ordinal), so the first child a daemon thread opens under a
/// job shares its id with the first one the job's own thread opens. A
/// child is therefore attributed to the innermost span carrying its parent
/// id whose interval encloses it.
std::map<std::string, double> fold_self_seconds(const std::vector<obs::TraceEvent>& events) {
  struct KeyHash {
    size_t operator()(const std::pair<u64, u64>& k) const { return k.first * 31 + k.second; }
  };
  std::unordered_map<std::pair<u64, u64>, std::vector<size_t>, KeyHash> index;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].dur_ns >= 0 && events[i].span != 0) {
      index[{events[i].trace, events[i].span}].push_back(i);
    }
  }
  std::vector<std::vector<std::pair<i64, i64>>> children(events.size());
  for (size_t c = 0; c < events.size(); ++c) {
    const obs::TraceEvent& ev = events[c];
    if (ev.dur_ns < 0 || ev.parent == 0) continue;
    const auto it = index.find({ev.trace, ev.parent});
    if (it == index.end()) continue;
    const i64 lo = ev.ts_ns;
    const i64 hi = ev.ts_ns + ev.dur_ns;
    size_t best = events.size();
    for (size_t p : it->second) {
      const obs::TraceEvent& cand = events[p];
      if (p == c || cand.ts_ns > lo || cand.ts_ns + cand.dur_ns < hi) continue;
      if (best == events.size() || cand.dur_ns < events[best].dur_ns) best = p;
    }
    if (best != events.size()) children[best].push_back({lo, hi});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& ev = events[i];
    if (ev.dur_ns < 0) continue;
    const i64 lo = ev.ts_ns;
    const i64 hi = ev.ts_ns + ev.dur_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    i64 covered = 0;
    i64 cursor = lo;
    for (const auto& [a, b] : kids) {
      const i64 from = std::max(a, cursor);
      const i64 to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[ev.cat] += static_cast<double>(ev.dur_ns - covered) * 1e-9;
  }
  return self;
}

// ---- One round --------------------------------------------------------------

struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, u64> shape;  ///< counters fixed by the job multiset alone
  std::vector<double> job_latencies;  ///< modeled seconds, one per job
  u64 jobs = 0;
  u64 jobs_failed = 0;
};

Output run_round(const std::string& name, u64 seed, u64 round, bool traced) {
  sim::SimParams params;  // mem_scale 1024, kernel bodies on
  const WorkloadDef w = make_workload(name, params);
  const std::vector<std::vector<JobSpec>> jobs = make_jobs(w, seed, round);

  // Set-up, timed kSetups times; all but the last deployment are torn down.
  std::vector<double> setup_times;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    const auto t0 = std::chrono::steady_clock::now();
    env = std::make_unique<Env>(w, params);
    setup_times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  obs::metrics().reset();

  std::unique_ptr<obs::TraceRecorder> recorder;
  if (traced) {
    recorder = std::make_unique<obs::TraceRecorder>(env->dom, size_t{1} << 22);
    obs::set_tracer(recorder.get());
  }

  std::vector<TenantResult> results(jobs.size());
  const double t0 = vt::to_seconds(env->dom.now());
  const HostSample host_start = host_now();
  {
    std::vector<vt::Thread> tenants;
    vt::HoldGuard hold(env->dom);  // common virtual start
    u64 next_job = 1;
    for (size_t t = 0; t < jobs.size(); ++t) {
      tenants.emplace_back(env->dom, [&, t, first = next_job] {
        if (w.cluster) {
          cluster_tenant(*env, params, jobs[t], first, seed, results[t]);
        } else {
          node_tenant(*env, params, jobs[t], first, seed, results[t]);
        }
      });
      next_job += jobs[t].size();
    }
  }  // hold released, then tenants joined
  const HostSample host_end = host_now();
  if (traced) obs::set_tracer(nullptr);

  Output out;
  auto& m = out.metrics;
  FrontendStats fe;
  std::vector<double>& latencies = out.job_latencies;
  std::vector<double> head;
  std::map<u64, u64> placements;
  double last_done = t0;
  for (const TenantResult& r : results) {
    fe.merge(r.frontend);
    for (const JobRecord& j : r.jobs) {
      ++out.jobs;
      if (!j.ok) ++out.jobs_failed;
      latencies.push_back(j.end_s - j.start_s);
      head.push_back(j.head_s);
      ++placements[j.node];
      last_done = std::max(last_done, j.end_s);
    }
  }

  // End to end.
  const double makespan = last_done - t0;
  const double host_cpu = host_end.cpu_s - host_start.cpu_s;
  // Job latency p50 and tail are taken by run.py over every round's
  // job_latencies.
  m["makespan_s"] = makespan;
  m["host_cpu_s"] = host_cpu;
  m["setup_s"] = median(setup_times);
  m["host.wall_s"] = std::chrono::duration<double>(host_end.wall - host_start.wall).count();

  // frontend
  m["frontend.calls"] = static_cast<double>(fe.total_calls());
  for (Op op : {Op::Launch, Op::H2D, Op::D2H, Op::Malloc, Op::Free}) {
    m[std::string("frontend.") + kOpNames[static_cast<size_t>(op)] + ".calls"] =
        static_cast<double>(fe[op].calls);
  }
  m["frontend.launch.modeled_us_p50"] = median(fe[Op::Launch].modeled_us);
  m["frontend.launch.modeled_us_tail"] = tail(fe[Op::Launch].modeled_us);
  m["frontend.d2h.modeled_us_p50"] = median(fe[Op::D2H].modeled_us);
  m["frontend.failed_calls"] = static_cast<double>(fe.total_failed());
  m["frontend.host_us_per_call"] =
      fe.total_calls() == 0 ? 0.0 : fe.total_host_seconds() * 1e6 / fe.total_calls();

  // transport
  m["transport.messages"] = static_cast<double>(env->transport.messages.load());
  m["transport.payload_bytes"] = static_cast<double>(env->transport.payload_bytes.load());

  // runtime, sched, mm, sim (summed over nodes and GPUs)
  core::RuntimeStats rt{};
  core::SchedulerStats sched{};
  core::MemStats mm{};
  sim::GpuStats gpu{};
  size_t gpu_count = 0;
  cluster::Cluster& cl = *env->cluster;
  for (size_t n = 0; n < cl.size(); ++n) {
    core::Runtime& runtime = cl.node(n).runtime();
    const core::RuntimeStats r = runtime.stats();
    rt.launches += r.launches;
    rt.swap_retry_backoffs += r.swap_retry_backoffs;
    rt.offloaded_connections += r.offloaded_connections;
    rt.offload_fallbacks += r.offload_fallbacks;
    const core::SchedulerStats s = runtime.scheduler().stats();
    sched.binds += s.binds;
    sched.unbinds += s.unbinds;
    const core::MemStats x = runtime.memory().stats();
    mm.inter_app_swaps += x.inter_app_swaps;
    mm.intra_app_swaps += x.intra_app_swaps;
    mm.swap_out_bytes += x.swap_out_bytes;
    mm.swap_in_bytes += x.swap_in_bytes;
    mm.bulk_transfers += x.bulk_transfers;
    mm.dirty_bytes_saved += x.dirty_bytes_saved;
    mm.writeback_fences += x.writeback_fences;
    sim::SimMachine& machine = cl.node(n).machine();
    for (GpuId id : machine.all_gpus()) {
      const sim::GpuStats g = machine.gpu(id)->stats();
      gpu.kernels_launched += g.kernels_launched;
      gpu.compute_busy_seconds += g.compute_busy_seconds;
      gpu.copy_busy_seconds += g.copy_busy_seconds;
      gpu.bytes_to_device += g.bytes_to_device;
      gpu.bytes_from_device += g.bytes_from_device;
      ++gpu_count;
    }
  }
  m["runtime.launches"] = static_cast<double>(rt.launches);
  m["runtime.swap_retry_backoffs"] = static_cast<double>(rt.swap_retry_backoffs);
  m["runtime.offloaded_connections"] = static_cast<double>(rt.offloaded_connections);
  m["runtime.offload_fallbacks"] = static_cast<double>(rt.offload_fallbacks);

  m["sched.binds"] = static_cast<double>(sched.binds);
  m["sched.unbinds"] = static_cast<double>(sched.unbinds);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  const obs::MetricValue* waits = snap.find(obs::names::kSchedQueueWaitSeconds);
  m["sched.queue_wait_s_sum"] = waits == nullptr ? 0.0 : waits->sum;

  m["mm.inter_app_swaps"] = static_cast<double>(mm.inter_app_swaps);
  m["mm.intra_app_swaps"] = static_cast<double>(mm.intra_app_swaps);
  m["mm.swap_out_bytes"] = static_cast<double>(mm.swap_out_bytes);
  m["mm.swap_in_bytes"] = static_cast<double>(mm.swap_in_bytes);
  m["mm.bulk_transfers"] = static_cast<double>(mm.bulk_transfers);
  m["mm.dirty_bytes_saved"] = static_cast<double>(mm.dirty_bytes_saved);
  m["mm.writeback_fences"] = static_cast<double>(mm.writeback_fences);

  m["sim.kernels_launched"] = static_cast<double>(gpu.kernels_launched);
  m["sim.compute_busy_s"] = gpu.compute_busy_seconds;
  m["sim.copy_busy_s"] = gpu.copy_busy_seconds;
  m["sim.gpu_busy_frac"] =
      makespan > 0.0 ? gpu.compute_busy_seconds / (makespan * static_cast<double>(gpu_count))
                     : 0.0;
  m["sim.bytes_to_device"] = static_cast<double>(gpu.bytes_to_device);
  m["sim.bytes_from_device"] = static_cast<double>(gpu.bytes_from_device);
  m["sim.kernel_body_cpu_s"] = env->kernel_timer.cpu_seconds();

  // vt
  const vt::Domain::ClockStats clock = env->dom.clock_stats();
  m["vt.advances"] = static_cast<double>(clock.advances);
  m["vt.events_dispatched"] = static_cast<double>(clock.events_dispatched);
  m["vt.host_cpu_us_per_advance"] =
      clock.advances == 0 ? 0.0 : host_cpu * 1e6 / static_cast<double>(clock.advances);

  // cluster
  const cluster::OffloadHealth health = cl.offload_health();
  m["cluster.head_queue_s_p50"] = median(head);
  m["cluster.offloaded"] = static_cast<double>(health.offloaded);
  m["cluster.offload_fallbacks"] = static_cast<double>(health.fallbacks);
  u64 heartbeats = 0;
  for (size_t n = 0; n < cl.size(); ++n) {
    cluster::Node& node = cl.node(n);
    if (cluster::NodeDirectory* dir = cl.directory()) heartbeats += dir->report_count(node.id());
    m["cluster.placement_share." + node.name()] =
        static_cast<double>(placements[node.id().value]) / static_cast<double>(out.jobs);
  }
  m["cluster.heartbeats"] = static_cast<double>(heartbeats);

  // trace fold; the queue-wait p50 comes from the spans, as the registry's
  // histogram only knows bucket edges.
  if (traced) {
    const std::vector<obs::TraceEvent> events = recorder->events();
    std::vector<double> queue_waits;
    for (const obs::TraceEvent& ev : events) {
      if (ev.dur_ns >= 0 && std::strcmp(ev.name, "queue-wait") == 0) {
        queue_waits.push_back(static_cast<double>(ev.dur_ns) * 1e-9);
      }
    }
    m["sched.queue_wait_s_p50"] = median(queue_waits);
    const std::map<std::string, double> self = fold_self_seconds(events);
    for (const char* cat :
         {"job", "frontend", "launch", "sched", "swap", "cudart", "kernel", "xfer", "transport",
          "offload", "cluster"}) {
      const auto it = self.find(cat);
      m[std::string("trace.") + cat + ".self_s"] = it == self.end() ? 0.0 : it->second;
    }
    m["trace.events"] = static_cast<double>(recorder->size());
    m["trace.dropped"] = static_cast<double>(recorder->dropped());
  }

  // Shape counters: fixed by the job multiset, which every round of every
  // seed shares, whatever the ordering. Transport messages repeat
  // only on the node workloads: the offload link's traffic depends on how
  // many connections node-b sheds, which follows heartbeat timing.
  out.shape["frontend.calls"] = fe.total_calls();
  for (size_t i = 0; i < kOpNames.size(); ++i) {
    out.shape[std::string("frontend.") + kOpNames[i] + ".calls"] = fe.ops[i].calls;
  }
  out.shape["sim.kernels_launched"] = gpu.kernels_launched;
  if (!w.cluster) out.shape["transport.messages"] = env->transport.messages.load();

  env.reset();
  m["rss_peak_mib"] = peak_rss_mib();
  return out;
}

void print_json(const std::string& name, u64 seed, u64 round, bool traced, const Output& out) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"round\": %llu, \"traced\": %d, "
              "\"jobs\": %llu, \"jobs_failed\": %llu, \"metrics\": {",
              name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(round), traced ? 1 : 0,
              static_cast<unsigned long long>(out.jobs),
              static_cast<unsigned long long>(out.jobs_failed));
  const char* sep = "";
  for (const auto& [key, value] : out.metrics) {
    std::printf("%s\"%s\": %.17g", sep, key.c_str(), value);
    sep = ", ";
  }
  std::printf("}, \"shape\": {");
  sep = "";
  for (const auto& [key, value] : out.shape) {
    std::printf("%s\"%s\": %llu", sep, key.c_str(), static_cast<unsigned long long>(value));
    sep = ", ";
  }
  std::printf("}, \"job_latencies_s\": [");
  sep = "";
  for (double v : out.job_latencies) {
    std::printf("%s%.17g", sep, v);
    sep = ", ";
  }
  std::printf("]}\n");
}

}  // namespace
}  // namespace gpuvm::perfbench

int main(int argc, char** argv) {
  using namespace gpuvm::perfbench;
  std::string workload;
  unsigned long long seed = 1;
  unsigned long long round = 0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) die("missing value for %s", arg.c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--round") {
      round = std::strtoull(value, nullptr, 10);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      die("unknown flag %s", arg.c_str());
    }
  }
  if (workload.empty()) die("%s", "--workload is required");
  const Output out = run_round(workload, seed, round, trace != 0);
  print_json(workload, seed, round, trace != 0, out);
  return 0;
}

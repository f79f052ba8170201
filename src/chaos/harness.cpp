#include "chaos/harness.hpp"

#include <span>
#include <sstream>
#include <utility>

#include "chaos/chaos_engine.hpp"
#include "chaos/invariants.hpp"
#include "cluster/cluster.hpp"
#include "cluster/migration.hpp"
#include "common/rng.hpp"
#include "core/frontend.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace gpuvm::chaos {
namespace {

/// The verification kernel: every element x := x * 2654435761 + arg, which
/// tenants mirror host-side, so one byte of divergence after recovery,
/// swap, or migration is caught by the final readback compare.
sim::KernelDef chaos_step_kernel() {
  sim::KernelDef def;
  def.name = "chaos_step";
  def.body = [](sim::KernelExecContext& ctx) {
    auto data = ctx.buffer<u32>(0);
    const u32 arg = static_cast<u32>(ctx.scalar_i64(1));
    for (u32& x : data) x = x * 2654435761u + arg;
    return Status::Ok;
  };
  def.cost = sim::per_thread_cost(/*flops_per_thread=*/4000.0, /*bytes_per_thread=*/256.0);
  return def;
}

void run_tenant(const ScenarioConfig& config, cluster::Cluster& cluster, int i,
                TenantOutcome* out, vt::TimePoint* done_at) {
  vt::Domain& dom = cluster.domain();
  out->tenant = i;
  // Each tenant is one causal trace: minted from (seed, tenant ordinal), so
  // replays of the same scenario mint bit-identical trace ids. The root
  // span covers the tenant's whole pipeline; daemon-side spans nest under
  // it via the Hello handshake.
  const obs::TraceContext trace{
      obs::mint_trace_id(config.plan.seed, static_cast<u64>(i) + 1), 0};
  obs::ScopedTraceContext scoped_trace(trace);
  obs::SpanScope tenant_span("tenant", "chaos", obs::kRuntimePid,
                             obs::kJobTidBase + static_cast<u64>(i) + 1);
  // Staggered arrival: distinct per-tenant virtual times keep connection
  // (and thus channel stream-id) order deterministic across replays.
  dom.sleep_for(vt::from_micros(static_cast<double>(i + 1) * 173.0));

  cluster::Node& node = cluster.node(static_cast<size_t>(i) % cluster.size());
  core::FrontendApi api(node.runtime().connect());
  Status st = api.connected() ? Status::Ok : Status::ErrorConnectionClosed;
  VirtualPtr ptr = kNullVirtualPtr;
  const u64 elems = config.buffer_elems + 16 * (static_cast<u64>(i) % 4);
  std::vector<u32> mirror(elems);

  if (st == Status::Ok) st = api.register_kernels({"chaos_step"});
  if (st == Status::Ok) {
    auto alloc = api.malloc(elems * sizeof(u32));
    if (alloc.has_value()) ptr = alloc.value();
    st = alloc.status();
  }
  if (st == Status::Ok) {
    Rng rng(config.plan.seed ^ (0x7e4a7ULL * static_cast<u64>(i + 1)));
    for (u32& x : mirror) x = static_cast<u32>(rng());
    st = api.memcpy_h2d(ptr, std::as_bytes(std::span(mirror)));
  }

  const int total = config.kernels_per_tenant + (i % 3);
  for (int k = 0; st == Status::Ok && k < total; ++k) {
    const u32 arg = (static_cast<u32>(k) + 1u) * 0x9e37u + static_cast<u32>(i);
    // The kernel writes the whole buffer through its first argument; the
    // dev_out annotation makes that write-set explicit so the incremental
    // swap engine is exercised (not just the conservative fallback).
    st = api.launch("chaos_step",
                    {{1, 1, 1}, {static_cast<u32>(elems), 1, 1}},
                    {sim::KernelArg::dev_out(ptr), sim::KernelArg::i64v(static_cast<i64>(arg))});
    if (st == Status::Ok) {
      ++out->kernels_ok;
      for (u32& x : mirror) x = x * 2654435761u + arg;
      // Deterministic partial host write between kernels: a sub-range
      // update of a device-dirty entry forces the write-set sync + dirty-
      // interval merge paths under chaos, mirrored host-side as usual.
      if (k % 3 == 2) {
        const u64 lo = (static_cast<u64>(k) * 37 + static_cast<u64>(i) * 11) % (elems / 2);
        const u64 len = std::min<u64>(elems - lo, 16 + static_cast<u64>(k % 8));
        for (u64 e = lo; e < lo + len; ++e) mirror[e] ^= 0xa5a50000u + static_cast<u32>(k);
        st = api.memcpy_h2d(ptr + lo * sizeof(u32),
                            std::as_bytes(std::span(mirror).subspan(lo, len)));
        if (st != Status::Ok) break;
      }
      // CPU phase between launches (lets the vGPU time-share; distinct
      // per-tenant lengths avoid virtual-clock ties).
      dom.sleep_for(vt::from_micros(40.0 + 10.0 * static_cast<double>(i % 5)));
    } else {
      ++out->kernels_failed;
    }
  }

  if (st == Status::Ok) {
    std::vector<u32> back(elems);
    st = api.memcpy_d2h(std::as_writable_bytes(std::span(back)), ptr, elems * sizeof(u32));
    if (st == Status::Ok) out->data_ok = (back == mirror);
  }
  if (ptr != kNullVirtualPtr) (void)api.free(ptr);  // best-effort; teardown also frees
  out->final_status = st;
  *done_at = dom.now();
}

u64 counter_value(const char* name) { return obs::metrics().counter(name).value(); }

}  // namespace

bool ScenarioResult::deterministic_equal(const ScenarioResult& other) const {
  return diff(other).empty();
}

std::string ScenarioResult::diff(const ScenarioResult& other) const {
  std::ostringstream os;
  if (outcomes.size() != other.outcomes.size()) {
    os << "tenant count " << outcomes.size() << " vs " << other.outcomes.size() << "\n";
  } else {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const TenantOutcome& a = outcomes[i];
      const TenantOutcome& b = other.outcomes[i];
      if (a == b) continue;
      os << "tenant " << i << ": status " << to_string(a.final_status) << "/"
         << to_string(b.final_status) << " ok " << a.kernels_ok << "/" << b.kernels_ok
         << " failed " << a.kernels_failed << "/" << b.kernels_failed << " data " << a.data_ok
         << "/" << b.data_ok << "\n";
    }
  }
  if (makespan_seconds != other.makespan_seconds) {
    os.precision(12);
    os << "makespan " << makespan_seconds << " vs " << other.makespan_seconds << "\n";
  }
  if (event_log != other.event_log) {
    os << "event logs differ (" << event_log.size() << " vs " << other.event_log.size()
       << " events)\n";
    for (size_t i = 0; i < std::max(event_log.size(), other.event_log.size()); ++i) {
      const std::string a = i < event_log.size() ? event_log[i] : "<none>";
      const std::string b = i < other.event_log.size() ? other.event_log[i] : "<none>";
      if (a != b) os << "  [" << i << "] " << a << "  vs  " << b << "\n";
    }
  }
  auto cmp = [&os](const char* name, u64 a, u64 b) {
    if (a != b) os << name << " " << a << " vs " << b << "\n";
  };
  cmp("chaos.events", chaos_events, other.chaos_events);
  cmp("recoveries", recoveries, other.recoveries);
  cmp("transport.retries", transport_retries, other.transport_retries);
  cmp("transport.dropped", transport_dropped, other.transport_dropped);
  cmp("requeues", requeues, other.requeues);
  cmp("migrations", migrations, other.migrations);
  cmp("preemptions", preemptions, other.preemptions);
  return os.str();
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  obs::metrics().reset();
  transport::reset_channel_serial();

  ScenarioResult result;
  result.outcomes.resize(static_cast<size_t>(config.tenants));

  vt::Domain dom;
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<obs::ScopedTracer> tracing;
  if (!config.trace_out.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>(dom);
    tracing = std::make_unique<obs::ScopedTracer>(*recorder);
  }
  // Always-on postmortem ring: when an invariant breaks mid-plan, the
  // engine dumps the last few thousand events for every involved process.
  // Recording costs no virtual time, so outcomes are unchanged.
  obs::FlightRecorder flight_recorder(dom);
  obs::ScopedFlightRecorder scoped_flight(flight_recorder);
  sim::SimParams params;  // mem_scale=1024, kernel bodies executed

  std::vector<cluster::NodeSpec> specs;
  for (int n = 0; n < config.nodes; ++n) {
    cluster::NodeSpec spec;
    spec.name = "node" + std::to_string(n);
    for (int g = 0; g < config.gpus_per_node; ++g) spec.gpus.push_back(sim::test_gpu());
    specs.push_back(std::move(spec));
  }

  core::RuntimeConfig rc;
  rc.scheduler.vgpus_per_device = config.vgpus_per_device;
  rc.max_recovery_attempts = 6;
  rc.scheduler.device_wait_grace_seconds = config.grace_seconds;
  rc.scheduler.policy = config.sched_policy;
  if (config.quantum_seconds > 0.0) rc.scheduler.quantum_seconds = config.quantum_seconds;
  rc.paging = config.paging;
  // Checkpoint after every completed kernel: an Ok the application saw must
  // survive a later device loss (otherwise recovery would silently replay
  // from stale swap data and the mirror compare would catch it).
  rc.auto_checkpoint_after_kernel_seconds = 1e-9;
  if (config.enable_offloading) {
    rc.offload_threshold = config.vgpus_per_device * config.gpus_per_node;
  }

  cluster::Cluster cluster(dom, params, specs, rc);
  // Load reports first: enable_offloading upgrades to directory-driven mesh
  // offload when the directory already exists. The subscriptions are opened
  // in node order before any tenant connects, pinning channel stream
  // serials (and thus fault-injector drop decisions) across replays. Their
  // heartbeats never move the clock on their own, so it waits at the
  // instant the last subscription completed while this (unattached) thread
  // finishes setup.
  if (config.enable_load_reports) cluster.enable_load_reports();
  if (config.enable_offloading) cluster.enable_offloading();
  cluster.register_kernel(chaos_step_kernel());

  transport::ScopedFaultInjector scoped(config.plan.seed);

  std::vector<NodeTarget> targets;
  for (size_t n = 0; n < cluster.size(); ++n) {
    targets.push_back(
        {cluster.node(n).name(), &cluster.node(n).machine(), &cluster.node(n).runtime()});
  }

  ChaosEngine engine(dom, config.plan, targets, sim::test_gpu(), &scoped.injector());
  engine.set_invariant_checker([&targets] { return check_steady(targets); });

  // Live migration on demand: plans without Migrate events never touch the
  // coordinator, so existing seeds replay bit-identically.
  cluster::MigrationCoordinator migration(cluster);
  if (cluster.size() >= 2) {
    engine.set_migrator([&cluster, &migration](int source, int target) {
      const NodeId from = cluster.node(static_cast<size_t>(source) % cluster.size()).id();
      if (target < 0) {
        (void)migration.migrate_from(from);
        return;
      }
      const NodeId to = cluster.node(static_cast<size_t>(target) % cluster.size()).id();
      (void)migration.migrate(from, to);
    });
  }

  std::vector<vt::TimePoint> done_at(static_cast<size_t>(config.tenants), vt::kTimeZero);
  const vt::TimePoint t0 = dom.now();
  std::vector<vt::Thread> threads;
  {
    vt::HoldGuard hold(dom);  // common virtual start time for all actors
    threads.emplace_back(dom, [&engine] { engine.run(); });
    for (int i = 0; i < config.tenants; ++i) {
      TenantOutcome* out = &result.outcomes[static_cast<size_t>(i)];
      vt::TimePoint* done = &done_at[static_cast<size_t>(i)];
      threads.emplace_back(dom,
                           [&config, &cluster, i, out, done] {
                             run_tenant(config, cluster, i, out, done);
                           });
    }
  }
  for (vt::Thread& t : threads) t.join();

  // Stop the heartbeat subscriptions before draining: an open subscription
  // holds a daemon connection open, and drain() waits for zero.
  cluster.stop_load_reports();

  // Quiesce every daemon, then check the stronger invariant set.
  for (const NodeTarget& target : targets) target.runtime->drain();
  result.violations = engine.violations();
  result.flight_dumps = engine.flight_dumps();
  for (std::string& v : check_quiescent(targets)) {
    result.violations.push_back("at quiescence: " + std::move(v));
  }
  if (result.flight_dumps.empty() && !result.violations.empty()) {
    // Quiescence-only violations still deserve a postmortem dump.
    result.flight_dumps.push_back("flight dump at quiescence:\n" +
                                  flight_recorder.dump_text());
  }

  vt::TimePoint last = t0;
  for (vt::TimePoint t : done_at) last = std::max(last, t);
  result.makespan_seconds = vt::to_seconds(last - t0);

  for (const ChaosEngine::ExecutedEvent& ev : engine.log()) {
    std::ostringstream os;
    os << "t=" << ev.at.count() << "ns " << ev.description;
    result.event_log.push_back(os.str());
  }
  result.chaos_events = counter_value(obs::names::kChaosEvents);
  result.transport_retries = counter_value(obs::names::kTransportRetries);
  result.transport_dropped = counter_value(obs::names::kTransportDroppedMessages);
  for (const NodeTarget& target : targets) {
    const core::RuntimeStats runtime_stats = target.runtime->stats();
    const core::SchedulerStats sched_stats = target.runtime->scheduler().stats();
    result.recoveries += runtime_stats.recoveries;
    result.migrations += runtime_stats.migrations_out;
    result.requeues += sched_stats.requeues;
    result.preemptions += sched_stats.preemptions;
  }

  if (recorder != nullptr) {
    tracing.reset();  // stop recording before export
    recorder->export_chrome_json_file(config.trace_out);
  }
  return result;
}

}  // namespace gpuvm::chaos

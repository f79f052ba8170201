// Tests for the load-aware cluster control plane: the NodeDirectory fed by
// QueryLoad heartbeats (staleness, dark-node detection, protocol-v2
// fallback), pluggable dispatch policies on heterogeneous clusters, offload
// hysteresis, and routing around a blacked-out node mid-batch.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "cluster/dispatch_policy.hpp"
#include "cluster/torque.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"

namespace gpuvm::cluster {
namespace {

void add_burn_kernel(Cluster& cluster) {
  sim::KernelDef burn;
  burn.name = "burn";  // 1e8 flops: 1ms on the 100-GFLOPS test GPU
  burn.body = [](sim::KernelExecContext&) { return Status::Ok; };
  burn.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{1e8, 0.0};
  };
  cluster.register_kernel(burn);
}

Job make_job(vt::Domain& dom, int kernels, double cpu_ms, std::atomic<int>* done) {
  Job job;
  job.body = [&dom, kernels, cpu_ms, done](core::GpuApi& api) {
    ASSERT_EQ(api.register_kernels({"burn"}), Status::Ok);
    auto ptr = api.malloc(1024);
    ASSERT_TRUE(ptr.has_value());
    for (int i = 0; i < kernels; ++i) {
      ASSERT_EQ(api.launch("burn", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
                Status::Ok);
      if (cpu_ms > 0) dom.sleep_for(vt::from_millis(cpu_ms));
    }
    if (done != nullptr) done->fetch_add(1);
  };
  return job;
}

/// Short heartbeats so staleness/dark transitions are cheap to wait out.
DirectoryConfig fast_directory() {
  DirectoryConfig config;
  config.heartbeat_interval = vt::from_micros(199.0);
  config.suspect_after_missed = 3;
  return config;
}

class ClusterLbTest : public ::testing::Test {
 protected:
  ClusterLbTest() : guard_(dom_) { obs::metrics().reset(); }

  Cluster make_cluster(const std::vector<NodeSpec>& specs, int vgpus,
                       u32 caps_mask = protocol::caps::kAll) {
    core::RuntimeConfig config;
    config.scheduler.vgpus_per_device = vgpus;
    config.caps_mask = caps_mask;
    Cluster cluster(dom_, sim::SimParams{1}, specs, config, cudart::CudaRtConfig{4 * 1024, 8});
    add_burn_kernel(cluster);
    return cluster;
  }

  std::vector<NodeSpec> two_test_nodes() {
    return {{"node-a", {sim::test_gpu(), sim::test_gpu()}}, {"node-b", {sim::test_gpu()}}};
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
};

TEST_F(ClusterLbTest, HeartbeatsFlowIntoTheDirectory) {
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  cluster.enable_load_reports(fast_directory());
  NodeDirectory* dir = cluster.directory();
  ASSERT_NE(dir, nullptr);

  dom_.sleep_for(vt::from_millis(2.0));  // ~10 heartbeat periods
  for (size_t n = 0; n < cluster.size(); ++n) {
    const NodeId id = cluster.node(n).id();
    EXPECT_TRUE(dir->subscribed(id));
    EXPECT_TRUE(dir->dispatchable(id));
    EXPECT_GT(dir->report_count(id), 3u);
    auto snap = dir->snapshot_of(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->node, id.value);
    EXPECT_EQ(snap->vgpu_count, 2 * cluster.node(n).gpu_count());
    EXPECT_EQ(snap->devices.size(), static_cast<size_t>(cluster.node(n).gpu_count()));
  }
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, EachSubscriptionCostsNoThread) {
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  const int before = dom_.attached_threads();
  cluster.enable_load_reports(fast_directory());
  // Each daemon's heartbeat is a timer the clock engine runs, and the
  // directory folds the reports at delivery: neither side runs a thread.
  EXPECT_EQ(dom_.attached_threads(), before);
  dom_.sleep_for(vt::from_millis(1.0));
  EXPECT_EQ(dom_.attached_threads(), before);
  EXPECT_GT(cluster.directory()->report_count(cluster.node(1).id()), 3u);
  cluster.stop_load_reports();
}

/// The heartbeat schedule of `node`, checked at the current instant: the
/// latest visible report was sampled exactly `seq` intervals after the
/// subscription (`subscribed`, the first snapshot's instant), it is the
/// latest report due by now, and none went missing.
void expect_on_schedule(NodeDirectory& dir, NodeId node, vt::TimePoint subscribed,
                        vt::TimePoint now) {
  const auto snap = dir.snapshot_of(node);
  ASSERT_TRUE(snap.has_value());
  const vt::Duration interval = dir.config().heartbeat_interval;
  const vt::TimePoint sampled = subscribed + interval * static_cast<i64>(snap->seq);
  EXPECT_EQ(vt::TimePoint{snap->vt_ns}, sampled);
  // The next report was sampled an interval later and is still in transit
  // (cluster-link latency plus well under a microsecond of payload).
  const transport::ChannelCosts link = transport::ChannelCosts::cluster_link();
  EXPECT_LE(sampled, now);
  EXPECT_LT(now, sampled + interval + link.latency + vt::from_micros(1.0));
  EXPECT_EQ(dir.report_count(node), snap->seq + 1);  // the first reply, then each tick
}

TEST_F(ClusterLbTest, ReportsKeepTheirInstantsWhileATenantWaitsForAVgpu) {
  // node-b has one vGPU. A holder binds it for 2 ms; a waiter asks for it
  // alone at +0.5 ms, so the waiter's own wait -- holding the scheduler's
  // mutex -- is what advances the clock through the heartbeats in between.
  Cluster cluster = make_cluster(two_test_nodes(), 1);
  cluster.enable_load_reports(fast_directory());
  NodeDirectory* dir = cluster.directory();
  const NodeId b = cluster.node(1).id();
  const vt::TimePoint subscribed{dir->snapshot_of(b)->vt_ns};
  core::Scheduler& sched = cluster.node(1).runtime().scheduler();
  core::Context holder_ctx(ContextId{1001}, dom_);
  core::Context waiter_ctx(ContextId{1002}, dom_);
  const vt::TimePoint t0 = dom_.now();
  int pending_seen = -1;
  vt::TimePoint waiter_bound{};
  {
    dom_.hold();  // both start at t0
    vt::Thread holder(dom_, [&] {
      ASSERT_TRUE(sched.acquire(holder_ctx).has_value());
      dom_.sleep_until(t0 + vt::from_millis(2.0));
      expect_on_schedule(*dir, b, subscribed, dom_.now());
      pending_seen = dir->snapshot_of(b)->pending_contexts;
      sched.release(holder_ctx);
    });
    vt::Thread waiter(dom_, [&] {
      dom_.sleep_until(t0 + vt::from_millis(0.5));
      ASSERT_TRUE(sched.acquire(waiter_ctx).has_value());
      waiter_bound = dom_.now();
      sched.release(waiter_ctx);
    });
    dom_.unhold();
  }
  EXPECT_EQ(pending_seen, 1);  // the reports saw the waiter queued
  EXPECT_EQ(waiter_bound, t0 + vt::from_millis(2.0));
  expect_on_schedule(*dir, b, subscribed, dom_.now());
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, ReportsKeepTheirInstantsWhileDrainWaits) {
  // drain() waits on the daemon's condition variable with its mutex; with
  // every other thread asleep, that wait advances the clock through the
  // heartbeats until a closer ends the subscriptions 2 ms later.
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  cluster.enable_load_reports(fast_directory());
  NodeDirectory* dir = cluster.directory();
  const NodeId b = cluster.node(1).id();
  const vt::TimePoint subscribed{dir->snapshot_of(b)->vt_ns};
  const vt::TimePoint t0 = dom_.now();
  vt::Thread closer(dom_, [&] {
    dom_.sleep_until(t0 + vt::from_millis(2.0));
    expect_on_schedule(*dir, b, subscribed, dom_.now());
    cluster.stop_load_reports();
  });
  dom_.sleep_until(t0 + vt::from_millis(0.5));  // only this thread wakes here
  cluster.node(1).runtime().drain();
  EXPECT_EQ(dom_.now(), t0 + vt::from_millis(2.0));
  closer.join();
}

TEST_F(ClusterLbTest, ReportTurnsVisibleExactlyAtItsDeliveryInstant) {
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  const DirectoryConfig config = fast_directory();
  cluster.enable_load_reports(config);  // over ChannelCosts::cluster_link()
  NodeDirectory* dir = cluster.directory();
  const NodeId b = cluster.node(1).id();
  dom_.sleep_for(vt::from_millis(1.0));

  const auto last = dir->snapshot_of(b);
  ASSERT_TRUE(last.has_value());
  const u64 count = dir->report_count(b);
  // The idle node's next heartbeat leaves one interval after this one and
  // carries a snapshot of the same size.
  const transport::ChannelCosts link = transport::ChannelCosts::cluster_link();
  const vt::Duration transit =
      link.latency + vt::from_seconds(static_cast<double>(transport::encode_load(*last).size()) /
                                      (link.bandwidth_gbps * 1e9));
  const vt::TimePoint next_at = vt::TimePoint{last->vt_ns} + config.heartbeat_interval + transit;
  ASSERT_GT(next_at - vt::Duration{1}, dom_.now());

  dom_.sleep_until(next_at - vt::Duration{1});
  EXPECT_EQ(dir->report_count(b), count);
  EXPECT_EQ(dir->snapshot_of(b)->seq, last->seq);

  dom_.sleep_until(next_at);
  EXPECT_EQ(dir->report_count(b), count + 1);
  const auto next = dir->snapshot_of(b);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->seq, last->seq + 1);
  EXPECT_EQ(next->vt_ns, last->vt_ns + config.heartbeat_interval.count());
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, BrokenHeartbeatLinkTurnsNodeSuspect) {
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  cluster.enable_load_reports(fast_directory());
  NodeDirectory* dir = cluster.directory();
  const NodeId b = cluster.node(1).id();

  dom_.sleep_for(vt::from_millis(1.0));
  ASSERT_TRUE(dir->dispatchable(b));

  // Degrade the wire hard enough that the next heartbeat exhausts the
  // retransmission budget and breaks the subscription channels: reports
  // stop arriving while the entries stay subscribed.
  {
    transport::ScopedFaultInjector chaos(/*seed=*/11);
    chaos.injector().degrade(/*drop_rate=*/1.0, /*extra_delay=*/{});
    // Backoffs for 6 retransmits sum to ~3.2ms; wait that out.
    dom_.sleep_for(vt::from_millis(6.0));
  }

  // Now stale: the last report is many suspect_after_missed intervals old.
  EXPECT_TRUE(dir->subscribed(b));
  EXPECT_TRUE(dir->suspect(b));
  EXPECT_FALSE(dir->dispatchable(b));
  EXPECT_FALSE(dir->dark(b));  // stale, not reported dead
  // The last snapshot is still served (consumers may want the final view).
  EXPECT_TRUE(dir->snapshot_of(b).has_value());
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, ALinkBrokenInsideATickTearsTheSubscriptionDownAtThatInstant) {
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  const DirectoryConfig config = fast_directory();
  cluster.enable_load_reports(config);
  NodeDirectory* dir = cluster.directory();
  const NodeId b = cluster.node(1).id();
  core::Runtime& runtime = cluster.node(1).runtime();
  const vt::TimePoint subscribed{dir->snapshot_of(b)->vt_ns};
  dom_.sleep_for(vt::from_micros(1000.5));  // between two ticks
  const int before = runtime.load_snapshot().active_contexts;
  EXPECT_EQ(before, 1);  // the subscription's own context

  transport::ScopedFaultInjector chaos(/*seed=*/11);
  chaos.injector().degrade(/*drop_rate=*/1.0, /*extra_delay=*/{});
  // node-b's next tick drops its report, retries after 50, 100, ..., 1600
  // us, and breaks the link on the seventh drop, inside that tick.
  const i64 ticks = (dom_.now() - subscribed) / config.heartbeat_interval + 1;
  const vt::TimePoint broken =
      subscribed + config.heartbeat_interval * ticks + vt::from_micros(3150.0);
  dom_.sleep_until(broken - vt::Duration{1});
  EXPECT_EQ(runtime.load_snapshot().active_contexts, before);
  dom_.sleep_until(broken + vt::Duration{1});
  EXPECT_EQ(runtime.load_snapshot().active_contexts, before - 1);
  EXPECT_EQ(dom_.attached_threads(), 1);  // the teardown's thread is gone
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, BlackedOutNodeTurnsDarkAndRecoversOnRejoin) {
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  cluster.enable_load_reports(fast_directory());
  NodeDirectory* dir = cluster.directory();
  const NodeId b = cluster.node(1).id();

  dom_.sleep_for(vt::from_millis(1.0));
  ASSERT_TRUE(dir->dispatchable(b));

  // Blackout: every GPU on node-b dies; the next heartbeat reports zero
  // alive vGPUs.
  for (GpuId id : cluster.node(1).machine().gpus()) cluster.node(1).machine().fail_gpu(id);
  dom_.sleep_for(vt::from_millis(1.0));
  EXPECT_TRUE(dir->dark(b));
  EXPECT_FALSE(dir->dispatchable(b));
  EXPECT_FALSE(dir->suspect(b));  // heartbeats still arrive

  // Rejoin with a fresh device: dark clears with the next report.
  cluster.node(1).machine().add_gpu(sim::test_gpu());
  dom_.sleep_for(vt::from_millis(1.0));
  EXPECT_FALSE(dir->dark(b));
  EXPECT_TRUE(dir->dispatchable(b));
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, ProtocolV2PeersStayDispatchableWithoutLoadData) {
  // caps_mask strips kQueryLoad: the daemons negotiate like protocol-v2
  // peers, the directory watches them blind, and dispatch still works.
  Cluster cluster =
      make_cluster(two_test_nodes(), 2, protocol::caps::kAll & ~protocol::caps::kQueryLoad);
  cluster.enable_load_reports(fast_directory());
  NodeDirectory* dir = cluster.directory();
  for (size_t n = 0; n < cluster.size(); ++n) {
    const NodeId id = cluster.node(n).id();
    EXPECT_FALSE(dir->subscribed(id));
    EXPECT_FALSE(dir->snapshot_of(id).has_value());
    EXPECT_TRUE(dir->dispatchable(id));
  }

  TorqueScheduler::Options options;
  options.sched.dispatch_policy = "least_loaded";
  options.directory = dir;
  TorqueScheduler torque(dom_, cluster.node_pointers(), std::move(options));
  std::atomic<int> done{0};
  for (int i = 0; i < 6; ++i) torque.submit(make_job(dom_, 2, 0.2, &done));
  torque.run_to_completion();
  EXPECT_EQ(done.load(), 6);
  // Blind candidates all score 0: least-loaded degenerates to first-fit,
  // but every job still lands and completes without errors.
  EXPECT_EQ(obs::metrics().counter("cluster.dispatch.least_loaded").value(), 6u);
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, DispatchPolicyFactoryReportsTypedErrors) {
  // The unified SchedulerConfig names dispatch policies as strings; the
  // factory resolves them with typed errors for unknown names.
  for (const char* name : {"round_robin", "least_loaded", "memory_aware"}) {
    auto made = make_dispatch_policy(name);
    ASSERT_TRUE(made.has_value()) << name;
    EXPECT_STREQ(made.value()->name(), name);
  }
  EXPECT_EQ(make_dispatch_policy("no_such_policy").status(), Status::ErrorInvalidValue);
}

TEST_F(ClusterLbTest, OffloadHysteresisRefusesBelowWatermarks) {
  // Watermarks flow from the unified scheduler config into the directory.
  core::SchedulerConfig sched;
  sched.offload_high_watermark = 1.0;
  sched.offload_low_watermark = 0.5;
  DirectoryConfig config = directory_config_from(sched);
  config.heartbeat_interval = fast_directory().heartbeat_interval;
  config.suspect_after_missed = fast_directory().suspect_after_missed;
  Cluster cluster = make_cluster(two_test_nodes(), 2);
  cluster.enable_load_reports(config);
  NodeDirectory* dir = cluster.directory();
  dom_.sleep_for(vt::from_millis(1.0));

  const NodeId a = cluster.node(0).id();
  const u64 before = obs::metrics().counter("cluster.offload_hysteresis_rejections").value();

  // Below the high watermark the node must not shed, however idle the peer.
  EXPECT_EQ(dir->pick_offload_target(a, /*self_score=*/0.9), nullptr);
  // Above it, the idle peer (score 0 <= low watermark) is offered.
  EXPECT_EQ(dir->pick_offload_target(a, /*self_score=*/2.0), &cluster.node(1));
  EXPECT_EQ(obs::metrics().counter("cluster.offload_hysteresis_rejections").value(), before + 1);

  // A dead band with an unreachable low watermark refuses even then: two
  // moderately loaded nodes can never ping-pong connections.
  cluster.stop_load_reports();
  DirectoryConfig strict = fast_directory();
  strict.low_watermark = -1.0;
  Cluster cluster2 = make_cluster(two_test_nodes(), 2);
  cluster2.enable_load_reports(strict);
  dom_.sleep_for(vt::from_millis(1.0));
  EXPECT_EQ(cluster2.directory()->pick_offload_target(cluster2.node(0).id(), 2.0), nullptr);
  cluster2.stop_load_reports();
}

TEST_F(ClusterLbTest, LeastLoadedBeatsRoundRobinOnHeterogeneousCluster) {
  // The paper's heterogeneous testbed: a Fermi Tesla node next to a much
  // weaker Quadro node (345 vs 160 effective GFLOPS). Round-robin divides
  // jobs equally and the Quadro node dominates the makespan; least-loaded
  // sees its queue build up in the heartbeats and shifts work to the C2050.
  const auto run = [&](const std::string& policy) {
    sim::SimParams params{1024};
    std::vector<NodeSpec> specs = {{"tesla", {sim::tesla_c2050(params)}},
                                   {"quadro", {sim::quadro_2000(params)}}};
    Cluster cluster = make_cluster(specs, 2);
    cluster.enable_load_reports(fast_directory());
    TorqueScheduler::Options options;
    options.sched.dispatch_policy = policy;
    options.directory = cluster.directory();
    // Dispatch slower than the heartbeat period so each placement is
    // visible to the next decision.
    options.sched.dispatch_interval_seconds = 0.001;
    TorqueScheduler torque(dom_, cluster.node_pointers(), std::move(options));
    std::atomic<int> done{0};
    for (int i = 0; i < 12; ++i) torque.submit(make_job(dom_, 8, 0.1, &done));
    const BatchResult result = torque.run_to_completion();
    EXPECT_EQ(done.load(), 12);
    cluster.stop_load_reports();
    return result.total_seconds;
  };
  const double rr = run("round_robin");
  const double ll = run("least_loaded");
  EXPECT_LT(ll, rr);
}

TEST_F(ClusterLbTest, MemoryAwareBestFitsTheFootprintHint) {
  // node-a's devices have much more free memory than node-b's single small
  // GPU; a job with a footprint hint too big for node-b must land on
  // node-a even though round-robin or least-loaded could pick either.
  std::vector<NodeSpec> specs = {{"big", {sim::test_gpu(8u << 20)}},
                                 {"small", {sim::test_gpu(1u << 18)}}};
  Cluster cluster = make_cluster(specs, 2);
  cluster.enable_load_reports(fast_directory());
  dom_.sleep_for(vt::from_millis(1.0));

  TorqueScheduler::Options options;
  options.sched.dispatch_policy = "memory_aware";
  options.directory = cluster.directory();
  TorqueScheduler torque(dom_, cluster.node_pointers(), std::move(options));
  std::atomic<int> done{0};
  Job job = make_job(dom_, 1, 0.0, &done);
  job.mem_footprint_bytes = 1u << 20;  // exceeds node-b's device memory
  torque.submit(std::move(job));
  const BatchResult result = torque.run_to_completion();
  EXPECT_EQ(done.load(), 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].node, cluster.node(0).id());
  cluster.stop_load_reports();
}

TEST_F(ClusterLbTest, NodeBlackoutMidBatchStillCompletesEveryJob) {
  // The dead-node dispatch regression: node-b blacks out while the batch is
  // mid-flight and rejoins later. Dispatch decisions made during the dark
  // window must route around it, and every job must complete.
  // Generous grace: contexts caught on the dark node wait for the rejoin.
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;
  config.scheduler.device_wait_grace_seconds = 0.5;
  config.max_recovery_attempts = 6;
  Cluster patient(dom_, sim::SimParams{1}, two_test_nodes(), config,
                  cudart::CudaRtConfig{4 * 1024, 8});
  add_burn_kernel(patient);
  patient.enable_load_reports(fast_directory());

  TorqueScheduler::Options options;
  options.sched.dispatch_policy = "least_loaded";
  options.directory = patient.directory();
  options.sched.dispatch_interval_seconds = 0.002;
  TorqueScheduler torque(dom_, patient.node_pointers(), std::move(options));
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) torque.submit(make_job(dom_, 3, 1.0, &done));

  std::atomic<bool> went_dark{false};
  vt::Thread saboteur(dom_, [&] {
    dom_.sleep_for(vt::from_millis(5.0));  // a few dispatches in
    for (GpuId id : patient.node(1).machine().gpus()) patient.node(1).machine().fail_gpu(id);
    dom_.sleep_for(vt::from_millis(2.0));  // several heartbeat periods
    went_dark.store(patient.directory()->dark(patient.node(1).id()));
    dom_.sleep_for(vt::from_millis(8.0));
    patient.node(1).machine().add_gpu(sim::test_gpu());  // rejoin
  });

  torque.run_to_completion();
  saboteur.join();
  EXPECT_EQ(done.load(), 10);
  EXPECT_TRUE(went_dark.load());
  patient.stop_load_reports();
}

}  // namespace
}  // namespace gpuvm::cluster

// Tests for the cluster substrate: nodes, the TORQUE-like batch scheduler
// (GPU-aware serialization vs. GPU-oblivious stacking on gpuvm), and
// inter-node offloading.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "cluster/torque.hpp"
#include "core/frontend.hpp"
#include "obs/aggregate.hpp"

namespace gpuvm::cluster {
namespace {

sim::GpuSpec small_gpu() { return sim::test_gpu(1 << 20); }

void add_kernels(Cluster& cluster) {
  sim::KernelDef burn;
  burn.name = "burn";  // 1ms on the 100-GFLOPS test GPU
  burn.body = [](sim::KernelExecContext&) { return Status::Ok; };
  burn.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{1e8, 0.0};
  };
  cluster.register_kernel(burn);
}

/// A job with `kernels` GPU bursts separated by `cpu_ms` CPU phases.
Job make_job(vt::Domain& dom, int kernels, double cpu_ms, std::atomic<int>* done) {
  Job job;
  job.body = [&dom, kernels, cpu_ms, done](core::GpuApi& api) {
    ASSERT_EQ(api.register_kernels({"burn"}), Status::Ok);
    auto ptr = api.malloc(1024);
    ASSERT_TRUE(ptr.has_value());
    std::vector<float> data(256, 1.0f);
    ASSERT_EQ(api.copy_in(ptr.value(), data), Status::Ok);
    for (int i = 0; i < kernels; ++i) {
      ASSERT_EQ(api.launch("burn", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
                Status::Ok);
      if (cpu_ms > 0) dom.sleep_for(vt::from_millis(cpu_ms));
    }
    std::vector<float> out(256);
    ASSERT_EQ(api.copy_out(out, ptr.value()), Status::Ok);
    EXPECT_EQ(out, data);
    if (done != nullptr) done->fetch_add(1);
  };
  return job;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : guard_(dom_) {}

  Cluster make_cluster(int vgpus, int offload_threshold = -1) {
    core::RuntimeConfig config;
    config.scheduler.vgpus_per_device = vgpus;
    config.offload_threshold = offload_threshold;
    // Unbalanced two-node cluster like the paper's: 3 GPUs vs 1 GPU.
    Cluster cluster(dom_, sim::SimParams{1},
                    {{"node-a", {small_gpu(), small_gpu(), small_gpu()}},
                     {"node-b", {small_gpu()}}},
                    config, cudart::CudaRtConfig{4 * 1024, 8});
    add_kernels(cluster);
    return cluster;
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
};

TEST_F(ClusterTest, ObliviousModeDividesJobsEqually) {
  Cluster cluster = make_cluster(4);
  TorqueScheduler torque(dom_, cluster.node_pointers(), TorqueScheduler::Mode::Oblivious);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) torque.submit(make_job(dom_, 2, 0.5, &done));
  const BatchResult result = torque.run_to_completion();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(result.jobs.size(), 8u);
  // 4 jobs per node regardless of GPU counts (the scheduler is oblivious).
  EXPECT_EQ(cluster.node(0).runtime().stats().connections, 4u);
  EXPECT_EQ(cluster.node(1).runtime().stats().connections, 4u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.avg_seconds);
}

TEST_F(ClusterTest, GpuAwareModeSerializesOnGpus) {
  Cluster cluster = make_cluster(1);
  TorqueScheduler torque(dom_, cluster.node_pointers(), TorqueScheduler::Mode::GpuAware);
  std::atomic<int> done{0};
  // 8 jobs, 4 GPUs total: at most 4 run at once; each runs ~5ms of GPU.
  for (int i = 0; i < 8; ++i) torque.submit(make_job(dom_, 5, 0.0, &done));
  const BatchResult result = torque.run_to_completion();
  EXPECT_EQ(done.load(), 8);
  // Two waves of 5ms GPU work => makespan ~2x one job's time.
  EXPECT_GT(result.total_seconds, 0.0095);
  EXPECT_LT(result.total_seconds, 0.013);
}

TEST_F(ClusterTest, SharingBeatsSerializedForCpuHeavyJobs) {
  // The core claim of Figures 10/11 at node scale: GPU sharing (4 vGPUs)
  // outperforms serialized execution (1 vGPU) when jobs have CPU phases.
  const auto run = [&](int vgpus) {
    Cluster cluster = make_cluster(vgpus);
    TorqueScheduler torque(dom_, cluster.node_pointers(), TorqueScheduler::Mode::Oblivious);
    for (int i = 0; i < 16; ++i) torque.submit(make_job(dom_, 4, 2.0, nullptr));
    return torque.run_to_completion().total_seconds;
  };
  const double serialized = run(1);
  const double shared = run(4);
  EXPECT_LT(shared, serialized);
}

TEST_F(ClusterTest, OffloadingRelievesTheOverloadedNode) {
  Cluster cluster = make_cluster(1, /*offload_threshold=*/1);
  cluster.enable_offloading();
  TorqueScheduler torque(dom_, cluster.node_pointers(), TorqueScheduler::Mode::Oblivious);
  std::atomic<int> done{0};
  // 12 jobs split 6/6, but node-b has a single GPU (1 vGPU): it overloads
  // and sheds connections to node-a.
  for (int i = 0; i < 12; ++i) torque.submit(make_job(dom_, 4, 1.0, &done));
  const BatchResult result = torque.run_to_completion();
  EXPECT_EQ(done.load(), 12);
  EXPECT_GT(cluster.total_offloaded(), 0u);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST_F(ClusterTest, AnOffloadedJobRunsNoDaemonThreadOnEitherNode) {
  // node-b proxies every connection to node-a; both hops are served on the
  // tenant's own thread.
  Cluster cluster = make_cluster(1, /*offload_threshold=*/0);
  cluster.enable_offloading();
  const int before = dom_.attached_threads();
  {
    core::FrontendApi api(cluster.node(1).runtime().connect());
    ASSERT_TRUE(api.connected());
    ASSERT_EQ(api.register_kernels({"burn"}), Status::Ok);
    auto ptr = api.malloc(1024);
    ASSERT_TRUE(ptr.has_value());
    EXPECT_EQ(dom_.attached_threads(), before);
    ASSERT_EQ(api.launch("burn", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
              Status::Ok);
    EXPECT_EQ(dom_.attached_threads(), before);
  }
  EXPECT_EQ(dom_.attached_threads(), before);
  EXPECT_EQ(cluster.node(1).runtime().stats().offloaded_connections, 1u);
  EXPECT_EQ(cluster.node(0).runtime().stats().launches, 1u);
}

TEST_F(ClusterTest, OffloadingImprovesUnbalancedMakespan) {
  const auto run = [&](bool offload) {
    Cluster cluster = make_cluster(4, offload ? 2 : -1);
    if (offload) cluster.enable_offloading();
    TorqueScheduler torque(dom_, cluster.node_pointers(), TorqueScheduler::Mode::Oblivious);
    for (int i = 0; i < 24; ++i) torque.submit(make_job(dom_, 6, 1.0, nullptr));
    return torque.run_to_completion().total_seconds;
  };
  const double without = run(false);
  const double with = run(true);
  EXPECT_LT(with, without);
}

TEST_F(ClusterTest, JobResultsCarryPerJobTimes) {
  Cluster cluster = make_cluster(4);
  TorqueScheduler torque(dom_, cluster.node_pointers(), TorqueScheduler::Mode::Oblivious);
  torque.submit(make_job(dom_, 1, 0.0, nullptr));
  torque.submit(make_job(dom_, 3, 0.0, nullptr));
  const BatchResult result = torque.run_to_completion();
  ASSERT_EQ(result.jobs.size(), 2u);
  for (const JobResult& job : result.jobs) {
    EXPECT_GT(job.seconds, 0.0);
    EXPECT_TRUE(job.node.valid());
  }
}

std::optional<obs::MetricsSnapshot> query_stats(core::Runtime& runtime) {
  core::FrontendApi api(runtime.connect());
  auto snap = api.query_stats();
  if (!snap.has_value()) return std::nullopt;
  return std::move(snap.value());
}

TEST_F(ClusterTest, EachNodeAnswersQueryStatsWithItsOwnCounts) {
  // Two daemons in one process; only node-a (GPUs 1-3) runs launches. Each
  // reply must carry the answering node's counts and GPUs, not whichever
  // node last wrote into the process registry.
  Cluster cluster = make_cluster(2);
  core::Runtime& node_a = cluster.node(0).runtime();
  core::Runtime& node_b = cluster.node(1).runtime();
  {
    core::FrontendApi api(node_a.connect());
    ASSERT_TRUE(api.connected());
    ASSERT_EQ(api.register_kernels({"burn"}), Status::Ok);
    auto ptr = api.malloc(1024);
    ASSERT_TRUE(ptr.has_value());
    std::vector<float> data(256, 1.0f);
    ASSERT_EQ(api.copy_in(ptr.value(), data), Status::Ok);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(
          api.launch("burn", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
          Status::Ok);
    }
  }
  const std::optional<obs::MetricsSnapshot> a = query_stats(node_a);
  const std::optional<obs::MetricsSnapshot> b = query_stats(node_b);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  EXPECT_EQ(node_a.stats().launches, 5u);
  EXPECT_EQ(node_b.stats().launches, 0u);
  ASSERT_NE(a->find("stats.runtime.launches"), nullptr);
  ASSERT_NE(b->find("stats.runtime.launches"), nullptr);
  EXPECT_EQ(a->gauge_value("stats.runtime.launches"),
            static_cast<double>(node_a.stats().launches));
  EXPECT_EQ(b->gauge_value("stats.runtime.launches"),
            static_cast<double>(node_b.stats().launches));
  EXPECT_NE(a->find("stats.gpu3.kernels_launched"), nullptr);
  EXPECT_NE(b->find("stats.gpu1.kernels_launched"), nullptr);
  EXPECT_EQ(b->gauge_value("stats.gpu1.kernels_launched"), 0.0);

  // The registry mirrors of per-node counts are gone; their counts live
  // only in each node's stats structs, as stats.* rows.
  const std::vector<std::string> deleted = {
      "runtime.recoveries",  "runtime.offload_fallbacks", "runtime.dispatch_lock_contended",
      "cluster.migrations",  "migration.refused",         "sched.requeues",
      "sched.migrations",    "sched.preemptions",         "sched.thrash_trips",
      "sched.quantum_ns",    "mm.async_writebacks",       "mm.writeback_fences",
      "mm.dirty_bytes_saved", "mm.swap_in_bytes",         "mm.page_faults",
      "mm.tlb_hits",         "mm.tlb_misses",             "mm.prefetched_pages",
      "mm.page_evictions"};
  for (const obs::MetricsSnapshot* snap : {&*a, &*b}) {
    for (const std::string& name : deleted) EXPECT_EQ(snap->find(name), nullptr) << name;
  }
  for (const obs::MetricValue& v : b->values) {
    EXPECT_NE(v.name.rfind("stats.gpu2.", 0), 0u) << v.name;
    EXPECT_NE(v.name.rfind("stats.gpu3.", 0), 0u) << v.name;
    EXPECT_NE(v.name.rfind("stats.node.", 0), 0u) << v.name;
  }

  const std::vector<obs::NodeStats> nodes = {{"node-a", *a}, {"node-b", *b}};
  const obs::MetricsSnapshot merged = obs::aggregate_cluster(nodes);
  EXPECT_EQ(merged.gauge_value("cluster.total.stats.runtime.launches"), 5.0);
}

}  // namespace
}  // namespace gpuvm::cluster

// Chaos subsystem tests: plan parsing, engine semantics, invariants, the
// seed soak (every seed replayed twice, bit-identical), the 8-tenant
// determinism regression, and the chaos metric surfacing.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "chaos/chaos_engine.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/harness.hpp"
#include "chaos/invariants.hpp"
#include "obs/metrics.hpp"

namespace gpuvm::chaos {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: text round-trip, parsing errors, generator shape.

TEST(FaultPlan, TextRoundTrip) {
  FaultPlan plan;
  plan.seed = 99;
  plan.add({vt::from_millis(5), FaultKind::DeviceFail, 0, 1});
  plan.add({vt::from_millis(2), FaultKind::TransportDegrade, 0, 0, 0, 0.25, vt::from_micros(200)});
  plan.add({vt::from_millis(8), FaultKind::NodeRejoin, 1, 0, 2});
  plan.add({vt::from_millis(3), FaultKind::DeviceFailAfterOps, 1, 0, 50});

  // add() keeps events time-sorted.
  for (size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
  }

  std::string error;
  auto reparsed = FaultPlan::parse(plan.to_text(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->seed, 99u);
  ASSERT_EQ(reparsed->events.size(), plan.events.size());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed->events[i].describe(), plan.events[i].describe()) << "event " << i;
  }
}

TEST(FaultPlan, ParseRejectsJunk) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("at 5 device-fail\n", &error).has_value());  // no unit
  EXPECT_FALSE(FaultPlan::parse("at 5ms warp-core-breach\n", &error).has_value());
  EXPECT_TRUE(error.find("warp-core-breach") != std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::parse("at 5ms device-fail node\n", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("banana\n", &error).has_value());
  // Comments and blank lines are fine.
  auto ok = FaultPlan::parse("# header\n\nseed 3\nat 1ms node-crash node=0  # boom\n", &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->seed, 3u);
  ASSERT_EQ(ok->events.size(), 1u);
  EXPECT_EQ(ok->events[0].kind, FaultKind::NodeCrash);
}

TEST(FaultPlan, RandomIsSeedStableAndEndsHealed) {
  const auto horizon = vt::from_millis(20);
  FaultPlan a = FaultPlan::random(1234, 2, 2, 12, horizon);
  FaultPlan b = FaultPlan::random(1234, 2, 2, 12, horizon);
  EXPECT_EQ(a.to_text(), b.to_text());
  FaultPlan c = FaultPlan::random(1235, 2, 2, 12, horizon);
  EXPECT_NE(a.to_text(), c.to_text());

  // The generator appends a recovery tail: any transport degrade heals, and
  // no node is left with zero healthy GPUs (crashes are followed by rejoins).
  for (u64 seed = 1; seed <= 30; ++seed) {
    FaultPlan plan = FaultPlan::random(seed, 2, 2, 10, horizon);
    bool degraded = false;
    for (const FaultEvent& ev : plan.events) {
      ASSERT_LE(ev.at, horizon);
      if (ev.kind == FaultKind::TransportDegrade) degraded = true;
      if (ev.kind == FaultKind::TransportHeal) degraded = false;
    }
    EXPECT_FALSE(degraded) << "seed " << seed << " leaves transport degraded:\n"
                           << plan.to_text();
  }
}

// ---------------------------------------------------------------------------
// ChaosEngine semantics against a live deployment (via the harness).

FaultPlan single_event_plan(FaultEvent ev, u64 seed = 5) {
  FaultPlan plan;
  plan.seed = seed;
  plan.add(ev);
  return plan;
}

ScenarioConfig small_scenario(FaultPlan plan) {
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.vgpus_per_device = 2;
  config.tenants = 4;
  config.kernels_per_tenant = 8;
  config.plan = std::move(plan);
  return config;
}

TEST(ChaosEngine, DeviceFailureRecoversTenantsAndCountsMetrics) {
  FaultEvent ev;
  ev.at = vt::from_micros(700);  // mid first kernel burst
  ev.kind = FaultKind::DeviceFail;
  ev.node = 0;
  ev.gpu_index = 0;
  const ScenarioResult result = run_scenario(small_scenario(single_event_plan(ev)));

  EXPECT_TRUE(result.violations.empty()) << result.violations.front();
  for (const TenantOutcome& t : result.outcomes) {
    EXPECT_EQ(t.final_status, Status::Ok) << "tenant " << t.tenant;
    EXPECT_TRUE(t.data_ok) << "tenant " << t.tenant;
  }
  // Metric surfacing (satellite): the event count comes from chaos.events,
  // and the device loss must show up as scheduler requeues + runtime
  // recoveries (a context was bound to the failed device at that instant).
  EXPECT_EQ(result.chaos_events, 1u);
  EXPECT_EQ(result.event_log.size(), 1u);
  EXPECT_GE(result.requeues, 1u);
  EXPECT_GE(result.recoveries, 1u);
}

TEST(ChaosEngine, NodeCrashWithRejoinUnderGraceCompletesAllTenants) {
  FaultPlan plan;
  plan.seed = 11;
  FaultEvent crash;
  crash.at = vt::from_micros(900);
  crash.kind = FaultKind::NodeCrash;
  crash.node = 0;
  plan.add(crash);
  FaultEvent rejoin;
  rejoin.at = vt::from_millis(3);
  rejoin.kind = FaultKind::NodeRejoin;
  rejoin.node = 0;
  rejoin.count = 2;
  plan.add(rejoin);

  ScenarioConfig config = small_scenario(plan);
  config.grace_seconds = 0.25;  // survive the dark window
  const ScenarioResult result = run_scenario(config);

  EXPECT_TRUE(result.violations.empty()) << result.violations.front();
  for (const TenantOutcome& t : result.outcomes) {
    EXPECT_EQ(t.final_status, Status::Ok) << "tenant " << t.tenant;
    EXPECT_TRUE(t.data_ok) << "tenant " << t.tenant;
  }
  EXPECT_EQ(result.chaos_events, 2u);
}

TEST(ChaosEngine, TransportDegradeRetriesAndHeals) {
  FaultPlan plan;
  plan.seed = 21;
  FaultEvent degrade;
  degrade.at = vt::from_micros(300);
  degrade.kind = FaultKind::TransportDegrade;
  degrade.drop_rate = 0.2;
  degrade.delay = vt::from_micros(100);
  plan.add(degrade);
  FaultEvent heal;
  heal.at = vt::from_millis(2);
  heal.kind = FaultKind::TransportHeal;
  plan.add(heal);

  const ScenarioResult result = run_scenario(small_scenario(plan));
  EXPECT_TRUE(result.violations.empty()) << result.violations.front();
  // A 20% drop rate over hundreds of messages must trip the retransmit
  // path; the transport.retries counter is how the chaos tests observe it.
  EXPECT_GE(result.transport_retries, 1u);
  EXPECT_GE(result.transport_dropped, result.transport_retries);
}

TEST(ChaosEngine, AllocPulseSurfacesStatusWithoutBreakingInvariants) {
  FaultEvent ev;
  ev.at = vt::from_micros(400);
  ev.kind = FaultKind::AllocPulse;
  ev.node = 0;
  ev.gpu_index = 0;
  ev.count = 3;
  const ScenarioResult result = run_scenario(small_scenario(single_event_plan(ev)));
  EXPECT_TRUE(result.violations.empty()) << result.violations.front();
  // Every tenant either finished Ok with verified data or surfaced an error
  // status -- no kernel may vanish without a verdict.
  for (const TenantOutcome& t : result.outcomes) {
    if (t.final_status == Status::Ok) {
      EXPECT_TRUE(t.data_ok) << "tenant " << t.tenant;
    } else {
      EXPECT_GE(t.kernels_failed + (t.kernels_ok == 0 ? 1u : 0u), 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite 1: 8-tenant determinism regression under a fixed chaos seed.

TEST(ChaosDeterminism, EightTenantBatchReplaysIdentically) {
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.vgpus_per_device = 2;
  config.tenants = 8;
  config.kernels_per_tenant = 8;
  config.plan = FaultPlan::random(20260806, 2, 2, 10, vt::from_millis(6));

  const ScenarioResult first = run_scenario(config);
  const ScenarioResult second = run_scenario(config);

  EXPECT_TRUE(first.violations.empty()) << first.violations.front();
  ASSERT_EQ(first.outcomes.size(), 8u);
  // Identical makespan, per-context Status, and recovery counts.
  EXPECT_TRUE(first.deterministic_equal(second)) << first.diff(second);
  EXPECT_EQ(first.makespan_seconds, second.makespan_seconds);
  for (size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].final_status, second.outcomes[i].final_status) << i;
  }
  EXPECT_EQ(first.recoveries, second.recoveries);
  EXPECT_EQ(first.requeues, second.requeues);
}

// ---------------------------------------------------------------------------
// Causal tracing under chaos: an offloading scenario exports one merged
// Perfetto trace, and two same-seed runs export bit-identical bytes (span
// ids are pure hashes of seed/job/ordinal -- no clocks, no addresses).

TEST(ChaosTrace, OffloadedRunExportsBitIdenticalMergedTrace) {
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 1;
  config.vgpus_per_device = 1;  // offload_threshold = 1: second tenant per node sheds
  config.tenants = 6;
  config.kernels_per_tenant = 4;
  config.enable_offloading = true;
  // Legacy fixed-peer offload (no directory hysteresis): with one vGPU per
  // node and three tenants landing on each, the third Hello a node admits
  // arrives at load >= threshold and is always shed to the peer, so the
  // trace reliably contains a proxied session.
  config.enable_load_reports = false;
  config.plan = FaultPlan::random(20260808, 2, 1, 6, vt::from_millis(5));

  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };

  config.trace_out = ::testing::TempDir() + "/chaos_trace_a.json";
  const ScenarioResult first = run_scenario(config);
  const std::string trace_a = read_file(config.trace_out);

  config.trace_out = ::testing::TempDir() + "/chaos_trace_b.json";
  const ScenarioResult second = run_scenario(config);
  const std::string trace_b = read_file(config.trace_out);

  EXPECT_TRUE(first.violations.empty()) << first.violations.front();
  EXPECT_TRUE(first.deterministic_equal(second)) << first.diff(second);

  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b) << "same seed must export bit-identical trace JSON";
  // The merged timeline really is causal and cross-process: tenant roots,
  // daemon-side queueing, and the offload hop all carry trace ids.
  EXPECT_NE(trace_a.find("\"tenant\""), std::string::npos);
  EXPECT_NE(trace_a.find("queue-wait"), std::string::npos);
  EXPECT_NE(trace_a.find("offload-session"), std::string::npos)
      << "the overloaded node must have proxied at least one tenant";
  EXPECT_NE(trace_a.find("\"trace\":\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder: violations produce postmortem dumps; clean runs don't.

TEST(FlightRecorder, ViolationDumpsPostmortemCleanRunDoesNot) {
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.vgpus_per_device = 2;
  config.tenants = 4;
  config.plan = FaultPlan::random(42, 2, 2, 8, vt::from_millis(5));
  const ScenarioResult clean = run_scenario(config);
  ASSERT_TRUE(clean.violations.empty());
  EXPECT_TRUE(clean.flight_dumps.empty()) << "no violation, no postmortem";

  // Force a violation: crash a node with a grace window too short for the
  // plan's rejoin, so tenants on it fail and the steady check fires... a
  // surgical plan is simpler: fail every GPU and never heal.
  ScenarioConfig broken = config;
  broken.grace_seconds = 0.0005;
  broken.plan = FaultPlan{};
  broken.plan.seed = 43;
  broken.plan.add({vt::from_millis(1), FaultKind::NodeCrash, 0});
  broken.plan.add({vt::from_millis(1.2), FaultKind::NodeCrash, 1});
  const ScenarioResult bad = run_scenario(broken);
  if (!bad.violations.empty()) {
    ASSERT_FALSE(bad.flight_dumps.empty())
        << "a violating run must capture a flight-recorder postmortem";
    EXPECT_NE(bad.flight_dumps.front().find("flight"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The seed soak: >= 20 seeds of mixed device/node/transport faults; every
// seed must hold the invariants and replay deterministically.

class ChaosSoak : public ::testing::TestWithParam<u64> {};

TEST_P(ChaosSoak, SeedIsCleanAndDeterministic) {
  const u64 seed = GetParam();
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.vgpus_per_device = 2;
  config.tenants = 6;
  config.kernels_per_tenant = 8;
  config.plan = FaultPlan::random(seed, 2, 2, 10, vt::from_millis(5));

  const ScenarioResult first = run_scenario(config);
  for (const std::string& v : first.violations) ADD_FAILURE() << "seed " << seed << ": " << v;
  for (const TenantOutcome& t : first.outcomes) {
    if (t.final_status == Status::Ok) {
      EXPECT_TRUE(t.data_ok) << "seed " << seed << " tenant " << t.tenant
                             << ": Ok status but corrupted data";
    }
  }
  const ScenarioResult second = run_scenario(config);
  EXPECT_TRUE(first.deterministic_equal(second))
      << "seed " << seed << " diverged on replay:\n"
      << first.diff(second);
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, ChaosSoak,
                         ::testing::Range<u64>(1, 21));

// ---------------------------------------------------------------------------
// Invariant checker: prove it actually detects breakage (a checker that can
// never fire would pass every soak vacuously).

TEST(Invariants, DetectsUnhealthyDeviceListedHealthy) {
  // check_steady on a healthy scenario is empty; the soak covers that. Here
  // feed it a synthetic broken view via a real cluster whose scheduler we
  // bypass: fail a GPU *without* telling the runtime (subscribe path is the
  // machine's, so use the SimGpu handle directly).
  vt::Domain dom;
  sim::SimMachine machine(dom, {});
  cudart::CudaRt rt(machine);
  core::Runtime runtime(rt, {});
  const GpuId id = machine.add_gpu(sim::test_gpu());

  std::vector<NodeTarget> targets{{"n0", &machine, &runtime}};
  EXPECT_TRUE(check_steady(targets).empty());

  // Force the device unhealthy behind the machine's back: gpus() still
  // lists it, so the steady check must flag the inconsistency.
  machine.gpu(id)->inject_failure();
  const auto violations = check_steady(targets);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("unhealthy"), std::string::npos) << violations.front();
}

}  // namespace
}  // namespace gpuvm::chaos

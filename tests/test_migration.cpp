// Live migration test suite (checkpoint-based job motion between nodes).
//
// Covers the protocol end to end: pre-copy convergence over the incremental
// swap's dirty intervals, the quiesced stop-and-copy shipping only the final
// delta, graceful refusal against a protocol-v3 peer, a source-node blackout
// landing mid-migration (the job survives on the source or resumes on the
// target -- never both), position-independent checkpoint images, the
// cluster-level MigrationCoordinator, and the differential contract: a
// migrated job's observable bytes are identical to the same job run
// unmigrated, including under chaos seeds.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/harness.hpp"
#include "cluster/cluster.hpp"
#include "cluster/migration.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/frontend.hpp"
#include "core/memory_manager.hpp"
#include "core/runtime.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"

namespace gpuvm {
namespace {

// The deterministic integer pipeline every test drives: identical to the
// chaos harness's kernel so migrated and unmigrated runs are comparable.
sim::KernelDef step_kernel() {
  sim::KernelDef step;
  step.name = "mig_step";
  step.body = [](sim::KernelExecContext& ctx) {
    auto data = ctx.buffer<u32>(0);
    const u32 arg = static_cast<u32>(ctx.scalar_i64(1));
    for (u32& x : data) x = x * 2654435761u + arg;
    return Status::Ok;
  };
  step.cost = sim::per_thread_cost(2000.0, 128.0);
  return step;
}

u64 counter_now(const char* name) {
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  const obs::MetricValue* v = snap.find(name);
  return v == nullptr ? 0 : v->counter;
}

// One thread per element, 256-wide blocks (the device caps blocks at 1024).
sim::LaunchConfig grid_for(u64 elems) {
  return {{static_cast<u32>((elems + 255) / 256), 1, 1}, {256, 1, 1}};
}

}  // namespace
}  // namespace gpuvm

namespace gpuvm::core {
namespace {

// Two independent daemons (source + target) sharing one virtual clock --
// the minimal deployment a migration needs. The target optionally masks
// capabilities to emulate an older peer.
class MigrationPairTest : public ::testing::Test {
 protected:
  explicit MigrationPairTest(u32 target_caps_mask = protocol::caps::kAll)
      : guard_(dom_),
        source_machine_(dom_, sim::SimParams{1}),
        target_machine_(dom_, sim::SimParams{1}) {
    source_gpu_ = source_machine_.add_gpu(sim::test_gpu(4 << 20));
    target_machine_.add_gpu(sim::test_gpu(4 << 20));
    source_machine_.kernels().add(step_kernel());
    target_machine_.kernels().add(step_kernel());
    source_rt_ = std::make_unique<cudart::CudaRt>(source_machine_,
                                                  cudart::CudaRtConfig{4 * 1024, 8});
    target_rt_ = std::make_unique<cudart::CudaRt>(target_machine_,
                                                  cudart::CudaRtConfig{4 * 1024, 8});
    RuntimeConfig config;
    config.scheduler.vgpus_per_device = 2;
    config.scheduler.device_wait_grace_seconds = 0.25;
    config.auto_checkpoint_after_kernel_seconds = 1e-9;
    source_ = std::make_unique<Runtime>(*source_rt_, config);
    RuntimeConfig target_config = config;
    target_config.caps_mask = target_caps_mask;
    target_ = std::make_unique<Runtime>(*target_rt_, target_config);
  }

  std::function<std::unique_ptr<transport::MessageChannel>()> peer_factory() {
    return [this] { return target_->connect_with(transport::ChannelCosts::cluster_link()); };
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine source_machine_;
  sim::SimMachine target_machine_;
  GpuId source_gpu_{};
  std::unique_ptr<cudart::CudaRt> source_rt_;
  std::unique_ptr<cudart::CudaRt> target_rt_;
  std::unique_ptr<Runtime> source_;
  std::unique_ptr<Runtime> target_;
};

// ---------------------------------------------------------------------------
// Pre-copy convergence + stop-and-copy byte accounting.

TEST_F(MigrationPairTest, IdleJobConvergesAndStopCopyShipsAlmostNothing) {
  FrontendApi api(source_->connect());
  ASSERT_TRUE(api.connected());
  ASSERT_EQ(api.register_kernels({"mig_step"}), Status::Ok);

  const u64 elems = 16 * 1024;  // 64 KiB working set
  auto alloc = api.malloc(elems * sizeof(u32));
  ASSERT_TRUE(alloc.has_value());
  const VirtualPtr ptr = alloc.value();
  std::vector<u32> mirror(elems);
  Rng fill(7);
  for (u32& x : mirror) x = static_cast<u32>(fill());
  ASSERT_EQ(api.memcpy_h2d(ptr, std::as_bytes(std::span(mirror))), Status::Ok);
  for (int k = 0; k < 3; ++k) {
    const u32 arg = 17u * static_cast<u32>(k + 1);
    ASSERT_EQ(api.launch("mig_step", grid_for(elems),
                         {sim::KernelArg::dev(ptr), sim::KernelArg::i64v(arg)}),
              Status::Ok);
    for (u32& x : mirror) x = x * 2654435761u + arg;
  }

  const u64 bytes_before = counter_now(obs::names::kMigrationBytes);
  const u64 stop_before = counter_now(obs::names::kMigrationStopCopyBytes);
  const u64 migrations_before = source_->stats().migrations_out;

  auto report = source_->migrate_context(ContextId{1}, peer_factory());
  ASSERT_TRUE(report.has_value()) << to_string(report.status());

  // Round 0 carries the whole populated buffer; the job is idle, so the
  // first pre-copy round comes back (nearly) empty and converges.
  EXPECT_GE(report->image_bytes, elems * sizeof(u32));
  EXPECT_EQ(report->precopy_rounds, 1);
  EXPECT_LT(report->stop_copy_bytes, report->image_bytes / 4)
      << "stop-and-copy must ship the delta, not the image";
  EXPECT_GE(report->naive_bytes, elems * sizeof(u32));
  EXPECT_GT(report->stop_copy_seconds, 0.0);

  // The costed byte counters agree with the report exactly.
  EXPECT_EQ(counter_now(obs::names::kMigrationBytes) - bytes_before,
            report->precopy_bytes + report->stop_copy_bytes);
  EXPECT_EQ(counter_now(obs::names::kMigrationStopCopyBytes) - stop_before,
            report->stop_copy_bytes);
  EXPECT_EQ(source_->stats().migrations_out - migrations_before, 1u);
  EXPECT_EQ(source_->stats().migrations_out, 1u);
  EXPECT_EQ(target_->stats().migrations_in, 1u);

  // The source no longer holds the job's memory: it lives on the target.
  EXPECT_EQ(source_->memory().naive_image_bytes(ContextId{1}), 0u);
  EXPECT_GT(target_->memory().naive_image_bytes(ContextId{1}), 0u);

  // The application notices nothing: further calls forward to the target
  // and the readback is byte-identical to the host mirror.
  const u32 arg = 991u;
  ASSERT_EQ(api.launch("mig_step", grid_for(elems),
                       {sim::KernelArg::dev(ptr), sim::KernelArg::i64v(arg)}),
            Status::Ok);
  for (u32& x : mirror) x = x * 2654435761u + arg;
  std::vector<u32> back(elems);
  ASSERT_EQ(api.memcpy_d2h(std::as_writable_bytes(std::span(back)), ptr, elems * sizeof(u32)),
            Status::Ok);
  EXPECT_EQ(back, mirror) << "migrated job diverged from the unmigrated reference";
}

TEST_F(MigrationPairTest, ConcurrentWritesLandInPrecopyNotStopCopy) {
  const u64 elems = 16 * 1024;
  std::vector<u32> mirror(elems);
  std::atomic<bool> ready{false};
  Status app_status = Status::Ok;
  bool data_ok = false;
  {
    vt::Thread app(dom_, [&] {
      FrontendApi api(source_->connect());
      if (!api.connected()) {
        app_status = Status::ErrorConnectionClosed;
        return;
      }
      Status st = api.register_kernels({"mig_step"});
      VirtualPtr ptr = kNullVirtualPtr;
      if (st == Status::Ok) {
        auto alloc = api.malloc(elems * sizeof(u32));
        if (alloc.has_value()) ptr = alloc.value();
        st = alloc.status();
      }
      if (st == Status::Ok) {
        Rng fill(23);
        for (u32& x : mirror) x = static_cast<u32>(fill());
        st = api.memcpy_h2d(ptr, std::as_bytes(std::span(mirror)));
      }
      ready.store(true, std::memory_order_release);
      // Keep mutating small ranges while the migration's pre-copy rounds
      // run: each write must ride a delta (or the stop-and-copy), never be
      // lost, and never force re-shipping the whole image.
      for (int i = 0; st == Status::Ok && i < 30; ++i) {
        const u64 offset = (static_cast<u64>(i) * 1024) % (elems - 16);
        u32 patch[16];
        for (u32& x : patch) x = 0xBEEF0000u + static_cast<u32>(i);
        st = api.memcpy_h2d(ptr + offset * sizeof(u32), std::as_bytes(std::span(patch)));
        if (st == Status::Ok) {
          std::copy(std::begin(patch), std::end(patch),
                    mirror.begin() + static_cast<long>(offset));
          dom_.sleep_for(vt::from_micros(50));
        }
      }
      if (st == Status::Ok) {
        std::vector<u32> back(elems);
        st = api.memcpy_d2h(std::as_writable_bytes(std::span(back)), ptr, elems * sizeof(u32));
        if (st == Status::Ok) data_ok = (back == mirror);
      }
      app_status = st;
    });

    while (!ready.load(std::memory_order_acquire)) dom_.sleep_for(vt::from_micros(50));
    auto report = source_->migrate_context(ContextId{1}, peer_factory());
    ASSERT_TRUE(report.has_value()) << to_string(report.status());
    EXPECT_GE(report->precopy_rounds, 1);
    EXPECT_LT(report->stop_copy_bytes, report->image_bytes / 4);
    EXPECT_GE(report->precopy_bytes, report->image_bytes);
  }
  EXPECT_EQ(app_status, Status::Ok);
  EXPECT_TRUE(data_ok) << "a write raced the migration and was lost";
}

// ---------------------------------------------------------------------------
// Capability negotiation: a v3 peer (no kMigrate bit) refuses gracefully.

class MigrationV3PeerTest : public MigrationPairTest {
 protected:
  MigrationV3PeerTest()
      : MigrationPairTest(protocol::caps::kAll & ~protocol::caps::kMigrate) {}
};

TEST_F(MigrationV3PeerTest, OldPeerRefusedGracefullyJobContinuesLocally) {
  FrontendApi api(source_->connect());
  ASSERT_TRUE(api.connected());
  ASSERT_EQ(api.register_kernels({"mig_step"}), Status::Ok);
  const u64 elems = 256;
  auto alloc = api.malloc(elems * sizeof(u32));
  ASSERT_TRUE(alloc.has_value());
  std::vector<u32> mirror(elems, 5u);
  ASSERT_EQ(api.memcpy_h2d(alloc.value(), std::as_bytes(std::span(mirror))), Status::Ok);

  const u64 refused_before = source_->stats().migrations_refused;
  auto report = source_->migrate_context(ContextId{1}, peer_factory());
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.status(), Status::ErrorNotSupported);
  EXPECT_EQ(source_->stats().migrations_out, 0u);
  EXPECT_EQ(source_->stats().migrations_refused, 1u);
  EXPECT_EQ(target_->stats().migrations_in, 0u);
  EXPECT_EQ(source_->stats().migrations_refused - refused_before, 1u);

  // The job never left: memory still local, calls still serviced here.
  EXPECT_GT(source_->memory().naive_image_bytes(ContextId{1}), 0u);
  ASSERT_EQ(api.launch("mig_step", grid_for(elems),
                       {sim::KernelArg::dev(alloc.value()), sim::KernelArg::i64v(3)}),
            Status::Ok);
  for (u32& x : mirror) x = x * 2654435761u + 3u;
  std::vector<u32> back(elems);
  ASSERT_EQ(api.memcpy_d2h(std::as_writable_bytes(std::span(back)), alloc.value(),
                           elems * sizeof(u32)),
            Status::Ok);
  EXPECT_EQ(back, mirror);
}

// ---------------------------------------------------------------------------
// Mid-migration source blackout: the job lands exactly once.

TEST_F(MigrationPairTest, SourceBlackoutMidMigrationNeverDuplicatesTheJob) {
  FrontendApi api(source_->connect());
  ASSERT_TRUE(api.connected());
  ASSERT_EQ(api.register_kernels({"mig_step"}), Status::Ok);
  const u64 elems = 256 * 1024;  // 1 MiB: ~8 ms on the 1 gbps cluster link
  auto alloc = api.malloc(elems * sizeof(u32));
  ASSERT_TRUE(alloc.has_value());
  const VirtualPtr ptr = alloc.value();
  std::vector<u32> mirror(elems);
  Rng fill(41);
  for (u32& x : mirror) x = static_cast<u32>(fill());
  ASSERT_EQ(api.memcpy_h2d(ptr, std::as_bytes(std::span(mirror))), Status::Ok);
  const u32 arg = 17u;
  ASSERT_EQ(api.launch("mig_step", grid_for(elems),
                       {sim::KernelArg::dev(ptr), sim::KernelArg::i64v(arg)}),
            Status::Ok);
  for (u32& x : mirror) x = x * 2654435761u + arg;

  StatusOr<MigrationReport> result{Status::ErrorNotSupported};
  {
    vt::Thread mig(dom_, [&] { result = source_->migrate_context(ContextId{1}, peer_factory()); });
    // Land the blackout while the round-0 image is on the wire.
    dom_.sleep_for(vt::from_micros(700));
    (void)source_machine_.fail_gpu(source_gpu_);
    dom_.sleep_for(vt::from_millis(2));
    source_machine_.add_gpu(sim::test_gpu(4 << 20));
  }

  // Never both: exactly one side owns the job's memory afterwards.
  const bool committed = result.has_value();
  const u64 src_bytes = source_->memory().naive_image_bytes(ContextId{1});
  const u64 tgt_bytes = target_->memory().naive_image_bytes(ContextId{1});
  if (committed) {
    EXPECT_EQ(src_bytes, 0u) << "committed migration must strip the source";
    EXPECT_GT(tgt_bytes, 0u);
    EXPECT_EQ(source_->stats().migrations_out, 1u);
    EXPECT_EQ(target_->stats().migrations_in, 1u);
  } else {
    EXPECT_GT(src_bytes, 0u) << "aborted migration must leave the job on the source";
    EXPECT_EQ(source_->stats().migrations_refused, 1u);
    EXPECT_EQ(target_->stats().migrations_in, 0u);
  }
  EXPECT_NE(committed, src_bytes > 0) << "the job must live on exactly one node";

  // Whichever side owns it, the data survived the blackout bit-exactly
  // (auto-checkpoint means swap was authoritative when the device died).
  std::vector<u32> back(elems);
  const Status st =
      api.memcpy_d2h(std::as_writable_bytes(std::span(back)), ptr, elems * sizeof(u32));
  ASSERT_EQ(st, Status::Ok);
  EXPECT_EQ(back, mirror);
}

// ---------------------------------------------------------------------------
// Differential: the same pipeline, migrated vs local, byte for byte.

std::vector<u32> run_pipeline(bool migrate_midway) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine source_machine(dom, sim::SimParams{1});
  sim::SimMachine target_machine(dom, sim::SimParams{1});
  source_machine.add_gpu(sim::test_gpu(4 << 20));
  target_machine.add_gpu(sim::test_gpu(4 << 20));
  source_machine.kernels().add(step_kernel());
  target_machine.kernels().add(step_kernel());
  cudart::CudaRt source_rt(source_machine, cudart::CudaRtConfig{4 * 1024, 8});
  cudart::CudaRt target_rt(target_machine, cudart::CudaRtConfig{4 * 1024, 8});
  RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;
  config.auto_checkpoint_after_kernel_seconds = 1e-9;
  Runtime source(source_rt, config);
  Runtime target(target_rt, config);

  const u64 elems = 4096;
  std::vector<u32> back(elems);
  {
    FrontendApi api(source.connect());
    EXPECT_TRUE(api.connected());
    EXPECT_EQ(api.register_kernels({"mig_step"}), Status::Ok);
    auto alloc = api.malloc(elems * sizeof(u32));
    EXPECT_TRUE(alloc.has_value());
    std::vector<u32> init(elems);
    Rng fill(97);
    for (u32& x : init) x = static_cast<u32>(fill());
    EXPECT_EQ(api.memcpy_h2d(alloc.value(), std::as_bytes(std::span(init))), Status::Ok);
    for (int k = 0; k < 6; ++k) {
      if (migrate_midway && k == 3) {
        auto moved = source.migrate_context(ContextId{1}, [&] {
          return target.connect_with(transport::ChannelCosts::cluster_link());
        });
        EXPECT_TRUE(moved.has_value()) << to_string(moved.status());
      }
      EXPECT_EQ(api.launch("mig_step", grid_for(elems),
                           {sim::KernelArg::dev(alloc.value()),
                            sim::KernelArg::i64v(static_cast<u32>(k) * 31u + 7u)}),
                Status::Ok);
    }
    EXPECT_EQ(api.memcpy_d2h(std::as_writable_bytes(std::span(back)), alloc.value(),
                             elems * sizeof(u32)),
              Status::Ok);
  }
  source.drain();
  target.drain();
  return back;
}

TEST(MigrationDifferential, MigratedPipelineIsByteIdenticalToLocal) {
  const std::vector<u32> local = run_pipeline(/*migrate_midway=*/false);
  const std::vector<u32> migrated = run_pipeline(/*migrate_midway=*/true);
  EXPECT_EQ(local, migrated)
      << "a migrated job must produce exactly the bytes of the unmigrated run";
}

// ---------------------------------------------------------------------------
// Checkpoint image position-independence: serialize on node A, restore in a
// fresh process under a different context id with a perturbed VA allocator.

TEST(MigrationImage, RoundTripIntoFreshProcessWithDifferentIds) {
  std::vector<u8> image;
  std::vector<std::byte> payload(12345);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 131) & 0xFF);
  }
  VirtualPtr va = kNullVirtualPtr;
  {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    machine.add_gpu(sim::test_gpu(1 << 20));
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    MemoryManager mm(rt);
    const ContextId ctx{1};
    mm.add_context(ctx);
    auto p = mm.on_malloc(ctx, payload.size());
    ASSERT_TRUE(p.has_value());
    va = p.value();
    ASSERT_EQ(mm.on_copy_h2d(ctx, va, payload, std::nullopt), Status::Ok);
    auto img = mm.export_image(ctx);
    ASSERT_TRUE(img.has_value());
    image = std::move(img).value();
  }
  {
    // Fresh process: different machine, different context id, and a VA
    // allocator already advanced by unrelated contexts.
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    machine.add_gpu(sim::test_gpu(1 << 20));
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    MemoryManager mm(rt);
    const ContextId other{3};
    mm.add_context(other);
    ASSERT_TRUE(mm.on_malloc(other, 4096).has_value());
    ASSERT_TRUE(mm.on_malloc(other, 8192).has_value());

    const ContextId ctx{42};
    mm.add_context(ctx);
    ASSERT_EQ(mm.import_image(ctx, image), Status::Ok);

    // The image's virtual addresses resolve as recorded, bytes intact.
    std::vector<std::byte> out(payload.size());
    ASSERT_EQ(mm.on_copy_d2h(ctx, out, va, out.size()), Status::Ok);
    EXPECT_EQ(out, payload);

    // And new allocations in the restored context must not collide with
    // the imported address range.
    auto fresh = mm.on_malloc(ctx, 256);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_GE(fresh.value(), va + payload.size());
  }
}

}  // namespace
}  // namespace gpuvm::core

// ---------------------------------------------------------------------------
// Cluster-level coordinator + harness-driven chaos coverage.

namespace gpuvm::cluster {
namespace {

TEST(MigrationCoordinatorTest, ExplicitMigrateMovesTheLargestVictim) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  std::vector<NodeSpec> specs = {{"n0", {sim::test_gpu(4 << 20)}},
                                 {"n1", {sim::test_gpu(4 << 20)}}};
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;
  config.auto_checkpoint_after_kernel_seconds = 1e-9;
  Cluster cluster(dom, sim::SimParams{1}, specs, config, cudart::CudaRtConfig{4 * 1024, 8});
  cluster.register_kernel(step_kernel());

  core::FrontendApi api(cluster.node(0).runtime().connect());
  ASSERT_TRUE(api.connected());
  ASSERT_EQ(api.register_kernels({"mig_step"}), Status::Ok);
  const u64 elems = 2048;
  auto alloc = api.malloc(elems * sizeof(u32));
  ASSERT_TRUE(alloc.has_value());
  std::vector<u32> mirror(elems, 9u);
  ASSERT_EQ(api.memcpy_h2d(alloc.value(), std::as_bytes(std::span(mirror))), Status::Ok);

  MigrationCoordinator coordinator(cluster);
  // Victim policy: the (only) context holding memory on n0.
  auto victim = coordinator.pick_victim(cluster.node(0));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->value, 1u);

  // Bad routes are rejected before any work happens.
  auto same = coordinator.migrate(cluster.node(0).id(), cluster.node(0).id());
  EXPECT_EQ(same.status(), Status::ErrorInvalidValue);

  auto report = coordinator.migrate(cluster.node(0).id(), cluster.node(1).id());
  ASSERT_TRUE(report.has_value()) << to_string(report.status());
  EXPECT_EQ(coordinator.attempted(), 1u);
  EXPECT_EQ(coordinator.completed(), 1u);
  EXPECT_EQ(cluster.node(1).runtime().stats().migrations_in, 1u);

  // The job keeps computing correctly through the forwarding stub.
  ASSERT_EQ(api.launch("mig_step", grid_for(elems),
                       {sim::KernelArg::dev(alloc.value()), sim::KernelArg::i64v(5)}),
            Status::Ok);
  for (u32& x : mirror) x = x * 2654435761u + 5u;
  std::vector<u32> back(elems);
  ASSERT_EQ(api.memcpy_d2h(std::as_writable_bytes(std::span(back)), alloc.value(),
                           elems * sizeof(u32)),
            Status::Ok);
  EXPECT_EQ(back, mirror);
}

}  // namespace
}  // namespace gpuvm::cluster

namespace gpuvm::chaos {
namespace {

FaultPlan with_migrations(FaultPlan plan, int count, int nodes) {
  for (int m = 0; m < count; ++m) {
    FaultEvent ev;
    ev.kind = FaultKind::Migrate;
    ev.at = vt::from_millis(1.0 + 1.5 * m);
    ev.node = m % nodes;
    ev.count = 0;  // least-loaded peer
    plan.add(ev);
  }
  return plan;
}

// The tentpole differential: under the chaos harness, a run with forced
// migrations must leave every tenant's data byte-identical to its host
// mirror (the mirror *is* the unmigrated reference computation), and the
// per-tenant outcomes must match the migration-free run of the same seed.
TEST(MigrationDifferential, HarnessRunWithMigrationsMatchesMigrationFreeRun) {
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.vgpus_per_device = 2;
  config.tenants = 4;
  config.kernels_per_tenant = 8;
  config.plan.seed = 77;  // no fault events: isolate the migration effect

  const ScenarioResult local = run_scenario(config);

  ScenarioConfig migrated_config = config;
  migrated_config.plan = with_migrations(config.plan, 2, config.nodes);
  const ScenarioResult migrated = run_scenario(migrated_config);

  EXPECT_TRUE(migrated.violations.empty()) << migrated.violations.front();
  EXPECT_GE(migrated.migrations, 1u) << "no migration committed; the test is vacuous";
  EXPECT_EQ(local.migrations, 0u);
  ASSERT_EQ(local.outcomes.size(), migrated.outcomes.size());
  for (size_t i = 0; i < local.outcomes.size(); ++i) {
    EXPECT_EQ(local.outcomes[i].final_status, Status::Ok) << "tenant " << i;
    EXPECT_EQ(migrated.outcomes[i].final_status, Status::Ok) << "tenant " << i;
    EXPECT_TRUE(local.outcomes[i].data_ok) << "tenant " << i;
    EXPECT_TRUE(migrated.outcomes[i].data_ok)
        << "tenant " << i << ": migrated run diverged from the reference bytes";
    EXPECT_EQ(local.outcomes[i].kernels_ok, migrated.outcomes[i].kernels_ok) << "tenant " << i;
  }
}

// The 20-seed soak with migrations enabled: every seed's fault mix plus two
// forced migrations must hold the invariants and replay bit-identically.
class MigrationSoak : public ::testing::TestWithParam<u64> {};

TEST_P(MigrationSoak, SeedWithMigrationsIsCleanAndDeterministic) {
  const u64 seed = GetParam();
  ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.vgpus_per_device = 2;
  config.tenants = 6;
  config.kernels_per_tenant = 8;
  config.plan = with_migrations(FaultPlan::random(seed, 2, 2, 10, vt::from_millis(5)), 2,
                                config.nodes);

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

INSTANTIATE_TEST_SUITE_P(TwentySeeds, MigrationSoak, ::testing::Range<u64>(1, 21));

}  // namespace
}  // namespace gpuvm::chaos

// Chaos scenario harness: a multi-tenant cluster workload under a FaultPlan.
//
// run_scenario builds a fresh cluster (own vt::Domain, reset metrics),
// starts N tenant threads that each drive a data-verifying kernel pipeline
// through the FrontendApi, runs the plan's ChaosEngine alongside them, and
// collects a ScenarioResult capturing everything observable: per-tenant
// outcome, makespan, the executed fault log, invariant violations and the
// chaos-relevant counters. Two runs of the same ScenarioConfig must produce
// deterministic_equal results -- that is the repeatability contract the
// chaos tests (and the gpuvm_chaos --verify-determinism mode) assert.
#pragma once

#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace gpuvm::chaos {

struct ScenarioConfig {
  int nodes = 2;
  int gpus_per_node = 2;
  int vgpus_per_device = 2;
  int tenants = 6;
  /// Base kernel count; tenant i runs `kernels_per_tenant + (i % 3)` so no
  /// two tenants have identical virtual-time footprints (avoids clock ties).
  int kernels_per_tenant = 6;
  /// Base element count of each tenant's u32 working buffer (tenant i uses
  /// `buffer_elems + 16 * (i % 4)`).
  u64 buffer_elems = 48;
  /// Scheduler grace for cluster-dark windows (node crash ... rejoin).
  double grace_seconds = 0.25;
  /// Wire the nodes as offload peers (exercises inter-node transport under
  /// drops; offload only triggers when a node is overloaded). With load
  /// reports on, offload runs in mesh mode through the NodeDirectory.
  bool enable_offloading = false;
  /// Start the NodeDirectory heartbeat subscriptions (the cluster control
  /// plane) for the scenario's duration. On by default so every chaos run
  /// exercises load telemetry under faults -- heartbeats are stamped with
  /// virtual time, so determinism must hold with them enabled.
  bool enable_load_reports = true;
  /// Non-empty: record an obs trace of the run (chaos instants included)
  /// and export it as Chrome JSON to this path. Does not affect outcomes.
  std::string trace_out;
  /// Per-node scheduling policy by registered name (core/sched_policy.hpp).
  /// The "fcfs" default keeps every pre-preemption plan byte-identical;
  /// "tq" / "fair" turn on quantum preemption under chaos.
  std::string sched_policy = "fcfs";
  /// Preemption quantum override in seconds; 0 keeps the scheduler default.
  double quantum_seconds = 0.0;
  /// Page-granular memory engine on every node (RuntimeConfig::paging).
  /// Tenant pipelines are unhinted, so results must stay byte-identical to
  /// the entry-granular engine -- only modeled costs shift; determinism
  /// must hold either way.
  bool paging = false;
  FaultPlan plan;
};

struct TenantOutcome {
  int tenant = 0;
  Status final_status = Status::Ok;  ///< first failure, or Ok
  u64 kernels_ok = 0;
  u64 kernels_failed = 0;
  /// Device results matched the host-mirrored reference after readback.
  /// Only meaningful (and required true) when final_status == Ok.
  bool data_ok = false;

  friend bool operator==(const TenantOutcome&, const TenantOutcome&) = default;
};

struct ScenarioResult {
  std::vector<TenantOutcome> outcomes;       ///< indexed by tenant
  double makespan_seconds = 0.0;             ///< last tenant completion (virtual)
  std::vector<std::string> event_log;        ///< "t=<ns> <event>" per fault applied
  std::vector<std::string> violations;       ///< invariant violations (want: empty)
  /// Flight-recorder postmortems, one per violating fault event (see
  /// ChaosEngine::flight_dumps). Diagnostic context only: excluded from
  /// deterministic_equal/diff, which compare observable outcomes.
  std::vector<std::string> flight_dumps;
  u64 chaos_events = 0;                      ///< counter chaos.events
  u64 recoveries = 0;                        ///< RuntimeStats, summed over nodes
  u64 transport_retries = 0;                 ///< counter transport.retries
  u64 transport_dropped = 0;                 ///< counter transport.dropped_messages
  u64 requeues = 0;                          ///< SchedulerStats, summed over nodes
  u64 migrations = 0;                        ///< RuntimeStats::migrations_out, summed
  u64 preemptions = 0;                       ///< SchedulerStats, summed over nodes

  /// Full replay equality: same outcomes, same makespan (bit-exact), same
  /// fault log, same counter values.
  bool deterministic_equal(const ScenarioResult& other) const;
  /// Human-readable diff for test failure messages ("" when equal).
  std::string diff(const ScenarioResult& other) const;
};

/// Runs one scenario start to finish. Resets the global metrics registry.
ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace gpuvm::chaos

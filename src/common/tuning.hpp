// Recurring-timer tuning constants, gathered in one place.
//
// Every periodic timer in the tree fires against the shared virtual clock
// (common/vt.hpp). Two timers whose periods share a small common multiple
// will repeatedly land on the *same virtual instant*; the clock wakes both
// sleepers in insertion order, which depends on thread interleaving in the
// threaded actor model -- i.e. a tie is a determinism hazard and, even when
// benign, makes experiment traces harder to attribute. The intervals below
// are therefore deliberately off round numbers and pairwise coprime-ish
// (997 and 4993 are prime; 5,000,000 ns shares no small multiple with
// either), so heartbeats, migration watches, preemption quanta and workload
// sleeps (which use round durations) essentially never tie.
//
// Change one of these and you change every layer's cadence at once -- which
// is the point: the relationships (heartbeat ≪ quantum < migration watch <
// working-set window) are what the defaults encode, not the digits.
#pragma once

#include "common/types.hpp"
#include "common/vt.hpp"

namespace gpuvm::tuning {

/// Node-directory heartbeat period (cluster/node_directory.hpp). Prime us
/// count: the fastest recurring timer in the tree, so it is the most
/// exposed to ties with everything else.
inline constexpr vt::Duration kHeartbeatInterval = vt::from_micros(997.0);

/// A load-report subscription reports on change, at the next instant of its
/// interval grid, and otherwise every kKeepaliveIntervals intervals (15.952
/// ms at the default) so the directory can tell an idle node from a dead
/// one. Why 16:
///   - a multiple of the interval keeps every report on the grid that
///     per-interval reports used, so keepalives add no instant a tick could
///     tie on;
///   - an idle node sends 1/16 of the per-interval reports, and a busy one
///     no more than before;
///   - liveness is still judged within 18 intervals (about 18 ms), well
///     inside the chaos harness's 8-tenant, 24-event scenarios (about 40
///     ms), so the keepalive path is exercised there. A longer keepalive
///     would leave those scenarios ending before a lost node turns suspect.
inline constexpr i64 kKeepaliveIntervals = 16;

/// Smallest load-report interval a daemon accepts. Each report costs a
/// sample, an encode and a send on the thread that advances the clock, so
/// a hostile 1 ns subscription would otherwise cost one clock advance per
/// virtual nanosecond. The smallest interval in the tree is 199 us.
inline constexpr vt::Duration kMinReportInterval = vt::from_micros(100.0);

/// Largest report keepalive a daemon accepts, and kMaxReportKeepalive /
/// kKeepaliveIntervals the largest interval: virtual time stays below 2^62
/// ns (146 years), so no report deadline (now + keepalive, anchor + 16
/// intervals) can overflow.
inline constexpr vt::Duration kMaxReportKeepalive{i64{1} << 62};

/// Migration-coordinator watcher poll period (cluster/migration.hpp).
/// Prime us count, not a multiple of the heartbeat: a migration decision
/// should observe a *fresh* directory state, not race the heartbeat that
/// produces it on the same instant.
inline constexpr vt::Duration kMigrationWatchInterval = vt::from_micros(4993.0);

/// Base preemption quantum (core/scheduler.hpp), in seconds because the
/// SchedulerConfig API is double-seconds. Same digits as the migration
/// watch on purpose -- quantum expiries and migration polls sharing a
/// period keeps their relative phase fixed instead of drifting through
/// occasional coincidences. An expiry landing on a workload sleep's instant
/// would be a wake-order tie; 0.004993 s avoids every round workload delay.
inline constexpr double kBaseQuantumSeconds = 0.004993;

/// Governor ceiling for adaptive quantum escalation: kBaseQuantumSeconds *
/// 2^5, so five doublings land exactly on the cap without overshoot
/// (core/scheduler.hpp ThrashGovernor).
inline constexpr double kMaxQuantumSeconds = 0.159776;

/// Working-set window for the eviction policy (core/paging_policy.cpp).
/// Round by design: it is a *measurement* window, not a timer -- nothing
/// sleeps on it, so it cannot tie. 5 ms spans a handful of kernel launches
/// in the chaos scenarios (tens of ms total) without degenerating into
/// "everything is in the working set".
inline constexpr i64 kWorkingSetWindowNs = 5'000'000;

}  // namespace gpuvm::tuning

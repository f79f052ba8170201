// Context: the daemon-side record of one application thread.
//
// Mirrors the paper's internal Context structure: "a link to the connection
// object, the information about the last device call performed, and, if the
// application thread fails, the error code", plus scheduling state. The
// page-table entries for a context live in the MemoryManager, keyed by the
// ContextId.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "sim/kernels.hpp"
#include "transport/channel.hpp"

namespace gpuvm::core {

enum class ContextState {
  Pending,   ///< connection accepted, not yet serviced
  Detached,  ///< serviced but not bound to a vGPU (registration / CPU phase)
  Waiting,   ///< needs a vGPU, none available
  Assigned,  ///< bound to a vGPU
  Failed,    ///< last device call failed; awaiting recovery
  Done,      ///< connection closed
};

const char* to_string(ContextState s);

/// Serializes multi-thread access to one context's memory state. The thread
/// serving a call of the connection holds it; an inter-application
/// swap or a failure handler holds it while evicting the (unbound) victim.
/// vt-aware so a blocked acquirer does not stall the virtual clock.
class ContextLock {
 public:
  explicit ContextLock(vt::Domain& dom) : cv_(dom) {}

  void lock() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !held_; });
    held_ = true;
  }

  /// Non-blocking acquisition: inter-application swap uses this so that
  /// concurrent evictors can never form a lock cycle (they skip busy
  /// victims instead of waiting).
  bool try_lock() {
    std::unique_lock lk(mu_);
    if (held_) return false;
    held_ = true;
    return true;
  }

  void unlock() {
    std::unique_lock lk(mu_);
    held_ = false;
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  vt::ConditionVariable cv_;
  bool held_ = false;
};

struct Context {
  Context(ContextId id_, vt::Domain& dom) : id(id_), lock(dom), quiesce_cv(dom) {}

  const ContextId id;
  ContextLock lock;

  // ---- Fields below are written by the connection's calls or by a holder
  // of `lock`; the scheduler guards binding state with its own lock.
  std::atomic<ContextState> state{ContextState::Pending};

  /// Registered kernel symbols: handle -> name (per-connection mirror of
  /// the __cudaRegister* calls, issued eagerly before binding). Guarded by
  /// `lock`: the threads of a CUDA-4 application register concurrently.
  std::map<u64, std::string> functions;
  std::set<u64> modules;
  u64 next_module = 1;

  /// Pending cudaConfigureCall/cudaSetupArgument state.
  std::optional<sim::LaunchConfig> pending_config;
  std::vector<sim::KernelArg> pending_args;

  /// Scheduling metadata.
  vt::TimePoint arrival{};
  double job_cost_hint_seconds = 0.0;
  /// Absolute QoS deadline in modeled seconds since daemon start (<= 0 =
  /// none). Used by the DeadlineAware policy.
  double deadline_seconds = 0.0;
  /// CUDA 4.0 mode: nonzero when several connections (threads of one
  /// application) share this context.
  u64 app_id = 0;
  /// Negotiated capability bits from the wire handshake (intersection of
  /// the peer's advertised set and the daemon's). Optional ops such as
  /// QueryStats are refused when their bit is absent. Shared (CUDA 4)
  /// contexts intersect across all joined connections.
  std::atomic<u32> caps{0};
  std::atomic<int> connection_refs{1};
  double credits = 0.0;               ///< credit-based scheduling account
  double gpu_time_used_seconds = 0.0;

  /// Last failed call's status (cudaGetLastError).
  std::atomic<Status> last_error{Status::Ok};

  /// Set when the context launched a kernel flagged as using in-kernel
  /// malloc: the paper excludes such apps from sharing/dynamic scheduling.
  /// Evictors and migrators read it without the context lock.
  std::atomic<bool> pinned{false};

  /// The connection channel, published by the session for the lifetime of
  /// the connection (cleared under `lock` at teardown). Used by
  /// inter-application swap to ask "any pending requests?" -- an app in a
  /// CPU phase with no pending requests accepts a swap request. An
  /// in-process channel serves each request inside its sender's send(), so
  /// nothing queues there and pending() reads false. That matches a thread
  /// serving it in virtual time: the thread popped each request at its send
  /// instant, so pending() was true for zero virtual time. A socket channel
  /// still queues requests, and the probe still matters there.
  std::atomic<transport::MessageChannel*> channel{nullptr};

  // ---- Live migration (see Runtime::migrate_context) -----------------------

  /// Requests of the connection currently inside handle()/do_launch.
  /// The migration committer flips `migrated` and then requires this to be
  /// zero -- since the scheduler handshake runs inside do_launch, a nonzero
  /// count proves a call could still touch local state, so the committer
  /// rolls back and waits for the call to retire instead of racing it.
  std::atomic<int> calls_in_flight{0};
  /// Signaled (under quiesce_mu) whenever calls_in_flight retires to zero.
  /// The committer's rollback path waits here rather than sleeping a fixed
  /// interval: the retry then runs at the exact virtual instant the blocking
  /// call completed, which keeps the quiesce outcome identical under replay
  /// (a paced poll samples at instants that can tie with unrelated events).
  std::mutex quiesce_mu;
  vt::ConditionVariable quiesce_cv;
  /// Once true (stop-and-copy committed), the connection forwards every
  /// subsequent request to `fwd` instead of serving it locally.
  /// Never reset after the resume frame is on the wire: the target owns the
  /// job from that point, even if the final ack is lost.
  std::atomic<bool> migrated{false};
  /// Channel to the migration target, installed under `lock` by the
  /// committer; the forwarding path sends/receives under `lock` too.
  std::unique_ptr<transport::MessageChannel> fwd;

  /// Causal trace identity of the connection (from the Hello handshake),
  /// stored so a migration can re-propagate it to the target.
  u64 trace_id = 0;
  u64 parent_span = 0;
};

inline const char* to_string(ContextState s) {
  switch (s) {
    case ContextState::Pending: return "Pending";
    case ContextState::Detached: return "Detached";
    case ContextState::Waiting: return "Waiting";
    case ContextState::Assigned: return "Assigned";
    case ContextState::Failed: return "Failed";
    case ContextState::Done: return "Done";
  }
  return "?";
}

}  // namespace gpuvm::core

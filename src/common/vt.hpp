// Virtual-time threading substrate.
//
// gpuvm simulates the latencies of GPU kernels, PCIe transfers, network hops
// and CPU phases. Running those latencies as wall-clock sleeps would make
// the paper's experiments (tens of minutes of modeled time) impractically
// slow and would let harness overhead pollute the measurements, so all
// modeled delays run against a *virtual clock* owned by a vt::Domain.
//
// Model: a set of OS threads attach to a Domain. At any instant each
// attached thread is in exactly one of three states:
//   - running:  executing real code (takes zero virtual time),
//   - sleeping: inside Domain::sleep_for/sleep_until (takes virtual time),
//   - idle:     blocked in a vt::ConditionVariable wait (waiting for another
//               thread's notification; takes however long that takes).
// The clock advances conservatively: only when no thread is running and no
// notification is still in flight does the Domain jump the clock to the
// earliest pending deadline and wake the corresponding sleepers. This is a
// quiescence-based conservative discrete-event advance; virtual durations
// are exact regardless of host load, and a simulation runs at CPU speed.
//
// Internally the quiescence state is one atomic "activity" count
// (running threads + holds + wakes in flight): the hot paths -- reading the
// clock, condition-variable waits and notifies from attached threads --
// never take the domain mutex, which guards only the sleeper queue, the
// armed timers and the advance itself. The sleeper queue is a two-level
// calendar queue / timer wheel (common/calendar_queue.hpp), amortized O(1)
// per sleep; it wakes same-deadline sleepers in insertion order, the
// determinism contract test_vt checks against a std::multimap reference.
//
// Periodic work that never blocks (a heartbeat) needs no thread at all: a
// vt::Timer is a one-shot, re-armable callback that the clock engine runs
// itself. At quiescence the thread performing the advance runs every timer
// due at or before the next sleeper's deadline, each at its own instant and
// before the sleepers due at that instant wake; a timer never moves the
// clock on its own (see Timer for the full contract).
//
// For simulations with very many logical actors (thousands of tenants,
// millions of jobs) a thread per actor stops scaling; vt::TaskRunner
// (common/task.hpp) multiplexes lightweight callback actors onto one
// attached thread and drives its own calendar queue, interacting with the
// Domain only at distinct virtual instants.
//
// A Domain can instead run in ScaledReal mode, where sleeps map to real
// nanosleep calls scaled by a factor and one Domain-owned real-time thread
// runs the timers; this is used as a cross-check that the virtual clock does
// not distort experiment shapes.
//
// Threads must attach before using vt primitives (see vt::Thread, which is
// a jthread-like RAII wrapper that attaches on entry). Blocking on anything
// other than vt primitives while attached stalls the clock for everyone, so
// domain code must use vt::ConditionVariable instead of std::condition_variable.
#pragma once

#include <algorithm>
#include <chrono>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/calendar_queue.hpp"
#include "common/stats_table.hpp"
#include "common/types.hpp"

namespace gpuvm::vt {

/// Virtual durations/time points are nanosecond counts since domain start.
using Duration = std::chrono::nanoseconds;
using TimePoint = Duration;

inline constexpr TimePoint kTimeZero{0};

constexpr Duration from_seconds(double s) {
  return Duration{static_cast<std::int64_t>(s * 1e9)};
}
constexpr Duration from_millis(double ms) {
  return Duration{static_cast<std::int64_t>(ms * 1e6)};
}
constexpr Duration from_micros(double us) {
  return Duration{static_cast<std::int64_t>(us * 1e3)};
}
constexpr double to_seconds(Duration d) { return static_cast<double>(d.count()) * 1e-9; }

enum class Mode {
  Virtual,     ///< discrete-event clock, no real sleeping
  ScaledReal,  ///< real sleeps scaled by Domain::real_scale (sanity mode)
};

class ConditionVariable;
class Alarm;
class Timer;

class Domain {
 public:
  /// Clock-engine counters (monotone since construction; lock-free reads).
  struct ClockStats {
    u64 advances = 0;           ///< quiescence advances performed
    u64 events_dispatched = 0;  ///< sleepers woken + task and timer callbacks run
    u64 sleepers_peak = 0;      ///< peak concurrent sleeper-queue population
  };

  explicit Domain(Mode mode = Mode::Virtual, double real_scale = 1e-3);
  ~Domain();

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  Mode mode() const { return mode_; }

  /// Current virtual time. Lock-free in Virtual mode: the clock only moves
  /// at quiescence points, so any attached running thread reads an exact
  /// value (the clock cannot advance while it runs).
  TimePoint now() const;

  /// Lock-free read of the virtual clock, safe from code that may already
  /// hold mu_ indirectly (e.g. log lines emitted during domain teardown).
  /// Same implementation as now(); kept as a distinct name for call sites
  /// that must document they tolerate a stale-by-one-advance read from
  /// unattached threads.
  TimePoint now_relaxed() const;

  /// Block the calling (attached) thread for `d` of virtual time.
  void sleep_for(Duration d);
  /// Block the calling (attached) thread until virtual time `t`.
  void sleep_until(TimePoint t);

  /// Threads must attach before sleeping or waiting on vt condition
  /// variables, and detach before exiting. Prefer vt::Thread.
  void attach_current_thread();
  void detach_current_thread();

  /// While at least one hold is outstanding the clock cannot advance.
  /// Use (via HoldGuard) around batch thread spawns so that all workers
  /// observe the same virtual start time; without it an early worker's
  /// sleep could advance the clock before its siblings exist.
  void hold();
  void unhold();

  /// Number of currently attached threads (diagnostics).
  int attached_threads() const;

  /// Domain the calling thread is attached to, or nullptr.
  static Domain* current();

  /// Snapshot of the clock-engine counters (the stats.vt.* rows of a
  /// daemon's QueryStats reply).
  ClockStats clock_stats() const;

  /// Event pumps (vt::TaskRunner) fold their dispatched-callback counts into
  /// ClockStats::events_dispatched so "events/sec" covers both actor models.
  void add_dispatched(u64 n) { dispatched_.fetch_add(n, std::memory_order_relaxed); }

  /// Dump scheduler state to the log (diagnosing a stuck simulation).
  std::string debug_state() const;

 private:
  friend class ConditionVariable;
  friend class IdleGuard;
  friend class Alarm;
  friend class Timer;

  struct Sleeper {
    TimePoint deadline{};
    u64 seq = 0;          // returned by the queue's insert (erase key)
    std::condition_variable wake;
    bool due = false;       // set by the advancing thread before notifying
    bool cancelled = false; // set by Alarm::cancel instead of the advance
  };

  // ---- Quiescence accounting -------------------------------------------------
  // activity_ == running threads + outstanding holds + wakes in flight.
  // The clock may advance only while it is zero. Attached threads mutate it
  // with plain atomics (they are themselves part of the count, so an
  // advance cannot race them); the transitions that can *reach* zero take
  // mu_ to perform the advance, and unattached mutators serialize through
  // mu_ so a wake token cannot slip past an in-flight advance decision.
  std::atomic<i64> activity_{0};

  // mu_ guards: queue_, timers_, every Timer's state, now_, attached_,
  // holds_, and the advance itself.
  mutable std::mutex mu_;
  Mode mode_;
  double real_scale_;
  std::chrono::steady_clock::time_point real_start_;
  TimePoint now_{0};
  std::atomic<std::int64_t> now_mirror_{0};  // lock-free copy of now_ (ns)
  int attached_ = 0;
  int holds_ = 0;
  CalendarQueue<Sleeper*> queue_;
  std::vector<CalendarQueue<Sleeper*>::Entry> due_scratch_;  // advance working set

  // Armed timers by (deadline ns, arm order): same-instant timers run in the
  // order they were armed.
  std::map<std::pair<i64, u64>, Timer*> timers_;
  u64 timer_seq_ = 0;
  std::condition_variable timer_done_;  // a callback returned (Timer::cancel)
  // ScaledReal only: the thread that runs the timers, started by the first
  // arm, and what wakes it (a new earliest timer, or ~Domain).
  std::thread timer_thread_;
  std::condition_variable timer_cv_;
  bool stopping_ = false;

  std::atomic<u64> advances_{0};
  std::atomic<u64> dispatched_{0};
  std::atomic<u64> sleepers_peak_{0};

  void sleep_until_locked(std::unique_lock<std::mutex>& lock, TimePoint t);

  // Called with mu_ held: queues `s` (deadline set by the caller), leaves
  // the running set and blocks until an advance or Alarm::cancel marks it
  // due.
  void park_locked(std::unique_lock<std::mutex>& lock, Sleeper& s);

  // Called with mu_ held (through `lock`). While the domain is quiescent,
  // runs the timers due at or before the earliest sleeper's deadline (each
  // at its own instant, mu_ released around the callback), then advances
  // the clock to that deadline and wakes the due sleepers (popping them).
  void maybe_advance_locked(std::unique_lock<std::mutex>& lock);

  // Pops the earliest timer and runs its callback outside mu_, recording
  // which thread runs it so Timer::cancel can wait it out.
  void fire_locked(std::unique_lock<std::mutex>& lock);

  // ScaledReal: body of timer_thread_.
  void timer_loop();

  // activity_ decrements; an observed drop to zero triggers an advance.
  void dec_activity();  // takes mu_ only on the zero transition
  void dec_activity_locked(std::unique_lock<std::mutex>& lock);

  // ConditionVariable integration: a thread entering an idle wait leaves the
  // running set (and can trigger an advance); notifications register an
  // in-flight wake so the clock cannot advance past a pending wakeup.
  void idle_begin();
  void idle_end(int consumed_wakes);
  void note_wakes(int count);
};

/// Domain::ClockStats' fields under their QueryStats names ("stats.vt.<name>").
inline constexpr auto kClockStatsFields = std::to_array<StatField<Domain::ClockStats>>({
    {"advances", &Domain::ClockStats::advances},
    {"events_dispatched", &Domain::ClockStats::events_dispatched},
    {"sleepers_peak", &Domain::ClockStats::sleepers_peak},
});

/// Condition variable whose waits count as "idle" (not "running") toward the
/// domain's quiescence detection. Interface mirrors std::condition_variable
/// but every wait must name the Domain. Waiting threads must be attached.
///
/// REQUIRED CONVENTION (stricter than std): notify_one/notify_all must be
/// called *while holding the same mutex the waiters pass to wait()*, after
/// mutating the predicate under that mutex. The domain counts undelivered
/// wake "tokens" (capped by the number of parked waiters, exactly mirroring
/// how an OS collapses redundant signals); tokens in flight pin the virtual
/// clock so it cannot advance past a wakeup that is still being delivered.
/// The cap arithmetic is only exact when notifications and waiter bookkeeping
/// are serialized by that one mutex.
class ConditionVariable {
 public:
  explicit ConditionVariable(Domain& dom) : dom_(&dom) {}

  ConditionVariable(const ConditionVariable&) = delete;
  ConditionVariable& operator=(const ConditionVariable&) = delete;

  void notify_one();
  void notify_all();

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lk, Pred pred) {
    while (!pred()) wait_once(lk);
  }

  /// Wait with a virtual-time timeout; returns pred() at exit (like
  /// std::condition_variable::wait_for). Implemented by polling in virtual
  /// time (quantum = timeout/16, at least 200us virtual) rather than by
  /// notification, so it is suitable for retry/backoff loops, not for
  /// latency-critical handoffs.
  template <typename Pred>
  bool wait_for(std::unique_lock<std::mutex>& lk, Duration timeout, Pred pred) {
    const TimePoint deadline = dom_->now() + timeout;
    const Duration quantum = std::max(timeout / 16, from_micros(200));
    while (!pred()) {
      const TimePoint current = dom_->now();
      if (current >= deadline) return pred();
      lk.unlock();
      dom_->sleep_for(std::min(quantum, deadline - current));
      lk.lock();
    }
    return true;
  }

 private:
  // One blocking episode: marks the thread idle, waits for a notification.
  void wait_once(std::unique_lock<std::mutex>& lk);

  Domain* dom_;
  std::condition_variable cv_;
  // Guarded by the waiters' mutex (see the convention above).
  int waiters_ = 0;  // threads parked in wait_once
  int tokens_ = 0;   // undelivered wake tokens; invariant: tokens_ <= waiters_
};

/// A cancellable one-shot virtual-time alarm: exactly one thread may block
/// in wait_until() at a time; any thread may cancel(). The primitive event
/// pumps need -- a deadline sleep that a cross-thread post can interrupt.
///
/// cancel() latches: if no wait is in progress, the *next* wait_until
/// returns false immediately. A cancel that lands after the deadline wake
/// was already delivered is dropped (the waiter is about to recheck its
/// work queue anyway).
class Alarm {
 public:
  explicit Alarm(Domain& dom) : dom_(&dom) {}

  Alarm(const Alarm&) = delete;
  Alarm& operator=(const Alarm&) = delete;

  /// Blocks the calling (attached) thread until virtual time `t` or until
  /// cancelled. Returns true when the deadline was reached, false when
  /// cancelled early (virtual time then reflects the cancel instant).
  bool wait_until(TimePoint t);

  /// Wakes a concurrent wait_until immediately, or latches so the next
  /// wait_until returns false. Thread-safe.
  void cancel();

 private:
  Domain* dom_;
  // Virtual mode: guarded by dom_->mu_. ScaledReal mode: guarded by real_mu_.
  Domain::Sleeper* parked_ = nullptr;
  bool pending_cancel_ = false;
  std::mutex real_mu_;
  std::condition_variable real_cv_;
};

/// A one-shot, re-armable virtual-time timer that the clock engine runs
/// itself -- periodic work without a thread of its own (a heartbeat re-arms
/// from its callback). Contract:
///   - who: in Virtual mode, the thread that performs the quiescence
///     advance, attached or not; in ScaledReal mode, one Domain-owned
///     real-time thread;
///   - when: every timer due at or before the earliest sleeper's deadline
///     runs at its own instant (now() == its deadline), before any sleeper
///     due at that instant wakes; same-instant timers in arm order;
///   - a timer never moves the clock on its own: while no thread sleeps,
///     armed timers wait (a domain whose threads are all idle stays put);
///   - the callback runs outside the domain mutex with the clock pinned --
///     it counts as a running thread, so what it notifies, starts or sends
///     happens at its instant;
///   - so it must never block in virtual time (no sleep, no
///     vt::ConditionVariable wait, no join) and must not throw, and it may
///     take only locks that no thread holds across a vt sleep, a
///     vt::ConditionVariable wait or a join: the advancing thread may be
///     inside any of those, holding whatever its caller holds.
class Timer {
 public:
  Timer(Domain& dom, std::function<void()> callback);
  ~Timer();  ///< cancel()

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms the timer for virtual time `at` (a past instant runs at the next
  /// advance), replacing any pending deadline. Thread-safe, also from the
  /// callback itself.
  void arm(TimePoint at);

  /// Disarms. A callback running on another thread is waited out first, so
  /// never cancel while holding a lock the callback takes; from inside the
  /// callback, returns at once. A cancelled timer does not fire until it is
  /// armed again.
  void cancel();

 private:
  friend class Domain;
  Domain* dom_;
  std::function<void()> callback_;
  // Guarded by dom_->mu_.
  std::optional<std::pair<i64, u64>> key_;  ///< timers_ key while armed
  std::thread::id running_on_{};           ///< set while the callback runs
  bool cancelling_ = false;  ///< a cancel waits the callback out: no re-arm
};

/// RAII thread that attaches to a Domain for its whole body and joins on
/// destruction (CP.25: prefer joining threads). The constructor returns
/// only after the new thread has attached, so a spawner holding the domain
/// (HoldGuard) can guarantee a common virtual start time for a batch.
class Thread {
 public:
  Thread() = default;

  template <typename Fn>
  Thread(Domain& dom, Fn&& fn) {
    std::promise<void> attached;
    auto attached_future = attached.get_future();
    impl_ = std::thread(
        [&dom, started = std::move(attached), fn = std::forward<Fn>(fn)]() mutable {
          dom.attach_current_thread();
          started.set_value();
          struct Detach {
            Domain* d;
            ~Detach() { d->detach_current_thread(); }
          } guard{&dom};
          fn();
        });
    attached_future.wait();
  }

  Thread(Thread&&) = default;
  Thread& operator=(Thread&&) = default;

  ~Thread() {
    if (impl_.joinable()) join();
  }

  bool joinable() const { return impl_.joinable(); }

  /// Joins; if the calling thread is itself attached to a domain, it is
  /// marked idle for the duration so the virtual clock keeps advancing for
  /// the thread being joined.
  void join();

  /// Joins a thread whose function has returned (the caller knows it from
  /// a flag the function set last) without marking the caller idle: only
  /// the thread's detach is left, which never waits on the clock, so the
  /// clock cannot run on while the caller waits.
  void join_returned() { impl_.join(); }

 private:
  std::thread impl_;
};

/// Marks the calling (attached) thread idle for the guard's lifetime. Wrap
/// any blocking call on a non-vt primitive (futures, std::thread::join,
/// real sockets) so the block does not stall the virtual clock.
class IdleGuard {
 public:
  IdleGuard();  // applies to Domain::current(); no-op when unattached
  ~IdleGuard();
  IdleGuard(const IdleGuard&) = delete;
  IdleGuard& operator=(const IdleGuard&) = delete;

 private:
  Domain* dom_;
};

/// RAII guard for Domain::hold/unhold.
class HoldGuard {
 public:
  explicit HoldGuard(Domain& dom) : dom_(&dom) { dom_->hold(); }
  ~HoldGuard() { dom_->unhold(); }
  HoldGuard(const HoldGuard&) = delete;
  HoldGuard& operator=(const HoldGuard&) = delete;

 private:
  Domain* dom_;
};

/// Attaches the calling thread for the lifetime of the guard. Used by main
/// threads (tests, benches) that interact with a simulation.
class AttachGuard {
 public:
  explicit AttachGuard(Domain& dom) : dom_(&dom) { dom_->attach_current_thread(); }
  ~AttachGuard() { dom_->detach_current_thread(); }
  AttachGuard(const AttachGuard&) = delete;
  AttachGuard& operator=(const AttachGuard&) = delete;

 private:
  Domain* dom_;
};

/// Measures elapsed virtual time.
class StopWatch {
 public:
  explicit StopWatch(const Domain& dom) : dom_(&dom), start_(dom.now()) {}
  Duration elapsed() const { return dom_->now() - start_; }
  double elapsed_seconds() const { return to_seconds(elapsed()); }
  void reset() { start_ = dom_->now(); }

 private:
  const Domain* dom_;
  TimePoint start_;
};

}  // namespace gpuvm::vt

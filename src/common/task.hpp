// Lightweight virtual-time actors (vt::Task / vt::TaskRunner).
//
// The vt::Thread model gives every simulated actor an OS thread; that is
// faithful and convenient but caps cluster size at how many threads and
// context switches one machine sustains -- every virtual-clock advance costs
// at least two switches per woken actor. For simulations with thousands of
// tenants and millions of job events (bench_scale, the load generator) the
// actors must be *callbacks*, not threads.
//
// A TaskRunner multiplexes any number of logical actors onto ONE attached
// pump thread. Work items are (virtual deadline, closure) pairs in a
// calendar queue; the pump pops everything due at the current instant, runs
// it, and then either parks on a vt::Alarm until the next deadline (letting
// the domain clock advance) or idles on a condition variable when the queue
// is empty. Because the pump is a single vt participant, dispatching one
// event costs a mutex acquisition and a queue operation instead of a thread
// handoff -- this is the "discrete-event fast path".
//
// Determinism: a runner whose events are only posted from its own callbacks
// (the actor model) is single-threaded by construction, and its alarm
// behaves exactly like one more sleeper in the domain, so runs are
// reproducible. Posts from *other* threads are safe (mutex-protected) but
// arrive wherever the clock happens to be, just like cross-thread notifies.
//
// TaskRunner composes with vt::Thread users in the same domain: the pump is
// just another attached thread. Existing thread-per-actor code keeps
// working unchanged; hot populations migrate to tasks.
//
// Periodic work that never blocks needs not even the pump: a vt::Timer
// (common/vt.hpp) is run by the clock engine itself, on whichever thread
// advances the clock, at no thread and no context switch per firing. The
// daemon's heartbeats are timers; this pump, a thread that parks until its
// next deadline, could become one too for callbacks that never block.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <utility>

#include "common/calendar_queue.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"

namespace gpuvm::vt {

class TaskRunner;

/// Cheap per-step handle an actor uses to schedule its continuation(s).
/// Valid only inside the step callback (and anything it calls synchronously).
class Task {
 public:
  using Step = std::function<void(Task&)>;

  Domain& domain();
  TimePoint now() const;

  /// Schedule `step` to run `d` of virtual time after the current instant.
  void defer(Duration d, Step step);
  /// Schedule `step` at absolute virtual time `t` (clamped to now if past).
  void at(TimePoint t, Step step);
  /// Start a sibling actor at the current instant.
  void spawn(Step step);

 private:
  friend class TaskRunner;
  explicit Task(TaskRunner& runner) : runner_(&runner) {}
  TaskRunner* runner_;
};

/// One attached pump thread draining a calendar queue of timed closures.
class TaskRunner {
 public:
  explicit TaskRunner(Domain& dom);
  ~TaskRunner();  ///< stop()s (abandoning pending timers) and joins the pump

  TaskRunner(const TaskRunner&) = delete;
  TaskRunner& operator=(const TaskRunner&) = delete;

  Domain& domain() { return *dom_; }

  /// Start an actor: `step` runs on the pump at the current virtual instant.
  void spawn(Task::Step step);

  /// Raw posts (closures without the Task handle).
  void post(std::function<void()> fn);
  void post_at(TimePoint t, std::function<void()> fn);
  void post_after(Duration d, std::function<void()> fn);

  /// Block until the queue is empty and no batch is executing -- i.e. every
  /// actor has run out of continuations. Attaches the caller if needed.
  void drain();

  /// Ask the pump to exit, abandoning pending timers, and join it.
  /// Idempotent; also invoked by the destructor.
  void stop();

  /// Callbacks executed so far (also folded into Domain::clock_stats()).
  u64 executed() const { return executed_.load(std::memory_order_relaxed); }

  /// Work items currently queued (diagnostics).
  size_t pending() const;

 private:
  enum class PumpState { Running, IdleWait, AlarmPark };

  void pump_loop();

  Domain* dom_;
  Alarm alarm_;

  // mu_ guards everything below; lock order is mu_ -> (domain internals via
  // vt primitives). Never taken while a callback is executing.
  mutable std::mutex mu_;
  ConditionVariable idle_cv_;     ///< pump parks here when the queue is empty
  ConditionVariable drained_cv_;  ///< drain() waiters
  CalendarQueue<std::function<void()>> q_;
  std::vector<CalendarQueue<std::function<void()>>::Entry> batch_;
  PumpState state_ = PumpState::Running;
  i64 armed_deadline_ = 0;  ///< valid while state_ == AlarmPark
  size_t in_flight_ = 0;    ///< size of the batch currently executing
  bool stop_ = false;
  bool joined_ = false;

  std::atomic<u64> executed_{0};

  Thread pump_;  // last member: starts in the ctor after state is ready
};

inline Domain& Task::domain() { return runner_->domain(); }
inline TimePoint Task::now() const { return runner_->domain().now(); }
inline void Task::defer(Duration d, Step step) {
  runner_->post_after(d, [runner = runner_, s = std::move(step)]() mutable {
    Task t(*runner);
    s(t);
  });
}
inline void Task::at(TimePoint t, Step step) {
  runner_->post_at(t, [runner = runner_, s = std::move(step)]() mutable {
    Task task(*runner);
    s(task);
  });
}
inline void Task::spawn(Step step) { runner_->spawn(std::move(step)); }

}  // namespace gpuvm::vt

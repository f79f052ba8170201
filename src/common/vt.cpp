#include "common/vt.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/log.hpp"

namespace gpuvm::vt {

namespace {
thread_local Domain* tl_current_domain = nullptr;
}  // namespace

Domain* Domain::current() { return tl_current_domain; }

// ---- Domain -----------------------------------------------------------------

Domain::Domain(Mode mode, double real_scale)
    : mode_(mode), real_scale_(real_scale), real_start_(std::chrono::steady_clock::now()) {}

Domain::~Domain() {
  std::unique_lock lock(mu_);
  if (timer_thread_.joinable()) {
    stopping_ = true;
    timer_cv_.notify_one();
    lock.unlock();
    timer_thread_.join();
    lock.lock();
  }
  if (attached_ != 0) {
    log::error("vt::Domain destroyed with %d threads still attached", attached_);
  }
  assert(attached_ == 0 && "all vt threads must detach before Domain teardown");
}

TimePoint Domain::now() const {
  if (mode_ == Mode::ScaledReal) {
    const auto real = std::chrono::steady_clock::now() - real_start_;
    return TimePoint{static_cast<std::int64_t>(
        static_cast<double>(std::chrono::duration_cast<Duration>(real).count()) / real_scale_)};
  }
  // Lock-free: the clock advances only at quiescence, and the caller -- if it
  // is an attached running thread -- pins activity_ > 0, so the mirror is
  // exact for it. Unattached observers may read a value at most one advance
  // stale, which is the same race they already had against the advance.
  return TimePoint{now_mirror_.load(std::memory_order_acquire)};
}

TimePoint Domain::now_relaxed() const {
  if (mode_ == Mode::ScaledReal) return now();  // computed from the wall clock, no lock
  return TimePoint{now_mirror_.load(std::memory_order_relaxed)};
}

void Domain::attach_current_thread() {
  tl_current_domain = this;
  if (mode_ == Mode::ScaledReal) return;
  std::scoped_lock lock(mu_);
  ++attached_;
  activity_.fetch_add(1, std::memory_order_relaxed);
}

void Domain::detach_current_thread() {
  tl_current_domain = nullptr;
  if (mode_ == Mode::ScaledReal) return;
  std::unique_lock lock(mu_);
  --attached_;
  dec_activity_locked(lock);
}

int Domain::attached_threads() const {
  if (mode_ == Mode::ScaledReal) return 0;
  std::scoped_lock lock(mu_);
  return attached_;
}

Domain::ClockStats Domain::clock_stats() const {
  ClockStats stats;
  stats.advances = advances_.load(std::memory_order_relaxed);
  stats.events_dispatched = dispatched_.load(std::memory_order_relaxed);
  stats.sleepers_peak = sleepers_peak_.load(std::memory_order_relaxed);
  return stats;
}

void Domain::sleep_for(Duration d) {
  if (d <= Duration::zero()) return;
  if (mode_ == Mode::ScaledReal) {
    const auto real_ns = static_cast<std::int64_t>(static_cast<double>(d.count()) * real_scale_);
    std::this_thread::sleep_for(std::chrono::nanoseconds{std::max<std::int64_t>(real_ns, 0)});
    return;
  }
  std::unique_lock lock(mu_);
  sleep_until_locked(lock, now_ + d);
}

void Domain::sleep_until(TimePoint t) {
  if (mode_ == Mode::ScaledReal) {
    const TimePoint current = now();
    if (t > current) sleep_for(t - current);
    return;
  }
  std::unique_lock lock(mu_);
  sleep_until_locked(lock, t);
}

void Domain::sleep_until_locked(std::unique_lock<std::mutex>& lock, TimePoint t) {
  assert(lock.owns_lock());
  if (t <= now_) return;
  Sleeper sleeper;
  sleeper.deadline = t;
  park_locked(lock, sleeper);
}

void Domain::park_locked(std::unique_lock<std::mutex>& lock, Sleeper& s) {
  s.seq = queue_.insert(s.deadline.count(), &s);
  const u64 population = queue_.size();
  if (population > sleepers_peak_.load(std::memory_order_relaxed)) {
    sleepers_peak_.store(population, std::memory_order_relaxed);
  }
  // Leave the running set; if we were the last activity, advance inline --
  // in which case the wait below returns immediately (due already set).
  dec_activity_locked(lock);
  s.wake.wait(lock, [&] { return s.due; });
  // The advance (or a cancel) popped our queue entry and transferred its
  // wake-in-flight activity credit to us; we resume running with it, so net
  // zero here.
}

void Domain::hold() {
  if (mode_ == Mode::ScaledReal) return;
  std::scoped_lock lock(mu_);
  ++holds_;
  activity_.fetch_add(1, std::memory_order_relaxed);
}

void Domain::unhold() {
  if (mode_ == Mode::ScaledReal) return;
  std::unique_lock lock(mu_);
  --holds_;
  dec_activity_locked(lock);
}

void Domain::maybe_advance_locked(std::unique_lock<std::mutex>& lock) {
  while (activity_.load(std::memory_order_acquire) == 0) {
    const std::optional<i64> earliest = queue_.earliest();
    if (!earliest) return;  // timers never move the clock on their own
    if (!timers_.empty() && timers_.begin()->first.first <= *earliest) {
      // A timer runs at its own instant, before the sleepers due then; its
      // callback pins the clock, and whatever it woke or started keeps it
      // pinned at that instant once it returns.
      fire_locked(lock);
      continue;
    }
    // Quiescent: jump the clock to the earliest deadline and wake every due
    // sleeper. Each woken sleeper counts as a wake in flight (folded into
    // activity_) until it resumes, so the clock cannot skip past it.
    const TimePoint target = std::max(now_, TimePoint{*earliest});
    due_scratch_.clear();
    queue_.pop_due(target.count(), due_scratch_);
    assert(!due_scratch_.empty());
    now_ = target;
    now_mirror_.store(now_.count(), std::memory_order_release);
    advances_.fetch_add(1, std::memory_order_relaxed);
    dispatched_.fetch_add(due_scratch_.size(), std::memory_order_relaxed);
    activity_.fetch_add(static_cast<i64>(due_scratch_.size()), std::memory_order_relaxed);
    for (const auto& entry : due_scratch_) {
      entry.value->due = true;
      entry.value->wake.notify_one();
    }
    return;
  }
}

void Domain::fire_locked(std::unique_lock<std::mutex>& lock) {
  const auto first = timers_.begin();
  Timer* timer = first->second;
  const TimePoint at{first->first.first};
  timers_.erase(first);
  timer->key_.reset();
  if (mode_ == Mode::Virtual) {
    if (at > now_) {
      now_ = at;
      now_mirror_.store(now_.count(), std::memory_order_release);
      advances_.fetch_add(1, std::memory_order_relaxed);
    }
    activity_.fetch_add(1, std::memory_order_relaxed);  // the callback runs
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  timer->running_on_ = std::this_thread::get_id();
  lock.unlock();
  // The callback sees the domain as its thread's own (now() is exact, a
  // notify counts as an attached thread's) for its duration only.
  Domain* const previous = tl_current_domain;
  tl_current_domain = this;
  [&]() noexcept { timer->callback_(); }();
  tl_current_domain = previous;
  lock.lock();
  timer->running_on_ = std::thread::id{};
  if (timer->cancelling_ && timer->key_) {  // a cancel waits: the re-arm is void
    timers_.erase(*timer->key_);
    timer->key_.reset();
  }
  timer_done_.notify_all();
  if (mode_ == Mode::Virtual) activity_.fetch_sub(1, std::memory_order_acq_rel);
}

void Domain::timer_loop() {
  tl_current_domain = this;
  std::unique_lock lock(mu_);
  while (!stopping_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const Duration ahead = TimePoint{timers_.begin()->first.first} - now();
    if (ahead > Duration::zero()) {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds{static_cast<std::int64_t>(
                                   static_cast<double>(ahead.count()) * real_scale_)});
      continue;
    }
    fire_locked(lock);
  }
}

void Domain::dec_activity() {
  if (activity_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::unique_lock lock(mu_);
    maybe_advance_locked(lock);
  }
}

void Domain::dec_activity_locked(std::unique_lock<std::mutex>& lock) {
  if (activity_.fetch_sub(1, std::memory_order_acq_rel) == 1) maybe_advance_locked(lock);
}

void Domain::idle_begin() {
  if (mode_ == Mode::ScaledReal) return;
  dec_activity();
}

void Domain::idle_end(int consumed_wakes) {
  if (mode_ == Mode::ScaledReal) return;
  // Rejoin the running set (+1) while settling the wake tokens this thread
  // consumed (-consumed): one atomic on the net.
  const i64 net = 1 - static_cast<i64>(consumed_wakes);
  if (net > 0) {
    activity_.fetch_add(net, std::memory_order_relaxed);
  } else if (net < 0) {
    if (activity_.fetch_sub(-net, std::memory_order_acq_rel) == -net) {
      std::unique_lock lock(mu_);
      maybe_advance_locked(lock);
    }
  }
}

void Domain::note_wakes(int count) {
  if (mode_ == Mode::ScaledReal || count <= 0) return;
  if (tl_current_domain == this) {
    // Fast path: an attached notifier is itself running, so activity_ > 0
    // already and no advance can conclude concurrently -- a plain increment
    // cannot be missed.
    activity_.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  // Unattached notifier (e.g. a test's main thread): serialize against any
  // in-flight advance so the token cannot slip past the quiescence check.
  std::scoped_lock lock(mu_);
  activity_.fetch_add(count, std::memory_order_relaxed);
}

std::string Domain::debug_state() const {
  std::scoped_lock lock(mu_);
  std::ostringstream out;
  out << "vt::Domain{now=" << now_.count() << "ns attached=" << attached_
      << " activity=" << activity_.load(std::memory_order_relaxed) << " holds=" << holds_
      << " sleepers=" << queue_.size() << " timers=" << timers_.size();
  if (const auto e = queue_.earliest()) out << " next_deadline=" << *e << "ns";
  out << " advances=" << advances_.load(std::memory_order_relaxed)
      << " dispatched=" << dispatched_.load(std::memory_order_relaxed) << "}";
  return out.str();
}

// ---- Alarm ------------------------------------------------------------------

bool Alarm::wait_until(TimePoint t) {
  if (dom_->mode() == Mode::ScaledReal) {
    std::unique_lock lk(real_mu_);
    if (pending_cancel_) {
      pending_cancel_ = false;
      return false;
    }
    const TimePoint current = dom_->now();
    if (t <= current) return true;
    const auto real_ns = static_cast<std::int64_t>(
        static_cast<double>((t - current).count()) * dom_->real_scale_);
    const bool cancelled =
        real_cv_.wait_for(lk, std::chrono::nanoseconds{std::max<std::int64_t>(real_ns, 0)},
                          [&] { return pending_cancel_; });
    if (cancelled) {
      pending_cancel_ = false;
      return false;
    }
    return true;
  }

  std::unique_lock lock(dom_->mu_);
  if (pending_cancel_) {
    pending_cancel_ = false;
    return false;
  }
  if (t <= dom_->now_) return true;
  Domain::Sleeper sleeper;
  sleeper.deadline = t;
  parked_ = &sleeper;  // mu_ stays held until park_locked waits
  dom_->park_locked(lock, sleeper);
  parked_ = nullptr;
  return !sleeper.cancelled;
}

void Alarm::cancel() {
  if (dom_->mode() == Mode::ScaledReal) {
    std::scoped_lock lk(real_mu_);
    pending_cancel_ = true;
    real_cv_.notify_one();
    return;
  }
  std::scoped_lock lock(dom_->mu_);
  if (parked_ == nullptr) {
    pending_cancel_ = true;  // latch for the next wait_until
    return;
  }
  Domain::Sleeper* s = parked_;
  if (s->due) return;  // deadline wake already delivered; waiter is resuming
  // Substitute for the advance: pull the sleeper out of the queue, hand it a
  // wake-in-flight activity credit, and wake it at the *current* instant.
  dom_->queue_.erase(s->deadline.count(), s->seq);
  s->due = true;
  s->cancelled = true;
  dom_->activity_.fetch_add(1, std::memory_order_relaxed);
  s->wake.notify_one();
}

// ---- Timer ------------------------------------------------------------------

Timer::Timer(Domain& dom, std::function<void()> callback)
    : dom_(&dom), callback_(std::move(callback)) {}

Timer::~Timer() { cancel(); }

void Timer::arm(TimePoint at) {
  std::scoped_lock lock(dom_->mu_);
  if (key_) dom_->timers_.erase(*key_);
  key_.emplace(at.count(), dom_->timer_seq_++);
  dom_->timers_.emplace(*key_, this);
  if (dom_->mode_ == Mode::ScaledReal) {
    if (!dom_->timer_thread_.joinable()) {
      dom_->timer_thread_ = std::thread([d = dom_] { d->timer_loop(); });
    }
    dom_->timer_cv_.notify_one();
  }
}

void Timer::cancel() {
  std::unique_lock lock(dom_->mu_);
  if (running_on_ != std::thread::id{} && running_on_ != std::this_thread::get_id()) {
    cancelling_ = true;
    dom_->timer_done_.wait(lock, [&] { return running_on_ == std::thread::id{}; });
    cancelling_ = false;
  }
  if (key_) {
    dom_->timers_.erase(*key_);
    key_.reset();
  }
}

// ---- Thread / guards / ConditionVariable ------------------------------------

void Thread::join() {
  IdleGuard idle;
  impl_.join();
}

IdleGuard::IdleGuard() : dom_(Domain::current()) {
  if (dom_ != nullptr) dom_->idle_begin();
}

IdleGuard::~IdleGuard() {
  if (dom_ != nullptr) dom_->idle_end(0);
}

void ConditionVariable::notify_one() {
  // Caller holds the waiters' mutex (required convention, see vt.hpp). A
  // signal to a cv with no parked waiters is a no-op for wake accounting,
  // and redundant signals to the same parked waiter collapse -- mirroring
  // what the OS futex does -- hence the cap at waiters_.
  const int before = tokens_;
  tokens_ = std::min(tokens_ + 1, waiters_);
  dom_->note_wakes(tokens_ - before);
  cv_.notify_one();
}

void ConditionVariable::notify_all() {
  const int before = tokens_;
  tokens_ = waiters_;
  dom_->note_wakes(tokens_ - before);
  cv_.notify_all();
}

void ConditionVariable::wait_once(std::unique_lock<std::mutex>& lk) {
  assert(lk.owns_lock());
  ++waiters_;
  dom_->idle_begin();
  cv_.wait(lk);
  // lk is held again: settle the token books for this departure.
  --waiters_;
  int consumed = 0;
  if (tokens_ > 0) {
    --tokens_;
    consumed = 1;
  }
  if (tokens_ > waiters_) {  // waiter left with undelivered tokens outstanding
    consumed += tokens_ - waiters_;
    tokens_ = waiters_;
  }
  dom_->idle_end(consumed);
}

}  // namespace gpuvm::vt

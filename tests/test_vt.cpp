// Tests for the virtual-time threading substrate (common/vt.hpp): the
// quiescence clock, the calendar queue behind it (checked against a
// std::multimap reference), the cancellable Alarm, the clock-engine Timer,
// and the ScaledReal cross-check.
#include "common/vt.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/calendar_queue.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"

namespace gpuvm::vt {
namespace {

TEST(VtDomain, StartsAtZero) {
  Domain dom;
  EXPECT_EQ(dom.now(), kTimeZero);
}

TEST(VtDomain, SingleThreadSleepAdvancesExactly) {
  Domain dom;
  AttachGuard guard(dom);
  dom.sleep_for(from_millis(5));
  EXPECT_EQ(dom.now(), from_millis(5));
  dom.sleep_for(from_micros(250));
  EXPECT_EQ(dom.now(), from_millis(5) + from_micros(250));
}

TEST(VtDomain, SleepZeroOrNegativeIsNoop) {
  Domain dom;
  AttachGuard guard(dom);
  dom.sleep_for(Duration::zero());
  dom.sleep_for(Duration{-100});
  EXPECT_EQ(dom.now(), kTimeZero);
}

TEST(VtDomain, SleepUntilPastIsNoop) {
  Domain dom;
  AttachGuard guard(dom);
  dom.sleep_for(from_millis(2));
  dom.sleep_until(from_millis(1));
  EXPECT_EQ(dom.now(), from_millis(2));
}

TEST(VtDomain, ParallelSleepsOverlapInVirtualTime) {
  Domain dom;
  std::atomic<i64> max_end_ns{0};
  {
    std::vector<Thread> threads;
    HoldGuard hold(dom);
    for (int i = 0; i < 8; ++i) {
      threads.emplace_back(dom, [&dom, &max_end_ns] {
        dom.sleep_for(from_millis(10));
        i64 end = dom.now().count();
        i64 prev = max_end_ns.load();
        while (prev < end && !max_end_ns.compare_exchange_weak(prev, end)) {
        }
      });
    }
  }
  // Eight concurrent 10ms sleeps take 10ms of virtual time, not 80ms.
  EXPECT_EQ(max_end_ns.load(), from_millis(10).count());
}

TEST(VtDomain, SequentialDependentSleepsAccumulate) {
  Domain dom;
  VtQueue<int> q(dom);
  TimePoint consumer_end{};
  {
    dom.hold();
    Thread producer(dom, [&] {
      dom.sleep_for(from_millis(3));
      q.push(1);
    });
    Thread consumer(dom, [&] {
      (void)q.pop();
      dom.sleep_for(from_millis(4));
      consumer_end = dom.now();
    });
    dom.unhold();
  }
  EXPECT_EQ(consumer_end, from_millis(7));
}

TEST(VtDomain, IdleWaiterDoesNotStallClock) {
  Domain dom;
  VtQueue<int> q(dom);
  TimePoint producer_end{};
  {
    dom.hold();
    Thread waiter(dom, [&] { (void)q.pop(); });
    Thread producer(dom, [&] {
      dom.sleep_for(from_seconds(1));
      producer_end = dom.now();
      q.push(42);
    });
    dom.unhold();
  }
  // The idle pop() must not prevent the producer's sleep from advancing.
  EXPECT_EQ(producer_end, from_seconds(1));
}

TEST(VtDomain, ManySleepersWakeInDeadlineOrder) {
  Domain dom;
  std::mutex mu;
  std::vector<int> order;
  {
    std::vector<Thread> threads;
    HoldGuard hold(dom);
    for (int i = 7; i >= 0; --i) {
      threads.emplace_back(dom, [&, i] {
        dom.sleep_for(from_millis(i + 1));
        std::scoped_lock lock(mu);
        order.push_back(i);
      });
    }
  }
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(VtDomain, NestedProducerConsumerPipeline) {
  // Three-stage pipeline; end-to-end virtual latency is the sum of stage
  // delays for one item because stages overlap across items.
  Domain dom;
  VtQueue<int> q1(dom);
  VtQueue<int> q2(dom);
  TimePoint last_out{};
  constexpr int kItems = 16;
  {
    dom.hold();
    Thread stage1(dom, [&] {
      for (int i = 0; i < kItems; ++i) {
        dom.sleep_for(from_millis(1));
        q1.push(i);
      }
      q1.close();
    });
    Thread stage2(dom, [&] {
      while (auto v = q1.pop()) {
        dom.sleep_for(from_millis(1));
        q2.push(*v);
      }
      q2.close();
    });
    Thread stage3(dom, [&] {
      while (auto v = q2.pop()) {
        dom.sleep_for(from_millis(1));
        last_out = dom.now();
      }
    });
    dom.unhold();
  }
  // Pipeline throughput is bounded by the slowest stage: 16 items, 1ms
  // bottleneck, 2ms fill latency.
  EXPECT_EQ(last_out, from_millis(kItems + 2));
}

TEST(VtDomain, WaitForTimesOutInVirtualTime) {
  Domain dom;
  std::mutex mu;
  ConditionVariable cv(dom);
  bool flag = false;
  TimePoint waited_until{};
  {
    Thread waiter(dom, [&] {
      std::unique_lock lk(mu);
      const bool got = cv.wait_for(lk, from_millis(10), [&] { return flag; });
      EXPECT_FALSE(got);
      waited_until = dom.now();
    });
  }
  EXPECT_GE(waited_until, from_millis(10));
  // Polling quantization may overshoot slightly, but never by more than a
  // quantum.
  EXPECT_LE(waited_until, from_millis(11));
}

TEST(VtDomain, WaitForSucceedsWhenPredicateTurnsTrue) {
  Domain dom;
  std::mutex mu;
  ConditionVariable cv(dom);
  bool flag = false;
  bool got = false;
  {
    dom.hold();
    Thread waiter(dom, [&] {
      std::unique_lock lk(mu);
      got = cv.wait_for(lk, from_seconds(5), [&] { return flag; });
    });
    Thread setter(dom, [&] {
      dom.sleep_for(from_millis(20));
      std::scoped_lock lk(mu);
      flag = true;
      cv.notify_all();
    });
    dom.unhold();
  }
  EXPECT_TRUE(got);
}

TEST(VtDomain, StressManyThreadsRandomSleeps) {
  Domain dom;
  std::atomic<int> completed{0};
  {
    std::vector<Thread> threads;
    HoldGuard hold(dom);
    for (int t = 0; t < 16; ++t) {
      threads.emplace_back(dom, [&dom, &completed, t] {
        for (int i = 0; i < 50; ++i) {
          dom.sleep_for(from_micros((t * 37 + i * 13) % 200 + 1));
        }
        completed.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(completed.load(), 16);
  EXPECT_GT(dom.now(), kTimeZero);
}

TEST(VtDomain, ScaledRealModeSleepsApproximately) {
  Domain dom(Mode::ScaledReal, /*real_scale=*/1e-6);  // 1s virtual -> 1us real
  AttachGuard guard(dom);
  dom.sleep_for(from_seconds(1));
  EXPECT_GE(dom.now(), from_seconds(1));
}

TEST(VtQueue, CloseWakesConsumers) {
  Domain dom;
  VtQueue<int> q(dom);
  std::atomic<int> nulls{0};
  {
    dom.hold();
    std::vector<Thread> consumers;
    for (int i = 0; i < 4; ++i) {
      consumers.emplace_back(dom, [&] {
        if (!q.pop().has_value()) nulls.fetch_add(1);
      });
    }
    Thread closer(dom, [&] {
      dom.sleep_for(from_millis(1));
      q.close();
    });
    dom.unhold();
  }
  EXPECT_EQ(nulls.load(), 4);
}

TEST(VtQueue, DrainsRemainingItemsAfterClose) {
  Domain dom;
  AttachGuard guard(dom);
  VtQueue<int> q(dom);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(VtQueue, FifoOrderUnderSingleConsumer) {
  Domain dom;
  VtQueue<int> q(dom);
  std::vector<int> seen;
  {
    Thread consumer(dom, [&] {
      while (auto v = q.pop()) seen.push_back(*v);
    });
    Thread producer(dom, [&] {
      for (int i = 0; i < 100; ++i) q.push(i);
      q.close();
    });
  }
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(VtDomain, HoldBlocksAdvanceUntilReleased) {
  Domain dom;
  TimePoint sleeper_end{};
  dom.hold();
  Thread sleeper(dom, [&] {
    dom.sleep_for(from_millis(1));
    sleeper_end = dom.now();
  });
  // While held, the clock cannot advance; give the sleeper a moment to
  // park (real time, not virtual).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(dom.now(), kTimeZero);
  dom.unhold();
  sleeper.join();
  EXPECT_EQ(sleeper_end, from_millis(1));
}

TEST(VtDomain, NestedHoldsRequireAllReleases) {
  Domain dom;
  dom.hold();
  dom.hold();
  Thread sleeper(dom, [&] { dom.sleep_for(from_millis(1)); });
  dom.unhold();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dom.now(), kTimeZero);  // still one hold outstanding
  dom.unhold();
  sleeper.join();
  EXPECT_EQ(dom.now(), from_millis(1));
}

TEST(VtDomain, IdleGuardLetsClockAdvancePastExternalBlocking) {
  Domain dom;
  std::promise<void> external;
  auto fut = external.get_future();
  TimePoint worker_end{};
  {
    dom.hold();
    Thread blocker(dom, [&] {
      // Blocking on a non-vt primitive without IdleGuard would freeze the
      // clock for everyone.
      IdleGuard idle;
      fut.wait();
    });
    Thread worker(dom, [&] {
      dom.sleep_for(from_millis(3));
      worker_end = dom.now();
      external.set_value();
    });
    dom.unhold();
  }
  EXPECT_EQ(worker_end, from_millis(3));
}

TEST(VtDomain, CurrentReflectsAttachment) {
  Domain dom;
  EXPECT_EQ(Domain::current(), nullptr);
  {
    AttachGuard guard(dom);
    EXPECT_EQ(Domain::current(), &dom);
  }
  EXPECT_EQ(Domain::current(), nullptr);
}

TEST(VtDomain, ScaledRealModeMatchesVirtualOrdering) {
  // The same pipeline in ScaledReal mode produces the same event ordering
  // (a sanity cross-check that the virtual clock does not distort shapes).
  for (Mode mode : {Mode::Virtual, Mode::ScaledReal}) {
    Domain dom(mode, /*real_scale=*/1e-5);
    VtQueue<int> q(dom);
    std::vector<int> seen;
    {
      dom.hold();
      Thread consumer(dom, [&] {
        while (auto v = q.pop()) seen.push_back(*v);
      });
      Thread producer(dom, [&] {
        for (int i = 0; i < 10; ++i) {
          dom.sleep_for(from_millis(1));
          q.push(i);
        }
        q.close();
      });
      dom.unhold();
    }
    ASSERT_EQ(seen.size(), 10u) << (mode == Mode::Virtual ? "virtual" : "scaled-real");
    for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  }
}

// ---------------------------------------------------------------------------
// CalendarQueue: the two-level timer wheel behind the Domain and TaskRunner.

TEST(CalendarQueue, PopDueSortsByDeadlineThenInsertionOrder) {
  CalendarQueue<int> q(/*bucket_width_ns=*/100, /*buckets=*/16);
  q.insert(500, 1);
  q.insert(200, 2);
  q.insert(500, 3);
  q.insert(200, 4);
  std::vector<CalendarQueue<int>::Entry> out;
  q.pop_due(500, out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].value, 2);  // deadline 200, inserted first
  EXPECT_EQ(out[1].value, 4);  // deadline 200, inserted second
  EXPECT_EQ(out[2].value, 1);  // deadline 500, inserted first
  EXPECT_EQ(out[3].value, 3);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PopDueLeavesLaterEntries) {
  CalendarQueue<int> q(100, 16);
  q.insert(150, 1);
  q.insert(151, 2);  // same bucket as 150, not yet due
  std::vector<CalendarQueue<int>::Entry> out;
  q.pop_due(150, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.earliest().value(), 151);
}

TEST(CalendarQueue, OverflowMigratesAsFrontierAdvances) {
  CalendarQueue<int> q(100, 4);  // horizon = 400ns
  q.insert(50, 1);
  q.insert(10'000, 2);  // far beyond the horizon: parked in overflow
  EXPECT_EQ(q.earliest().value(), 50);
  std::vector<CalendarQueue<int>::Entry> out;
  q.pop_due(50, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 1);
  EXPECT_EQ(q.earliest().value(), 10'000);
  out.clear();
  q.pop_due(10'000, out);  // frontier jumps a full horizon; entry migrates in
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 2);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EraseCancelsInRingAndOverflow) {
  CalendarQueue<int> q(100, 4);
  const u64 near = q.insert(120, 1);
  const u64 far = q.insert(50'000, 2);
  EXPECT_TRUE(q.erase(120, near));
  EXPECT_TRUE(q.erase(50'000, far));
  EXPECT_FALSE(q.erase(120, near));  // already gone: no-op
  EXPECT_TRUE(q.empty());
  std::vector<CalendarQueue<int>::Entry> out;
  q.pop_due(100'000, out);
  EXPECT_TRUE(out.empty());
}

TEST(CalendarQueue, PastDeadlineInsertIsStillPopped) {
  CalendarQueue<int> q(100, 4);
  std::vector<CalendarQueue<int>::Entry> out;
  q.insert(900, 1);
  q.pop_due(900, out);  // frontier now at 900
  out.clear();
  q.insert(10, 2);  // behind the frontier: clamped, must not be lost
  EXPECT_EQ(q.earliest().value(), 10);
  q.pop_due(900, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 2);
  EXPECT_EQ(out[0].deadline, 10);
}

TEST(CalendarQueue, MatchesMultimapReferenceOnRandomOps) {
  // Drive identical random insert/pop sequences into the wheel and a
  // multimap; every pop must yield the same (deadline, seq) sequence. This
  // is the determinism contract the chaos replay suite leans on.
  CalendarQueue<int> q(64, 8);  // tiny wheel: maximum overflow churn
  std::multimap<std::pair<i64, u64>, int> ref;
  Rng rng(20260809);
  i64 now = 0;
  u64 next_seq = 0;
  for (int round = 0; round < 2000; ++round) {
    const int inserts = static_cast<int>(rng.below(4));
    for (int i = 0; i < inserts; ++i) {
      // Mix near-future, same-instant, and far-overflow deadlines.
      const i64 deadline = now + static_cast<i64>(rng.below(3) == 0 ? rng.below(20'000)
                                                                    : rng.below(300));
      const u64 seq = q.insert(deadline, round);
      EXPECT_EQ(seq, next_seq);
      ref.emplace(std::make_pair(std::max(deadline, i64{0}), next_seq), round);
      ++next_seq;
    }
    now += static_cast<i64>(rng.below(400));
    std::vector<CalendarQueue<int>::Entry> out;
    q.pop_due(now, out);
    std::vector<std::pair<i64, u64>> expect;
    while (!ref.empty() && ref.begin()->first.first <= now) {
      expect.push_back(ref.begin()->first);
      ref.erase(ref.begin());
    }
    ASSERT_EQ(out.size(), expect.size()) << "round " << round;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].seq, expect[i].second) << "round " << round;
    }
  }
  EXPECT_EQ(q.size(), ref.size());
}

// ---------------------------------------------------------------------------
// The Domain's calendar sleeper queue across its ring horizon.

TEST(VtDomain, SleepsSpanningWheelHorizonWakeInOrder) {
  // Durations straddle the calendar's ~67ms ring horizon, so the sleeper
  // queue exercises overflow parking + migration.
  Domain dom;
  const double millis[] = {100.0, 1.0, 500.0, 0.01, 67.0, 200.0, 3.5, 1000.0};
  std::mutex mu;
  std::vector<double> order;
  {
    std::vector<Thread> threads;
    HoldGuard hold(dom);
    for (double ms : millis) {
      threads.emplace_back(dom, [&, ms] {
        dom.sleep_for(from_millis(ms));
        std::scoped_lock lock(mu);
        order.push_back(ms);
      });
    }
  }
  std::vector<double> expect(std::begin(millis), std::end(millis));
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(order, expect);
  EXPECT_EQ(dom.now(), from_millis(1000.0));
}

TEST(VtDomain, ClockStatsCountAdvancesAndWakes) {
  Domain dom;
  AttachGuard guard(dom);
  for (int i = 0; i < 5; ++i) dom.sleep_for(from_millis(1));
  const Domain::ClockStats stats = dom.clock_stats();
  EXPECT_EQ(stats.advances, 5u);
  EXPECT_EQ(stats.events_dispatched, 5u);
  EXPECT_EQ(stats.sleepers_peak, 1u);
}

TEST(VtDomain, StressManyThreadsHorizonCrossingSleeps) {
  // TSan target: concurrent sleeps whose durations are scattered across the
  // wheel ring, the overflow map, and same-instant collisions.
  Domain dom;
  std::atomic<int> completed{0};
  {
    std::vector<Thread> threads;
    HoldGuard hold(dom);
    for (int t = 0; t < 12; ++t) {
      threads.emplace_back(dom, [&dom, &completed, t] {
        Rng rng(static_cast<u64>(t) + 977);
        for (int i = 0; i < 40; ++i) {
          switch (rng.below(3)) {
            case 0: dom.sleep_for(from_micros(static_cast<double>(rng.below(500) + 1))); break;
            case 1: dom.sleep_for(from_millis(static_cast<double>(rng.below(60) + 1))); break;
            default: dom.sleep_for(from_millis(static_cast<double>(rng.below(300) + 67))); break;
          }
        }
        completed.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(completed.load(), 12);
  const Domain::ClockStats stats = dom.clock_stats();
  EXPECT_GE(stats.events_dispatched, 12u * 40u);
  EXPECT_GE(stats.sleepers_peak, 1u);
}

// ---------------------------------------------------------------------------
// Alarm: the cancellable one-shot deadline the TaskRunner pump parks on.

TEST(VtAlarm, DeadlineReachedReturnsTrue) {
  Domain dom;
  AttachGuard guard(dom);
  Alarm alarm(dom);
  EXPECT_TRUE(alarm.wait_until(from_millis(5)));
  EXPECT_EQ(dom.now(), from_millis(5));
}

TEST(VtAlarm, PastDeadlineReturnsImmediately) {
  Domain dom;
  AttachGuard guard(dom);
  dom.sleep_for(from_millis(2));
  Alarm alarm(dom);
  EXPECT_TRUE(alarm.wait_until(from_millis(1)));
  EXPECT_EQ(dom.now(), from_millis(2));
}

TEST(VtAlarm, CancelLatchesForNextWait) {
  Domain dom;
  AttachGuard guard(dom);
  Alarm alarm(dom);
  alarm.cancel();
  EXPECT_FALSE(alarm.wait_until(from_seconds(100)));
  EXPECT_EQ(dom.now(), kTimeZero);  // returned without sleeping
  // The latch is one-shot: the next wait runs to its deadline.
  EXPECT_TRUE(alarm.wait_until(from_millis(1)));
}

TEST(VtAlarm, CancelWhileParkedWakesAtCancelInstant) {
  Domain dom;
  Alarm alarm(dom);
  bool reached = true;
  TimePoint woke{};
  {
    dom.hold();
    Thread waiter(dom, [&] {
      reached = alarm.wait_until(from_seconds(100));
      woke = dom.now();
    });
    Thread canceller(dom, [&] {
      dom.sleep_for(from_millis(2));
      alarm.cancel();
    });
    dom.unhold();
  }
  EXPECT_FALSE(reached);
  EXPECT_EQ(woke, from_millis(2));
  // The 100s deadline was erased from the queue, not left to fire.
  EXPECT_EQ(dom.now(), from_millis(2));
}

TEST(VtAlarm, ScaledRealDeadlineAndLatchedCancel) {
  Domain dom(Mode::ScaledReal, /*real_scale=*/1e-6);
  AttachGuard guard(dom);
  Alarm alarm(dom);
  EXPECT_TRUE(alarm.wait_until(dom.now() + from_millis(1)));
  alarm.cancel();
  EXPECT_FALSE(alarm.wait_until(dom.now() + from_seconds(1000)));
}

TEST(VtAlarm, StressWaitCancelRaces) {
  // A waiter loops short alarm waits while a canceller fires at random
  // virtual offsets: every wait must terminate with a coherent verdict
  // (cancelled => before the deadline). TSan target.
  Domain dom;
  Alarm alarm(dom);
  int cancelled = 0;
  int reached = 0;
  {
    dom.hold();
    Thread waiter(dom, [&] {
      for (int i = 0; i < 200; ++i) {
        const TimePoint deadline = dom.now() + from_micros(120);
        if (alarm.wait_until(deadline)) {
          ++reached;
          EXPECT_GE(dom.now(), deadline);
        } else {
          ++cancelled;
          EXPECT_LT(dom.now(), deadline);
        }
      }
    });
    Thread canceller(dom, [&] {
      Rng rng(31337);
      for (int i = 0; i < 150; ++i) {
        dom.sleep_for(from_micros(static_cast<double>(rng.below(200) + 1)));
        alarm.cancel();
      }
    });
    dom.unhold();
  }
  EXPECT_EQ(cancelled + reached, 200);
}

// ---------------------------------------------------------------------------
// Timer: callbacks the clock engine runs itself at quiescence.

TEST(VtTimer, FiresAtItsOwnInstantAndBeforeATiedSleeper) {
  Domain dom;
  std::mutex mu;
  std::vector<std::pair<std::string, TimePoint>> seen;
  const auto record = [&](const char* what) {
    std::scoped_lock lk(mu);
    seen.emplace_back(what, dom.now());
  };
  Timer between(dom, [&] { record("timer@3"); });
  Timer tied(dom, [&] { record("timer@5"); });
  between.arm(from_millis(3));
  tied.arm(from_millis(5));
  {
    dom.hold();
    Thread sleeper(dom, [&] {
      dom.sleep_until(from_millis(1));
      record("sleeper@1");
      dom.sleep_until(from_millis(5));
      record("sleeper@5");
    });
    dom.unhold();
  }
  const std::vector<std::pair<std::string, TimePoint>> want = {
      {"sleeper@1", from_millis(1)},
      {"timer@3", from_millis(3)},  // between the two sleeps, at its deadline
      {"timer@5", from_millis(5)},  // ties with the sleeper and runs first
      {"sleeper@5", from_millis(5)}};
  EXPECT_EQ(seen, want);
}

TEST(VtTimer, PendingTimersAloneDoNotMoveTheClock) {
  Domain dom;
  std::atomic<int> fired{0};
  Timer timer(dom, [&] { fired.fetch_add(1); });
  timer.arm(from_millis(1));
  AttachGuard guard(dom);
  {
    // The only attached thread idles: the domain is quiescent with nothing
    // but the timer pending, and the clock stays put.
    IdleGuard idle;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(dom.now(), kTimeZero);
  EXPECT_EQ(fired.load(), 0);
  // Sleeping past it runs it, on this thread, at its instant.
  dom.sleep_for(from_millis(2));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(dom.now(), from_millis(2));
}

TEST(VtTimer, CancelWaitsOutARunningCallbackAndDisarms) {
  Domain dom;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> runs{0};
  std::atomic<bool> callback_done{false};
  Timer slow(dom, [&] {
    runs.fetch_add(1);
    entered.set_value();
    released.wait();  // a test-only real block: the clock is pinned meanwhile
    callback_done.store(true);
    slow.arm(dom.now() + from_millis(1));  // re-arms, as a heartbeat does
  });
  std::atomic<int> never{0};
  Timer cancelled(dom, [&] { never.fetch_add(1); });
  slow.arm(from_millis(1));
  cancelled.arm(from_millis(2));
  cancelled.cancel();  // before it is due: it must never fire

  Thread sleeper(dom, [&] { dom.sleep_for(from_millis(5)); });
  entered.get_future().wait();  // the sleeper's advance is inside the callback
  std::atomic<bool> cancel_returned{false};
  bool done_at_return = false;
  std::thread canceller([&] {
    slow.cancel();
    done_at_return = callback_done.load();
    cancel_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(cancel_returned.load());  // still waiting the callback out
  release.set_value();
  canceller.join();
  EXPECT_TRUE(done_at_return);
  sleeper.join();
  // The re-arm at 2 ms was disarmed by the cancel: one run, then nothing.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(never.load(), 0);
  EXPECT_EQ(dom.now(), from_millis(5));
}

TEST(VtTimer, CallbackNotifyWakesAWaiterAtItsInstant) {
  Domain dom;
  std::mutex mu;
  ConditionVariable cv(dom);
  bool ready = false;
  bool waiting = false;
  TimePoint woke{};
  // The callback takes the waiter's mutex. That is legal only while no
  // thread can be advancing the clock with that mutex held: here the
  // waiter is parked before this thread sleeps, so this thread advances.
  Timer timer(dom, [&] {
    std::scoped_lock lk(mu);
    ready = true;
    cv.notify_all();
  });
  timer.arm(from_millis(3));
  AttachGuard guard(dom);
  Thread waiter(dom, [&] {
    std::unique_lock lk(mu);
    waiting = true;
    cv.wait(lk, [&] { return ready; });
    woke = dom.now();
  });
  for (;;) {  // this thread runs throughout, so the clock cannot move yet
    std::scoped_lock lk(mu);
    if (waiting) break;
  }
  dom.sleep_for(from_millis(10));
  waiter.join();
  EXPECT_EQ(woke, from_millis(3));
  EXPECT_EQ(dom.now(), from_millis(10));
}

TEST(VtTimer, ScaledRealTimersFireAndReArm) {
  Domain dom(Mode::ScaledReal, /*real_scale=*/1e-6);
  std::promise<TimePoint> third;
  std::future<TimePoint> fired = third.get_future();
  int runs = 0;  // the Domain's timer thread only
  TimePoint armed_at{};
  Timer timer(dom, [&] {
    if (++runs == 3) {
      third.set_value(dom.now());
      return;
    }
    timer.arm(dom.now() + from_millis(1));
  });
  armed_at = dom.now() + from_millis(1);
  timer.arm(armed_at);
  ASSERT_EQ(fired.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_GE(fired.get(), armed_at + from_millis(2));
}

}  // namespace
}  // namespace gpuvm::vt

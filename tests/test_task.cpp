// Tests for the lightweight-actor event pump (common/task.hpp): ordering,
// drain/stop semantics, determinism, interop with vt::Thread actors, and
// the ScaledReal cross-check.
#include "common/task.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/vt.hpp"

namespace gpuvm::vt {
namespace {

TEST(TaskRunner, SpawnRunsAtCurrentInstant) {
  Domain dom;
  TaskRunner runner(dom);
  TimePoint ran_at{from_seconds(-1)};
  runner.spawn([&](Task& t) { ran_at = t.now(); });
  runner.drain();
  EXPECT_EQ(ran_at, kTimeZero);
  EXPECT_EQ(runner.executed(), 1u);
}

TEST(TaskRunner, DeferAdvancesVirtualTimeExactly) {
  Domain dom;
  TaskRunner runner(dom);
  std::vector<i64> wake_ns;
  runner.spawn([&](Task& t) {
    t.defer(from_millis(3), [&](Task& t2) {
      wake_ns.push_back(t2.now().count());
      t2.defer(from_millis(4), [&](Task& t3) { wake_ns.push_back(t3.now().count()); });
    });
  });
  runner.drain();
  ASSERT_EQ(wake_ns.size(), 2u);
  EXPECT_EQ(wake_ns[0], from_millis(3).count());
  EXPECT_EQ(wake_ns[1], from_millis(7).count());
  EXPECT_EQ(dom.now(), from_millis(7));
}

TEST(TaskRunner, SameInstantStepsRunInPostOrder) {
  // The determinism contract: equal deadlines dispatch in insertion order.
  Domain dom;
  TaskRunner runner(dom);
  std::vector<int> order;
  runner.spawn([&](Task& t) {
    for (int i = 0; i < 8; ++i) {
      t.at(from_millis(5), [&order, i](Task&) { order.push_back(i); });
    }
  });
  runner.drain();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(TaskRunner, ActorChainsInterleaveByDeadline) {
  // Two self-re-arming actors with coprime periods: the merged execution
  // order must be the merge-sort of their timelines.
  Domain dom;
  TaskRunner runner(dom);
  std::vector<std::string> log;
  struct Actor {
    std::vector<std::string>* log;
    const char* name;
    Duration period;
    int remaining;
    void step(Task& t) {
      log->push_back(std::string(name) + "@" + std::to_string(t.now().count()));
      if (--remaining > 0) {
        t.defer(period, [this](Task& t2) { step(t2); });
      }
    }
  };
  Actor a{&log, "a", from_micros(300), 5};
  Actor b{&log, "b", from_micros(700), 3};
  // Hold while seeding: cross-thread posts land at "wherever the clock is",
  // so without the hold the second spawn could arrive after an advance.
  dom.hold();
  runner.spawn([&](Task& t) { t.defer(a.period, [&a](Task& t2) { a.step(t2); }); });
  runner.spawn([&](Task& t) { t.defer(b.period, [&b](Task& t2) { b.step(t2); }); });
  dom.unhold();
  runner.drain();
  // a fires at 300/600/900/1200/1500us, b at 700/1400/2100us; the pump must
  // dispatch the merge of the two timelines.
  const std::vector<std::string> expect = {
      "a@300000",  "a@600000",  "b@700000",  "a@900000",
      "a@1200000", "b@1400000", "a@1500000", "b@2100000",
  };
  EXPECT_EQ(log, expect);
}

TEST(TaskRunner, DrainWaitsForEveryContinuation) {
  Domain dom;
  TaskRunner runner(dom);
  std::atomic<int> done{0};
  constexpr int kActors = 50;
  for (int i = 0; i < kActors; ++i) {
    runner.spawn([&done, i](Task& t) {
      t.defer(from_micros(static_cast<double>(37 * (i + 1))), [&done](Task& t2) {
        t2.defer(from_micros(11), [&done](Task&) { done.fetch_add(1); });
      });
    });
  }
  runner.drain();
  EXPECT_EQ(done.load(), kActors);
  EXPECT_EQ(runner.pending(), 0u);
  EXPECT_EQ(runner.executed(), static_cast<u64>(kActors) * 3u);
}

TEST(TaskRunner, DrainIsReusable) {
  Domain dom;
  TaskRunner runner(dom);
  int phase1 = 0;
  int phase2 = 0;
  runner.spawn([&](Task& t) { t.defer(from_millis(1), [&](Task&) { ++phase1; }); });
  runner.drain();
  EXPECT_EQ(phase1, 1);
  runner.spawn([&](Task& t) { t.defer(from_millis(1), [&](Task&) { ++phase2; }); });
  runner.drain();
  EXPECT_EQ(phase2, 1);
  EXPECT_EQ(dom.now(), from_millis(2));
}

TEST(TaskRunner, StopAbandonsPendingTimers) {
  Domain dom;
  TaskRunner runner(dom);
  std::atomic<bool> far_ran{false};
  {
    // Attach before spawning and stay attached while stopping: a running
    // attached thread pins the clock, so the pump's 3600s alarm cannot fire
    // before the cancel lands. Attaching only after spawn left a window in
    // which the pump ran the seed step, parked on that alarm and, with no
    // other thread attached, the clock jumped to it.
    AttachGuard guard(dom);
    runner.spawn([&](Task& t) {
      t.defer(from_seconds(3600), [&](Task&) { far_ran.store(true); });
    });
    // Let the seed step execute so the far timer is actually queued.
    dom.sleep_for(from_micros(1));
    runner.stop();
  }
  EXPECT_FALSE(far_ran.load());
  EXPECT_EQ(runner.executed(), 1u);  // the seed step only
  EXPECT_LT(dom.now(), from_seconds(3600));
}

TEST(TaskRunner, DeterministicAcrossRuns) {
  // The same actor program produces the same execution log, twice.
  const auto run = [] {
    Domain dom;
    TaskRunner runner(dom);
    std::vector<i64> log;
    struct Worker {
      std::vector<i64>* log;
      int id;
      int left;
      void step(Task& t) {
        log->push_back(t.now().count() * 16 + id);
        if (--left > 0) {
          t.defer(from_micros(static_cast<double>(90 + 13 * id)),
                  [this](Task& t2) { step(t2); });
        }
      }
    };
    std::vector<Worker> workers;
    workers.reserve(6);
    for (int id = 0; id < 6; ++id) workers.push_back(Worker{&log, id, 20});
    dom.hold();  // seed all actors at instant 0 (see ActorChains test)
    for (auto& w : workers) {
      runner.spawn([&w](Task& t) { w.step(t); });
    }
    dom.unhold();
    runner.drain();
    return log;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 120u);
}

TEST(TaskRunner, ComposesWithVtThreadsInSameDomain) {
  // A thread-per-actor participant and a task pump share one domain: the
  // clock serves both, and virtual timestamps interleave correctly.
  Domain dom;
  TaskRunner runner(dom);
  std::mutex mu;
  std::vector<std::pair<char, i64>> log;
  const auto record = [&](char who, i64 ns) {
    std::scoped_lock lock(mu);
    log.emplace_back(who, ns);
  };
  struct Pumped {
    const std::function<void(char, i64)>* rec;
    int left;
    void step(Task& t) {
      (*rec)(char('k'), t.now().count());
      if (--left > 0) t.defer(from_millis(3), [this](Task& t2) { step(t2); });
    }
  };
  const std::function<void(char, i64)> rec = record;
  Pumped pumped{&rec, 2};
  {
    dom.hold();  // both actors must observe the same virtual start
    runner.spawn([&pumped](Task& t) {
      t.defer(from_millis(3), [&pumped](Task& t2) { pumped.step(t2); });
    });
    Thread legacy_actor(dom, [&] {
      for (int i = 0; i < 3; ++i) {
        dom.sleep_for(from_millis(2));
        record('t', dom.now().count());
      }
    });
    dom.unhold();
    runner.drain();
  }
  std::vector<std::pair<char, i64>> expect = {
      {'t', from_millis(2).count()},
      {'k', from_millis(3).count()},
      {'t', from_millis(4).count()},
      {'t', from_millis(6).count()},
      {'k', from_millis(6).count()},
  };
  // At 6ms both actors fire; their relative dispatch order is a thread-race,
  // so compare under a total (time, who) order.
  const auto by_time_then_who = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  };
  std::sort(log.begin(), log.end(), by_time_then_who);
  std::sort(expect.begin(), expect.end(), by_time_then_who);
  EXPECT_EQ(log, expect);
}

TEST(TaskRunner, CrossThreadPostsLand) {
  // Posts from a foreign vt::Thread (not a pump callback) are the
  // cross-thread path: mutex-protected, wake the pump out of idle or park.
  Domain dom;
  TaskRunner runner(dom);
  std::atomic<int> ran{0};
  {
    Thread producer(dom, [&] {
      for (int i = 0; i < 20; ++i) {
        dom.sleep_for(from_micros(150));
        runner.post_after(from_micros(50), [&ran] { ran.fetch_add(1); });
      }
    });
  }
  runner.drain();
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskRunner, PostsBeyondWheelHorizonFire) {
  // Deadlines past the calendar's ~67ms ring land in overflow and must
  // still fire in order once the frontier reaches them.
  Domain dom;
  TaskRunner runner(dom);
  std::vector<double> order;
  runner.spawn([&](Task& t) {
    t.defer(from_seconds(2.0), [&](Task&) { order.push_back(2.0); });
    t.defer(from_millis(1.0), [&](Task&) { order.push_back(0.001); });
    t.defer(from_seconds(10.0), [&](Task&) { order.push_back(10.0); });
    t.defer(from_millis(500.0), [&](Task&) { order.push_back(0.5); });
  });
  runner.drain();
  const std::vector<double> expect = {0.001, 0.5, 2.0, 10.0};
  EXPECT_EQ(order, expect);
  EXPECT_EQ(dom.now(), from_seconds(10.0));
}

TEST(TaskRunner, ScaledRealModeMatchesVirtualCausality) {
  // The same actor program under the ScaledReal clock (real scaled sleeps)
  // executes the same steps with each actor's chain in the same order -- the
  // cross-check that the discrete-event fast path does not lose, duplicate,
  // or causally reorder events. (Global interleaving across independent
  // actors is wall-jitter-dependent in ScaledReal mode, so only per-chain
  // order is asserted.)
  const auto run = [](Mode mode) {
    Domain dom(mode, /*real_scale=*/1e-5);
    TaskRunner runner(dom);
    std::vector<int> order;
    for (int id = 0; id < 4; ++id) {
      runner.spawn([&order, id](Task& t) {
        t.defer(from_millis(static_cast<double>(1 + id * 2)),
                [&order, id](Task& t2) {
                  order.push_back(id * 10);
                  t2.defer(from_millis(static_cast<double>(8 - id)),
                           [&order, id](Task&) { order.push_back(id * 10 + 1); });
                });
      });
    }
    runner.drain();
    return order;
  };
  const auto per_chain = [](const std::vector<int>& order, int id) {
    std::vector<int> chain;
    for (int v : order) {
      if (v / 10 == id) chain.push_back(v);
    }
    return chain;
  };
  const auto virt = run(Mode::Virtual);
  const auto scaled = run(Mode::ScaledReal);
  ASSERT_EQ(virt.size(), 8u);
  ASSERT_EQ(scaled.size(), 8u);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(per_chain(virt, id), per_chain(scaled, id)) << "actor " << id;
  }
}

TEST(TaskRunner, DispatchCountsFoldIntoDomainStats) {
  Domain dom;
  TaskRunner runner(dom);
  runner.spawn([](Task& t) {
    t.defer(from_millis(1), [](Task& t2) { t2.defer(from_millis(1), [](Task&) {}); });
  });
  runner.drain();
  EXPECT_EQ(runner.executed(), 3u);
  EXPECT_GE(dom.clock_stats().events_dispatched, 3u);
}

}  // namespace
}  // namespace gpuvm::vt

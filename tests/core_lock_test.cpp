// Behavioural tests for ConfigurableLock on the deterministic simulator:
// every scheduler kind, every waiting policy, reconfiguration semantics
// (including the configuration delay), advisory locks, active locks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/sim/machine.hpp"

namespace relock {
namespace {

using sim::Machine;
using sim::MachineParams;
using sim::ProcId;
using sim::SimPlatform;
using sim::Thread;

using Lock = ConfigurableLock<SimPlatform>;

Lock::Options with_scheduler(SchedulerKind k,
                             LockAttributes a = LockAttributes::spin()) {
  Lock::Options o;
  o.scheduler = k;
  o.attributes = a;
  o.placement = Placement::on(0);
  o.monitor_enabled = true;
  return o;
}

// ------------------------------------------------------------------------
// Mutual exclusion across the configuration space (parameterized sweep).
// ------------------------------------------------------------------------

struct MutexCase {
  SchedulerKind sched;
  LockAttributes attrs;
  const char* name;
};

class MutualExclusionSweep : public ::testing::TestWithParam<MutexCase> {};

TEST_P(MutualExclusionSweep, NoTwoThreadsInCriticalSection) {
  const auto& param = GetParam();
  Machine m(MachineParams::test_machine(8));
  Lock lock(m, with_scheduler(param.sched, param.attrs));
  int in_cs = 0, max_in_cs = 0;
  std::uint64_t total = 0;
  constexpr int kThreads = 6, kIters = 15;
  for (int i = 0; i < kThreads; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < kIters; ++j) {
        ASSERT_TRUE(lock.lock(t));
        max_in_cs = std::max(max_in_cs, ++in_cs);
        m.compute(t, 40);
        ++total;
        --in_cs;
        lock.unlock(t);
        m.compute(t, 25);
      }
    });
  }
  m.run();
  EXPECT_EQ(max_in_cs, 1);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kIters));
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.acquisitions, total);
  EXPECT_EQ(s.releases, total);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, MutualExclusionSweep,
    ::testing::Values(
        MutexCase{SchedulerKind::kNone, LockAttributes::spin(), "cent_spin"},
        MutexCase{SchedulerKind::kNone, LockAttributes::backoff_spin(500),
                  "cent_backoff"},
        MutexCase{SchedulerKind::kNone, LockAttributes::blocking(),
                  "cent_blocking"},
        MutexCase{SchedulerKind::kNone, LockAttributes::combined(5, 2000),
                  "cent_combined"},
        // Degenerate (0, 0, 0, 0): no spin and no sleep phase. Every round
        // must still probe once, or the waiter never sees the lock.
        MutexCase{SchedulerKind::kNone, LockAttributes{0, 0, 0, 0},
                  "cent_degenerate"},
        MutexCase{SchedulerKind::kFcfs, LockAttributes::spin(), "fcfs_spin"},
        MutexCase{SchedulerKind::kFcfs, LockAttributes::blocking(),
                  "fcfs_blocking"},
        MutexCase{SchedulerKind::kFcfs, LockAttributes::combined(10, 3000),
                  "fcfs_combined"},
        MutexCase{SchedulerKind::kFcfs, LockAttributes{0, 0, 0, 0},
                  "fcfs_degenerate"},
        MutexCase{SchedulerKind::kPriorityQueue, LockAttributes::spin(),
                  "prioq_spin"},
        MutexCase{SchedulerKind::kPriorityThreshold, LockAttributes::spin(),
                  "thresh_spin"},
        MutexCase{SchedulerKind::kHandoff, LockAttributes::spin(),
                  "handoff_spin"},
        MutexCase{SchedulerKind::kHandoff, LockAttributes::blocking(),
                  "handoff_blocking"}),
    [](const ::testing::TestParamInfo<MutexCase>& param_info) {
      return param_info.param.name;
    });

// ------------------------------------------------------------------------
// Scheduler behaviours.
// ------------------------------------------------------------------------

// Spawns a holder on proc 0 that keeps the lock while `n` waiters (procs
// 1..n) queue in a staggered, known arrival order; returns grant order.
template <typename Setup>
std::vector<int> grant_order(Lock::Options opts, int n, Setup setup,
                             Nanos hold = 400'000) {
  auto m = std::make_unique<Machine>(MachineParams::test_machine(
      static_cast<std::uint32_t>(n + 1)));
  Lock lock(*m, opts);
  std::vector<int> order;
  m->spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m->compute(t, hold);
    lock.unlock(t);
  });
  for (int i = 1; i <= n; ++i) {
    m->spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      setup(lock, t, i);  // per-waiter priority etc.
      m->compute(t, static_cast<Nanos>(3000 * i));  // staggered arrival
      ASSERT_TRUE(lock.lock(t));
      order.push_back(i);
      m->compute(t, 1000);
      lock.unlock(t);
    });
  }
  m->run();
  return order;
}

TEST(FcfsScheduler, GrantsInArrivalOrder) {
  const auto order = grant_order(with_scheduler(SchedulerKind::kFcfs), 6,
                                 [](Lock&, Thread&, int) {});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(PriorityQueueScheduler, GrantsHighestPriorityFirst) {
  // Waiter i has priority i: highest arrives last but is granted first.
  const auto order =
      grant_order(with_scheduler(SchedulerKind::kPriorityQueue), 5,
                  [](Lock&, Thread& t, int i) { t.set_priority(i); });
  EXPECT_EQ(order, (std::vector<int>{5, 4, 3, 2, 1}));
}

TEST(PriorityQueueScheduler, FifoAmongEqualPriorities) {
  const auto order =
      grant_order(with_scheduler(SchedulerKind::kPriorityQueue), 4,
                  [](Lock&, Thread& t, int) { t.set_priority(7); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(HandoffScheduler, FollowsReleaserHints) {
  // Holder hands off to 3; 3 hands to 1; 1 hands to 2 (the remaining one).
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kHandoff));
  std::vector<int> order;
  std::vector<ThreadId> tids(4, kInvalidThread);
  m.spawn(0, [&](Thread& t) {
    tids[0] = t.self();
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 300'000);  // waiters 1..3 queue meanwhile
    lock.unlock_to(t, tids[3]);
  });
  for (int i = 1; i <= 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      tids[static_cast<std::size_t>(i)] = t.self();
      m.compute(t, static_cast<Nanos>(2000 * i));
      ASSERT_TRUE(lock.lock(t));
      order.push_back(i);
      m.compute(t, 1000);
      if (i == 3) {
        lock.unlock_to(t, tids[1]);
      } else {
        lock.unlock(t);  // no hint: FCFS fallback
      }
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(PriorityThresholdScheduler, BelowThresholdWaitersAreIneligible) {
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kPriorityThreshold));
  std::vector<int> events;
  // Holder raises the threshold above the low waiter's priority before
  // releasing; the low waiter must not be granted until it drops.
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 200'000);          // low (prio 1) and high (prio 10) queue
    lock.set_priority_threshold(t, 5);
    lock.unlock(t);                 // grants high only
    m.compute(t, 400'000);
    events.push_back(99);           // marker: about to drop the threshold
    lock.set_priority_threshold(t, 0);  // re-runs selection on the free lock
  });
  m.spawn(1, [&](Thread& t) {  // low priority
    t.set_priority(1);
    m.compute(t, 3000);
    ASSERT_TRUE(lock.lock(t));
    events.push_back(1);
    lock.unlock(t);
  });
  m.spawn(2, [&](Thread& t) {  // high priority, arrives later
    t.set_priority(10);
    m.compute(t, 6000);
    ASSERT_TRUE(lock.lock(t));
    events.push_back(10);
    lock.unlock(t);
  });
  m.run();
  EXPECT_EQ(events, (std::vector<int>{10, 99, 1}));
}

// ------------------------------------------------------------------------
// Waiting policies.
// ------------------------------------------------------------------------

TEST(WaitingPolicy, BlockingWaitersSleepAndAreWoken) {
  Machine m(MachineParams::test_machine(4));
  Lock lock(m,
            with_scheduler(SchedulerKind::kFcfs, LockAttributes::blocking()));
  std::uint64_t done = 0;
  for (int i = 0; i < 4; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(500 * i));
      ASSERT_TRUE(lock.lock(t));
      m.compute(t, 30'000);
      ++done;
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(done, 4u);
  const LockStats s = lock.monitor().snapshot();
  EXPECT_GE(s.blocks, 3u);
  EXPECT_GE(s.wakeups, 3u);
  EXPECT_EQ(s.spin_probes, 0u) << "pure sleep must not spin";
}

TEST(WaitingPolicy, PureSpinNeverBlocks) {
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs, LockAttributes::spin()));
  for (int i = 0; i < 4; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(500 * i));
      ASSERT_TRUE(lock.lock(t));
      m.compute(t, 30'000);
      lock.unlock(t);
    });
  }
  m.run();
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.blocks, 0u);
  EXPECT_GT(s.spin_probes, 0u);
}

TEST(WaitingPolicy, CombinedSpinsThenSleeps) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs,
                              LockAttributes::combined(5, kForever)));
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 500'000);  // long: waiter exhausts its 5 probes and sleeps
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  const LockStats s = lock.monitor().snapshot();
  EXPECT_GT(s.spin_probes, 0u);
  EXPECT_GE(s.blocks, 1u);
}

TEST(WaitingPolicy, ConditionalLockTimesOut) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  bool got = true;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 500'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2000);
    got = lock.lock_for(t, 50'000);  // expires well before the release
  });
  m.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(lock.monitor().snapshot().timeouts, 1u);
}

TEST(WaitingPolicy, ConditionalLockSucceedsWithinTimeout) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  bool got = false;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 20'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2000);
    got = lock.lock_for(t, 10'000'000);
    if (got) lock.unlock(t);
  });
  m.run();
  EXPECT_TRUE(got);
}

TEST(WaitingPolicy, TimeoutAttributeMakesPlainLockConditional) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs,
                              LockAttributes::conditional(30'000)));
  bool got = true;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 500'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2000);
    got = lock.lock(t);  // attribute timeout applies
  });
  m.run();
  EXPECT_FALSE(got);
}

TEST(WaitingPolicy, CentralizedSleepersAreWokenOnRelease) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m,
            with_scheduler(SchedulerKind::kNone, LockAttributes::blocking()));
  std::uint64_t done = 0;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(400 * i));
      ASSERT_TRUE(lock.lock(t));
      m.compute(t, 25'000);
      ++done;
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(done, 3u);
  EXPECT_GE(lock.monitor().snapshot().blocks, 1u);
}

TEST(WaitingPolicy, PerThreadOverrideControlsWaiting) {
  // Thread 1 overridden to blocking while the lock-wide policy is spin:
  // only thread 1 should ever block.
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs, LockAttributes::spin()));
  ThreadId special = kInvalidThread;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 300'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    special = t.self();
    lock.set_thread_attributes(t, t.self(), LockAttributes::blocking());
    m.compute(t, 2000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.spawn(2, [&](Thread& t) {
    m.compute(t, 4000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  EXPECT_GE(lock.monitor().snapshot().blocks, 1u);
  // The spinner (thread 2) contributes probes; the sleeper contributes
  // blocks. Both completed, so the mixed policies coexisted.
  EXPECT_GT(lock.monitor().snapshot().spin_probes, 0u);
}

// ------------------------------------------------------------------------
// try_lock / recursion.
// ------------------------------------------------------------------------

TEST(TryLock, FailsWhenHeldSucceedsWhenFree) {
  Machine m(MachineParams::test_machine(2));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  bool a = false, b = true, c = false;
  m.spawn(0, [&](Thread& t) {
    a = lock.try_lock(t);
    b = lock.try_lock(t);
    lock.unlock(t);
    c = lock.try_lock(t);
    lock.unlock(t);
  });
  m.run();
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_TRUE(c);
}

TEST(RecursiveLock, OwnerReentersWithoutDeadlock) {
  Machine m(MachineParams::test_machine(2));
  auto opts = with_scheduler(SchedulerKind::kFcfs);
  opts.recursive = true;
  Lock lock(m, opts);
  int depth_seen = 0;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    ASSERT_TRUE(lock.lock(t));  // re-entry
    ASSERT_TRUE(lock.lock(t));
    depth_seen = 3;
    lock.unlock(t);
    lock.unlock(t);
    // Still held here: another thread must not be able to take it.
    EXPECT_FALSE(lock.try_lock(t) && false);  // placeholder, see below
    lock.unlock(t);
  });
  m.run();
  EXPECT_EQ(depth_seen, 3);
}

TEST(RecursiveLock, FullyReleasedAfterBalancedUnlocks) {
  Machine m(MachineParams::test_machine(2));
  auto opts = with_scheduler(SchedulerKind::kFcfs);
  opts.recursive = true;
  Lock lock(m, opts);
  bool other_got = false;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 50'000);
    lock.unlock(t);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 200'000);  // after full release
    other_got = lock.try_lock(t);
    if (other_got) lock.unlock(t);
  });
  m.run();
  EXPECT_TRUE(other_got);
}

// ------------------------------------------------------------------------
// Advisory locks.
// ------------------------------------------------------------------------

TEST(AdvisoryLock, SleepAdviceMakesSpinnersBlock) {
  Machine m(MachineParams::test_machine(3));
  auto opts = with_scheduler(SchedulerKind::kFcfs, LockAttributes::spin());
  opts.advisory = true;
  Lock lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.advise(t, Advice::kSleep);  // long critical section ahead
    m.compute(t, 600'000);
    lock.advise(t, Advice::kSpin);   // nearly done
    m.compute(t, 10'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 3000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  EXPECT_GE(lock.monitor().snapshot().blocks, 1u)
      << "spin-configured waiter should have slept on the owner's advice";
}

TEST(AdvisoryLock, SpinAdviceKeepsBlockersSpinning) {
  Machine m(MachineParams::test_machine(3));
  auto opts = with_scheduler(SchedulerKind::kFcfs, LockAttributes::blocking());
  opts.advisory = true;
  Lock lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.advise(t, Advice::kSpin);  // short critical section
    m.compute(t, 30'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 3000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.blocks, 0u);
  EXPECT_GT(s.spin_probes, 0u);
}

// ------------------------------------------------------------------------
// Reconfiguration.
// ------------------------------------------------------------------------

TEST(Reconfigure, WaitingPolicyChangeAffectsSubsequentWaiters) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs, LockAttributes::spin()));
  m.spawn(0, [&](Thread& t) {
    lock.configure_waiting(t, LockAttributes::blocking());
    EXPECT_EQ(classify(lock.attributes()), WaitingKind::kPureSleep);
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 300'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 5000);
    ASSERT_TRUE(lock.lock(t));  // registered after the change: blocks
    lock.unlock(t);
  });
  m.run();
  EXPECT_GE(lock.monitor().snapshot().blocks, 1u);
  EXPECT_GE(lock.monitor().snapshot().reconfigurations, 1u);
}

TEST(Reconfigure, SchedulerChangeInstallsImmediatelyWhenIdle) {
  Machine m(MachineParams::test_machine(2));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  m.spawn(0, [&](Thread& t) {
    lock.configure_scheduler(t, SchedulerKind::kPriorityQueue);
    EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kPriorityQueue);
    EXPECT_FALSE(lock.reconfiguration_pending());
  });
  m.run();
  EXPECT_EQ(lock.monitor().snapshot().scheduler_changes, 1u);
}

TEST(Reconfigure, ConfigurationDelayServesPreRegisteredThreadsFirst) {
  // FCFS queue holds [low(1), high(2)] when the holder switches to a
  // priority scheduler. The pre-registered waiters must still be served in
  // FCFS order; a later waiter (highest priority of all, but also a later
  // arrival) is served from the new scheduler afterwards.
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  std::vector<int> order;
  bool pending_during = false, pending_after = true;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 100'000);  // waiters 1 (prio 1) and 2 (prio 9) queue
    lock.configure_scheduler(t, SchedulerKind::kPriorityQueue);
    pending_during = lock.reconfiguration_pending();
    m.compute(t, 100'000);  // waiter 3 (prio 20) registers with pending
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    t.set_priority(1);
    m.compute(t, 3000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back(1);
    m.compute(t, 1000);
    lock.unlock(t);
  });
  m.spawn(2, [&](Thread& t) {
    t.set_priority(9);
    m.compute(t, 6000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back(2);
    m.compute(t, 1000);
    lock.unlock(t);
  });
  m.spawn(3, [&](Thread& t) {
    t.set_priority(20);
    m.compute(t, 150'000);  // arrives after the configure
    ASSERT_TRUE(lock.lock(t));
    order.push_back(3);
    lock.unlock(t);
    pending_after = lock.reconfiguration_pending();
  });
  m.run();
  // Old FCFS order for pre-registered 1, 2 despite 2's higher priority.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(pending_during);
  EXPECT_FALSE(pending_after);
  EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kPriorityQueue);
}

TEST(Reconfigure, TimeoutAfterPendingQueueModuleIsReplaced) {
  // kFcfs -> kQueue -> kQueue on the simulator, which keeps the
  // configuration delay between the two cell-served kinds. Waiter A queues
  // in the lock's queue cell under kFcfs, timed waiter B behind it under
  // the pending kQueue, and a second configure_scheduler(kQueue) replaces
  // the pending kind before B times out. Neither kind has a module, so B's
  // record names none: the withdrawal must find it in the cell, and A must
  // still be granted.
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  bool a_granted = false, b_got = true;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 50'000);  // waiter A queues in the cell
    lock.configure_scheduler(t, SchedulerKind::kQueue);
    EXPECT_TRUE(lock.reconfiguration_pending());
    m.compute(t, 50'000);  // waiter B queues behind A, under kQueue
    lock.configure_scheduler(t, SchedulerKind::kQueue);
    m.compute(t, 400'000);  // B times out
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 5'000);
    ASSERT_TRUE(lock.lock(t));
    a_granted = true;
    lock.unlock(t);
  });
  m.spawn(2, [&](Thread& t) {
    m.compute(t, 80'000);
    b_got = lock.lock_for(t, 100'000);
  });
  m.run();
  EXPECT_FALSE(b_got);
  EXPECT_TRUE(a_granted);
  EXPECT_EQ(lock.waiter_count(), 0u);
  EXPECT_FALSE(lock.reconfiguration_pending());
  EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kQueue);
}

TEST(Reconfigure, FcfsQueueFlipKeepsTheGrantOrder) {
  // kFcfs and kQueue are one FIFO on every platform: flipping kFcfs ->
  // kQueue -> kFcfs while three waiters are queued (each with a higher
  // priority than the one before) moves nobody. The pre-registered
  // waiters and a later arrival are granted in arrival order, and the
  // simulator's configuration delay completes once the cell empties.
  Machine m(MachineParams::test_machine(5));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 100'000);  // waiters 1..3 queue
    lock.configure_scheduler(t, SchedulerKind::kQueue);
    m.compute(t, 10'000);
    lock.configure_scheduler(t, SchedulerKind::kFcfs);
    m.compute(t, 100'000);  // waiter 4 queues behind them
    lock.unlock(t);
  });
  for (int i = 1; i <= 4; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      t.set_priority(i);
      m.compute(t, i < 4 ? static_cast<Nanos>(3000 * i) : 150'000);
      ASSERT_TRUE(lock.lock(t));
      order.push_back(i);
      m.compute(t, 1000);
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(lock.reconfiguration_pending());
  EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kFcfs);
  EXPECT_EQ(lock.waiter_count(), 0u);
}

TEST(Reconfigure, PossessIsExclusive) {
  Machine m(MachineParams::test_machine(2));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs));
  bool first = false, second = true, after_release = false;
  m.spawn(0, [&](Thread& t) {
    first = lock.try_possess(t, AttributeClass::kWaitingPolicy);
    second = lock.try_possess(t, AttributeClass::kWaitingPolicy);
    // A different attribute class is independently possessable.
    EXPECT_TRUE(lock.try_possess(t, AttributeClass::kScheduler));
    lock.release_possession(t, AttributeClass::kWaitingPolicy);
    after_release = lock.try_possess(t, AttributeClass::kWaitingPolicy);
    lock.release_possession(t, AttributeClass::kWaitingPolicy);
    lock.release_possession(t, AttributeClass::kScheduler);
  });
  m.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_TRUE(after_release);
}

TEST(Reconfigure, ExternalAgentReconfiguresWhileLockInUse) {
  // An external agent (a monitoring thread) possesses the waiting-policy
  // attribute and flips the lock from spin to blocking while worker threads
  // keep acquiring it.
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs, LockAttributes::spin()));
  std::uint64_t done = 0;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 10; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 20'000);
        ++done;
        lock.unlock(t);
        m.compute(t, 5000);
      }
    });
  }
  m.spawn(3, [&](Thread& t) {  // the external agent
    m.compute(t, 100'000);
    lock.possess(t, AttributeClass::kWaitingPolicy);
    lock.configure_waiting(t, LockAttributes::blocking());
    lock.release_possession(t, AttributeClass::kWaitingPolicy);
  });
  m.run();
  EXPECT_EQ(done, 30u);
  EXPECT_EQ(classify(lock.attributes()), WaitingKind::kPureSleep);
  EXPECT_GE(lock.monitor().snapshot().blocks, 1u);
}

// ------------------------------------------------------------------------
// Reader-writer configuration.
// ------------------------------------------------------------------------

Lock::Options rw_options(RwPreference pref = RwPreference::kFifo) {
  auto o = with_scheduler(SchedulerKind::kReaderWriter);
  o.rw_preference = pref;
  o.attributes = LockAttributes::spin();
  return o;
}

TEST(ReaderWriter, ReadersOverlap) {
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, rw_options());
  int readers_in = 0, max_readers = 0;
  for (int i = 0; i < 4; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      ASSERT_TRUE(lock.lock_shared(t));
      max_readers = std::max(max_readers, ++readers_in);
      m.compute(t, 30'000);
      --readers_in;
      lock.unlock_shared(t);
    });
  }
  m.run();
  EXPECT_GE(max_readers, 2);
}

TEST(ReaderWriter, WriterExcludesReaders) {
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, rw_options());
  int readers_in = 0;
  bool writer_in = false, overlap = false;
  for (int i = 0; i < 2; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 5; ++j) {
        ASSERT_TRUE(lock.lock_shared(t));
        ++readers_in;
        if (writer_in) overlap = true;
        m.compute(t, 5000);
        --readers_in;
        lock.unlock_shared(t);
        m.compute(t, 2000);
      }
    });
  }
  m.spawn(2, [&](Thread& t) {
    for (int j = 0; j < 5; ++j) {
      m.compute(t, 3000);
      ASSERT_TRUE(lock.lock(t));
      writer_in = true;
      if (readers_in > 0) overlap = true;
      m.compute(t, 5000);
      writer_in = false;
      lock.unlock(t);
    }
  });
  m.run();
  EXPECT_FALSE(overlap);
}

TEST(ReaderWriter, WriterBatchFollowsReaderBatchFifo) {
  // Holder writer; queue becomes [r, r, w, r]. FIFO preference: the two
  // leading readers are granted together, then the writer, then the tail
  // reader.
  Machine m(MachineParams::test_machine(6));
  Lock lock(m, rw_options(RwPreference::kFifo));
  std::vector<char> order;
  int readers_in = 0;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 400'000);
    lock.unlock(t);
  });
  auto reader = [&](int delay) {
    return [&, delay](Thread& t) {
      m.compute(t, static_cast<Nanos>(delay));
      ASSERT_TRUE(lock.lock_shared(t));
      ++readers_in;
      order.push_back('r');
      m.compute(t, 50'000);
      --readers_in;
      lock.unlock_shared(t);
    };
  };
  m.spawn(1, reader(3000));
  m.spawn(2, reader(6000));
  m.spawn(3, [&](Thread& t) {
    m.compute(t, 9000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back('w');
    EXPECT_EQ(readers_in, 0);
    m.compute(t, 20'000);
    lock.unlock(t);
  });
  m.spawn(4, reader(12'000));
  m.run();
  EXPECT_EQ(order, (std::vector<char>{'r', 'r', 'w', 'r'}));
}

TEST(ReaderWriter, TryLockSharedRespectsWriter) {
  Machine m(MachineParams::test_machine(2));
  Lock lock(m, rw_options());
  bool shared_while_held = true, shared_after = false;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    shared_while_held = lock.try_lock_shared(t);
    lock.unlock(t);
    shared_after = lock.try_lock_shared(t);
    if (shared_after) lock.unlock_shared(t);
  });
  m.run();
  EXPECT_FALSE(shared_while_held);
  EXPECT_TRUE(shared_after);
}

// ------------------------------------------------------------------------
// Active locks.
// ------------------------------------------------------------------------

TEST(ActiveLock, ManagerExecutesReleaseModule) {
  Machine m(MachineParams::test_machine(5));
  auto opts = with_scheduler(SchedulerKind::kFcfs);
  opts.execution = Execution::kActive;
  Lock lock(m, opts);
  std::uint64_t done = 0;
  // Manager thread bound to the lock on a dedicated processor.
  const ThreadId manager =
      m.spawn(4, [&](Thread& t) { lock.serve(t); });
  std::vector<ThreadId> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 8; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 10'000);
        ++done;
        lock.unlock(t);  // posts to the manager
        m.compute(t, 3000);
      }
    }));
  }
  m.spawn(3, [&](Thread& t) {  // coordinator
    for (ThreadId w : workers) m.join(t, w);
    lock.stop_serving(t);
  });
  m.run();
  (void)manager;
  EXPECT_EQ(done, 24u);
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.acquisitions, 24u);
}

// ------------------------------------------------------------------------
// Monitor conservation properties.
// ------------------------------------------------------------------------

TEST(Monitor, CountsBalance) {
  Machine m(MachineParams::test_machine(4));
  Lock lock(m, with_scheduler(SchedulerKind::kFcfs,
                              LockAttributes::combined(3, 5000)));
  for (int i = 0; i < 4; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 10; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 5000);
        lock.unlock(t);
        m.compute(t, 2000);
      }
    });
  }
  m.run();
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.acquisitions, 40u);
  EXPECT_EQ(s.releases, 40u);
  EXPECT_LE(s.contended_acquisitions, s.acquisitions);
  EXPECT_EQ(s.handoffs, s.contended_acquisitions)
      << "every contended acquisition under a scheduler ends in a handoff";
  EXPECT_GT(s.mean_hold_ns(), 0.0);
  if (s.contended_acquisitions > 0) {
    EXPECT_GT(s.mean_wait_ns(), 0.0);
    EXPECT_GE(s.max_wait_ns, static_cast<Nanos>(s.mean_wait_ns()));
  }
}

TEST(Monitor, DisabledMonitorCountsNothing) {
  Machine m(MachineParams::test_machine(2));
  auto opts = with_scheduler(SchedulerKind::kFcfs);
  opts.monitor_enabled = false;
  Lock lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  EXPECT_EQ(lock.monitor().snapshot().acquisitions, 0u);
}

TEST(Monitor, HistogramBucketsAreLog2) {
  EXPECT_EQ(LockMonitor::bucket_of(0), 0u);
  EXPECT_EQ(LockMonitor::bucket_of(1), 0u);
  EXPECT_EQ(LockMonitor::bucket_of(2), 1u);
  EXPECT_EQ(LockMonitor::bucket_of(1023), 9u);
  EXPECT_EQ(LockMonitor::bucket_of(1024), 10u);
  EXPECT_EQ(LockMonitor::bucket_of(~0ULL), LockStats::kBuckets - 1);
}

// ------------------------------------------------------------------------
// Placement / traffic properties (centralized vs. distributed).
// ------------------------------------------------------------------------

TEST(Placement, DistributedWaitingGeneratesLessRemoteTraffic) {
  auto remote_refs = [](WaitPlacement wp, SchedulerKind sk) {
    Machine m(MachineParams::test_machine(8));
    auto opts = with_scheduler(sk);
    opts.wait_placement = wp;
    Lock lock(m, opts);
    for (int i = 0; i < 8; ++i) {
      m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
        m.compute(t, static_cast<Nanos>(100 * i));
        EXPECT_TRUE(lock.lock(t));
        m.compute(t, 20'000);
        lock.unlock(t);
      });
    }
    m.run();
    return m.stats().remote_references();
  };
  const auto distributed =
      remote_refs(WaitPlacement::kWaiterLocal, SchedulerKind::kFcfs);
  const auto centralized =
      remote_refs(WaitPlacement::kLockHome, SchedulerKind::kNone);
  EXPECT_LT(distributed * 2, centralized)
      << "queued waiters spinning on node-local flags must produce far "
         "fewer remote references than centralized spinning";
}

}  // namespace
}  // namespace relock

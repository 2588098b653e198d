// Additional ConfigurableLock scenarios on the simulator: active locks in
// both manager modes, timed advisory sleep, reader/writer preferences,
// timeout bookkeeping, handoff fallbacks, placement statistics, and
// whole-run determinism via the machine trace.
#include <gtest/gtest.h>

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

Lock::Options base_options(SchedulerKind k,
                           LockAttributes a = LockAttributes::spin()) {
  Lock::Options o;
  o.scheduler = k;
  o.attributes = a;
  o.placement = Placement::on(0);
  o.monitor_enabled = true;
  return o;
}

// ----------------------------------------------------------- active ------

TEST(ActiveLockExtra, BlockingManagerMode) {
  // active_polling = false: the manager parks and unlock() must wake it.
  Machine m(MachineParams::test_machine(5));
  auto opts = base_options(SchedulerKind::kFcfs);
  opts.execution = Execution::kActive;
  opts.active_polling = false;
  Lock lock(m, opts);
  std::uint64_t done = 0;
  std::vector<ThreadId> workers;
  m.spawn(4, [&](Thread& t) { lock.serve(t); });
  for (int i = 0; i < 3; ++i) {
    workers.push_back(m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      for (int j = 0; j < 6; ++j) {
        ASSERT_TRUE(lock.lock(t));
        m.compute(t, 5000);
        ++done;
        lock.unlock(t);
        m.compute(t, 2000);
      }
    }));
  }
  m.spawn(3, [&](Thread& t) {
    for (ThreadId w : workers) m.join(t, w);
    lock.stop_serving(t);
  });
  m.run();
  EXPECT_EQ(done, 18u);
}

TEST(ActiveLockExtra, HandoffHintsSurviveTheMailbox) {
  // unlock_to()'s hint must reach the manager through the mailbox encoding.
  Machine m(MachineParams::test_machine(6));
  auto opts = base_options(SchedulerKind::kHandoff);
  opts.execution = Execution::kActive;
  Lock lock(m, opts);
  std::vector<int> order;
  std::vector<ThreadId> tids(4, kInvalidThread);
  m.spawn(5, [&](Thread& t) { lock.serve(t); });
  ThreadId holder = m.spawn(0, [&](Thread& t) {
    tids[0] = t.self();
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 100'000);      // waiters 1..3 queue
    lock.unlock_to(t, tids[3]); // hint: thread 3 first
  });
  std::vector<ThreadId> all{holder};
  for (int i = 1; i <= 3; ++i) {
    all.push_back(m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      tids[static_cast<std::size_t>(i)] = t.self();
      m.compute(t, static_cast<Nanos>(2000 * i));
      ASSERT_TRUE(lock.lock(t));
      order.push_back(i);
      lock.unlock(t);  // no hint: FCFS fallback among the rest
    }));
  }
  m.spawn(4, [&](Thread& t) {
    for (ThreadId w : all) m.join(t, w);
    lock.stop_serving(t);
  });
  m.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3) << "the manager must honor the hint";
}

TEST(ActiveLockExtra, FallsBackToPassiveWhenNotServing) {
  Machine m(MachineParams::test_machine(2));
  auto opts = base_options(SchedulerKind::kFcfs);
  opts.execution = Execution::kActive;  // but nobody calls serve()
  Lock lock(m, opts);
  bool done = false;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);  // inline release path
    ASSERT_TRUE(lock.try_lock(t));
    lock.unlock(t);
    done = true;
  });
  m.run();
  EXPECT_TRUE(done);
}

TEST(ActiveLockExtra, ReaderWriterReleasesThroughTheManager) {
  // Readers release through a serving manager: each shared release is
  // counted into the mailbox and the manager runs the release module once
  // per reader; the last one grants the queued writer. A reader queued
  // behind the writer is granted by the manager's run of the writer's
  // (mailbox-posted) release.
  Machine m(MachineParams::test_machine(6));
  auto opts = base_options(SchedulerKind::kReaderWriter);
  opts.execution = Execution::kActive;
  Lock lock(m, opts);
  int readers_inside = 0;
  bool writer_done = false;
  bool late_reader_done = false;
  std::vector<ThreadId> all;
  m.spawn(5, [&](Thread& t) { lock.serve(t); });
  for (int i = 0; i < 2; ++i) {
    all.push_back(m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      ASSERT_TRUE(lock.lock_shared(t));
      ++readers_inside;
      m.compute(t, 100'000);
      --readers_inside;
      lock.unlock_shared(t);  // posts to the manager
    }));
  }
  all.push_back(m.spawn(2, [&](Thread& t) {
    m.compute(t, 20'000);  // the readers are inside
    ASSERT_TRUE(lock.lock(t));
    EXPECT_EQ(readers_inside, 0);
    writer_done = true;
    m.compute(t, 10'000);
    lock.unlock(t);
  }));
  all.push_back(m.spawn(3, [&](Thread& t) {
    m.compute(t, 40'000);  // the writer is queued
    ASSERT_TRUE(lock.lock_shared(t));
    EXPECT_TRUE(writer_done);
    late_reader_done = true;
    lock.unlock_shared(t);
  }));
  m.spawn(4, [&](Thread& t) {
    for (ThreadId w : all) m.join(t, w);
    lock.stop_serving(t);
  });
  m.run();
  EXPECT_TRUE(writer_done);
  EXPECT_TRUE(late_reader_done);
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.acquisitions, 4u);
  EXPECT_EQ(s.handoffs, 2u) << "the writer's grant and the late reader's";
  EXPECT_EQ(lock.waiter_count(), 0u);
}

// --------------------------------------------------------- advisory ------

TEST(AdvisoryExtra, TimedSleepAdviceSleepsOnceThenSpins) {
  // The owner announces a 400us tenure; the waiter should block exactly
  // once (a single bounded sleep) and then spin through the final margin.
  MachineParams p = MachineParams::test_machine(3);
  Machine m(p);
  auto opts = base_options(SchedulerKind::kFcfs, LockAttributes::spin());
  opts.advisory = true;
  Lock lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.advise(t, Advice::kSleep, 400'000);
    m.compute(t, 400'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  const LockStats s = lock.monitor().snapshot();
  EXPECT_EQ(s.blocks, 1u) << "one bounded sleep covering the tenure";
  EXPECT_GT(s.spin_probes, 0u) << "followed by spinning inside the margin";
}

TEST(AdvisoryExtra, ExpiredDeadlineFallsBackToSpinning) {
  // Advice whose deadline has already passed must not put waiters to sleep.
  Machine m(MachineParams::test_machine(3));
  auto opts = base_options(SchedulerKind::kFcfs, LockAttributes::spin());
  opts.advisory = true;
  Lock lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.advise(t, Advice::kSleep, 1);  // expires immediately
    m.compute(t, 100'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 5000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  EXPECT_EQ(lock.monitor().snapshot().blocks, 0u);
}

TEST(AdvisoryExtra, CurrentAdviceDecodesKind) {
  Machine m(MachineParams::test_machine(2));
  auto opts = base_options(SchedulerKind::kFcfs);
  opts.advisory = true;
  Lock lock(m, opts);
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    EXPECT_EQ(lock.current_advice(t), Advice::kNone);
    lock.advise(t, Advice::kSleep, 1'000'000);
    EXPECT_EQ(lock.current_advice(t), Advice::kSleep);
    lock.advise(t, Advice::kSpin);
    EXPECT_EQ(lock.current_advice(t), Advice::kSpin);
    lock.unlock(t);
  });
  m.run();
}

// ------------------------------------------------------ reader-writer ----

TEST(ReaderWriterExtra, ReaderPreferenceLetsReadersBarge) {
  Machine m(MachineParams::test_machine(5));
  auto opts = base_options(SchedulerKind::kReaderWriter);
  opts.rw_preference = RwPreference::kReaderPref;
  Lock lock(m, opts);
  std::vector<char> order;
  // Reader A holds; writer W queues; reader B arrives later and must be
  // able to join A (reader preference) before W runs.
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock_shared(t));
    order.push_back('a');
    m.compute(t, 100'000);
    lock.unlock_shared(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 5000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back('w');
    lock.unlock(t);
  });
  m.spawn(2, [&](Thread& t) {
    m.compute(t, 20'000);
    ASSERT_TRUE(lock.lock_shared(t));  // barges in with reader A
    order.push_back('b');
    m.compute(t, 10'000);
    lock.unlock_shared(t);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'w'}));
}

TEST(ReaderWriterExtra, WriterPreferenceServesWriterFirst) {
  Machine m(MachineParams::test_machine(5));
  auto opts = base_options(SchedulerKind::kReaderWriter);
  opts.rw_preference = RwPreference::kWriterPref;
  Lock lock(m, opts);
  std::vector<char> order;
  // Writer holds; reader R1 queues, then writer W2, then reader R2.
  // Writer preference: W2 is served before both readers.
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 100'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 3000);
    ASSERT_TRUE(lock.lock_shared(t));
    order.push_back('r');
    lock.unlock_shared(t);
  });
  m.spawn(2, [&](Thread& t) {
    m.compute(t, 6000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back('W');
    lock.unlock(t);
  });
  m.spawn(3, [&](Thread& t) {
    m.compute(t, 9000);
    ASSERT_TRUE(lock.lock_shared(t));
    order.push_back('r');
    lock.unlock_shared(t);
  });
  m.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'W');
}

TEST(ReaderWriterExtra, SharedTimeoutExpires) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, base_options(SchedulerKind::kReaderWriter));
  bool got = true;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));  // writer holds throughout
    m.compute(t, 500'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 5000);
    got = lock.lock_shared_for(t, 50'000);
  });
  m.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(lock.monitor().snapshot().timeouts, 1u);
}

TEST(ReaderWriterExtra, SharedRecountAcrossGrantBatches) {
  // Two grant batches of readers in sequence; holders_ bookkeeping must
  // track batch sizes exactly (regression guard).
  Machine m(MachineParams::test_machine(6));
  Lock lock(m, base_options(SchedulerKind::kReaderWriter));
  int max_readers = 0, readers = 0;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 100'000);  // readers 1-2 and writer 3 and reader 4 queue
    lock.unlock(t);
  });
  auto reader = [&](int delay) {
    return [&, delay](Thread& t) {
      m.compute(t, static_cast<Nanos>(delay));
      ASSERT_TRUE(lock.lock_shared(t));
      max_readers = std::max(max_readers, ++readers);
      m.compute(t, 30'000);
      --readers;
      lock.unlock_shared(t);
    };
  };
  m.spawn(1, reader(3000));
  m.spawn(2, reader(6000));
  m.spawn(3, [&](Thread& t) {
    m.compute(t, 9000);
    ASSERT_TRUE(lock.lock(t));
    EXPECT_EQ(readers, 0);
    m.compute(t, 10'000);
    lock.unlock(t);
  });
  m.spawn(4, reader(12'000));
  m.run();
  EXPECT_EQ(max_readers, 2);
  EXPECT_EQ(readers, 0);
}

// ----------------------------------------------------------- timeouts ----

TEST(TimeoutExtra, TimedOutWaiterLeavesNoResidue) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, base_options(SchedulerKind::kFcfs));
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 400'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2000);
    EXPECT_FALSE(lock.lock_for(t, 30'000));
    EXPECT_EQ(lock.waiter_count(), 0u) << "timed-out waiter must dequeue";
    // The same thread can acquire normally afterwards.
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
}

TEST(TimeoutExtra, GrantBeatsTimeoutRace) {
  // The grant lands exactly around the deadline; whoever wins, the lock
  // state stays consistent: either the waiter got it (and must release) or
  // it timed out (and the lock is free).
  for (const Nanos timeout : {140'000u, 150'000u, 160'000u, 170'000u}) {
    Machine m(MachineParams::test_machine(3));
    Lock lock(m, base_options(SchedulerKind::kFcfs));
    m.spawn(0, [&](Thread& t) {
      ASSERT_TRUE(lock.lock(t));
      m.compute(t, 150'000);
      lock.unlock(t);
    });
    bool got = false;
    m.spawn(1, [&, timeout](Thread& t) {
      m.compute(t, 2000);
      got = lock.lock_for(t, timeout);
      if (got) lock.unlock(t);
    });
    m.spawn(2, [&](Thread& t) {  // post-race probe
      m.compute(t, 800'000);
      ASSERT_TRUE(lock.try_lock(t)) << "lock must end up free";
      lock.unlock(t);
    });
    m.run();
    EXPECT_EQ(lock.waiter_count(), 0u);
  }
}

// ----------------------------------------------------------- handoff -----

TEST(HandoffExtra, HintForAbsentThreadFallsBackToFcfs) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, base_options(SchedulerKind::kHandoff));
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 100'000);
    lock.unlock_to(t, 999);  // no such waiter
  });
  for (int i = 1; i <= 2; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(2000 * i));
      ASSERT_TRUE(lock.lock(t));
      order.push_back(i);
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(HandoffExtra, HintIgnoredWithoutScheduler) {
  Machine m(MachineParams::test_machine(2));
  Lock lock(m, base_options(SchedulerKind::kNone));
  bool done = false;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    lock.unlock_to(t, 42);  // centralized mode: hint is harmless
    ASSERT_TRUE(lock.try_lock(t));
    lock.unlock(t);
    done = true;
  });
  m.run();
  EXPECT_TRUE(done);
}

// ----------------------------------------------- per-thread attributes ---

TEST(PerThreadAttrs, ClearRestoresLockWidePolicy) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, base_options(SchedulerKind::kFcfs, LockAttributes::spin()));
  m.spawn(0, [&](Thread& t) {
    lock.set_thread_attributes(t, t.self(), LockAttributes::blocking());
    lock.clear_thread_attributes(t, t.self());
    // After clearing, this thread follows the lock-wide spin policy: wait
    // for a held lock without ever blocking.
    m.compute(t, 10'000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 80'000);
    lock.unlock(t);
  });
  m.run();
  EXPECT_EQ(lock.monitor().snapshot().blocks, 0u);
}

// -------------------------------------------------- placement traffic ----

TEST(PlacementExtra, CentralizedWaitFlagsLiveOnLockNode) {
  // With WaitPlacement::kLockHome every waiter polls the lock's node;
  // remote traffic must far exceed the kWaiterLocal configuration even
  // under a queued scheduler.
  auto remote_refs = [](WaitPlacement wp) {
    Machine m(MachineParams::test_machine(6));
    auto opts = base_options(SchedulerKind::kFcfs);
    opts.wait_placement = wp;
    opts.monitor_enabled = false;
    Lock lock(m, opts);
    for (int i = 0; i < 6; ++i) {
      m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
        m.compute(t, static_cast<Nanos>(200 * i));
        EXPECT_TRUE(lock.lock(t));
        m.compute(t, 15'000);
        lock.unlock(t);
      });
    }
    m.run();
    return m.stats().remote_references();
  };
  EXPECT_LT(remote_refs(WaitPlacement::kWaiterLocal),
            remote_refs(WaitPlacement::kLockHome));
}

// ----------------------------------------------------- state (Fig 4) -----

TEST(LockStateExtra, TransitionsThroughFigure4States) {
  Machine m(MachineParams::test_machine(3));
  Lock lock(m, base_options(SchedulerKind::kPriorityThreshold));
  std::vector<LockState> seen;
  m.spawn(0, [&](Thread& t) {
    seen.push_back(lock.state(t));  // unlocked
    ASSERT_TRUE(lock.lock(t));
    seen.push_back(lock.state(t));  // locked
    m.compute(t, 100'000);          // the low-priority waiter queues
    lock.set_priority_threshold(t, 5);
    lock.unlock(t);                 // waiter ineligible: lock goes idle
    seen.push_back(lock.state(t));  // idle (free, but a thread waits)
    m.compute(t, 50'000);
    lock.set_priority_threshold(t, 0);  // waiter becomes eligible
  });
  m.spawn(1, [&](Thread& t) {
    t.set_priority(1);
    m.compute(t, 5000);
    ASSERT_TRUE(lock.lock(t));
    lock.unlock(t);
  });
  m.run();
  EXPECT_EQ(seen, (std::vector<LockState>{LockState::kUnlocked,
                                          LockState::kLocked,
                                          LockState::kIdle}));
}

// -------------------------------------------------------- determinism ----

TEST(DeterminismExtra, ComplexRunsProduceIdenticalTraces) {
  auto run_once = [] {
    Machine m(MachineParams::test_machine(6));
    m.enable_trace();
    auto opts = Lock::Options{};
    opts.scheduler = SchedulerKind::kFcfs;
    opts.attributes = LockAttributes::combined(4, 20'000);
    opts.placement = Placement::on(0);
    Lock lock(m, opts);
    for (int i = 0; i < 6; ++i) {
      m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
        for (int j = 0; j < 12; ++j) {
          EXPECT_TRUE(lock.lock(t));
          m.compute(t, 3000 + static_cast<Nanos>(i) * 100);
          lock.unlock(t);
          m.compute(t, 1000);
        }
      });
    }
    m.run();
    return m.trace_digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace relock

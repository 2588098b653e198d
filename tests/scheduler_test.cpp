// Direct unit tests of the scheduler modules (Gamma), the WaiterQueue
// they are built on and the queue cell the FCFS kind is served from, plus
// dynamic installation of a user-supplied scheduler (EdfScheduler) through
// the lock's configure_scheduler extension point, on the simulator and on
// the native lock's fast release.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/core/edf_scheduler.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/platform/native.hpp"
#include "relock/sim/machine.hpp"

namespace relock {
namespace {

using sim::Machine;
using sim::MachineParams;
using sim::ProcId;
using sim::SimPlatform;
using sim::Thread;

using Rec = WaiterRecord<SimPlatform>;

/// Test fixture owning a machine so records can allocate grant words.
class SchedulerUnit : public ::testing::Test {
 protected:
  SchedulerUnit() : machine_(MachineParams::test_machine(2)) {}

  Rec& make(ThreadId tid, Priority prio = 0, bool shared = false) {
    recs_.emplace_back(machine_, tid, prio, Placement::on(0), shared,
                       /*may_sleep=*/false);
    return recs_.back();
  }

  static std::vector<ThreadId> select_all(Scheduler<SimPlatform>& s,
                                          ThreadId hint = kInvalidThread) {
    std::vector<ThreadId> order;
    GrantBatch<SimPlatform> batch;
    while (!s.empty()) {
      batch.clear();
      s.select(batch, hint);
      if (batch.empty()) break;  // e.g. all below threshold
      for (Rec* r : batch) order.push_back(r->tid);
    }
    return order;
  }

  Machine machine_;
  std::deque<Rec> recs_;  // deque: records are immovable
};

// ------------------------------------------------------- WaiterQueue -----

TEST_F(SchedulerUnit, WaiterQueueFifoAndRemove) {
  WaiterQueue<SimPlatform> q;
  Rec& a = make(1);
  Rec& b = make(2);
  Rec& c = make(3);
  q.push_back(a);
  q.push_back(b);
  q.push_back(c);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front(), &a);
  q.remove(b);  // middle removal
  EXPECT_EQ(q.size(), 2u);
  q.remove(b);  // idempotent
  EXPECT_EQ(q.size(), 2u);
  q.remove(a);  // head removal
  EXPECT_EQ(q.front(), &c);
  q.remove(c);  // tail removal
  EXPECT_TRUE(q.empty());
}

TEST_F(SchedulerUnit, WaiterQueueForEachEarlyStop) {
  WaiterQueue<SimPlatform> q;
  Rec& a = make(1);
  Rec& b = make(2);
  q.push_back(a);
  q.push_back(b);
  int visited = 0;
  q.for_each([&](Rec&) {
    ++visited;
    return false;  // stop after the first
  });
  EXPECT_EQ(visited, 1);
}

// --------------------------------------------------------- FCFS ----------
// kFcfs has no module: the lock serves it from its queue cell, whose
// consumer operations take the consumer's cursor and an await (here one
// that never waits: producer and consumer are this thread).

Rec* no_wait(const char*, std::atomic<Rec*>& slot) {
  return slot.load(std::memory_order_acquire);
}

std::vector<ThreadId> pop_all(WaitQueueCell<SimPlatform>& cell,
                              Rec*& cursor) {
  std::vector<ThreadId> order;
  while (Rec* r = cell.pop(cursor, no_wait)) order.push_back(r->tid);
  return order;
}

TEST_F(SchedulerUnit, FcfsSelectsInArrivalOrder) {
  WaitQueueCell<SimPlatform> cell;
  Rec* cursor = nullptr;
  cell.push(make(5, /*prio=*/1));
  cell.push(make(3, /*prio=*/9));
  cell.push(make(9, /*prio=*/5));
  EXPECT_EQ(pop_all(cell, cursor), (std::vector<ThreadId>{5, 3, 9}));
  EXPECT_TRUE(cell.empty(cursor));
}

TEST_F(SchedulerUnit, FcfsRemoveWithdrawsWaiter) {
  WaitQueueCell<SimPlatform> cell;
  Rec* cursor = nullptr;
  Rec& a = make(1);
  Rec& b = make(2);
  cell.push(a);
  cell.push(b);
  EXPECT_TRUE(cell.remove(cursor, a, no_wait));
  EXPECT_FALSE(cell.remove(cursor, a, no_wait)) << "removed twice";
  EXPECT_EQ(pop_all(cell, cursor), (std::vector<ThreadId>{2}));
}

// ----------------------------------------------------- PriorityQueue -----

TEST_F(SchedulerUnit, PriorityQueueSelectsHighestFirst) {
  PriorityQueueScheduler<SimPlatform> s;
  s.enqueue(make(1, 1));
  s.enqueue(make(2, 9));
  s.enqueue(make(3, 5));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{2, 3, 1}));
}

TEST_F(SchedulerUnit, PriorityQueueFifoAmongEquals) {
  PriorityQueueScheduler<SimPlatform> s;
  s.enqueue(make(1, 7));
  s.enqueue(make(2, 7));
  s.enqueue(make(3, 7));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{1, 2, 3}));
}

// -------------------------------------------------- PriorityThreshold ----

TEST_F(SchedulerUnit, ThresholdSelectsNobodyWhenAllIneligible) {
  PriorityThresholdScheduler<SimPlatform> s;
  s.set_threshold(10);
  s.enqueue(make(1, 3));
  s.enqueue(make(2, 7));
  GrantBatch<SimPlatform> batch;
  s.select(batch, kInvalidThread);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(s.size(), 2u) << "ineligible waiters stay registered";
}

TEST_F(SchedulerUnit, ThresholdFcfsAmongEligible) {
  PriorityThresholdScheduler<SimPlatform> s;
  s.set_threshold(5);
  s.enqueue(make(1, 3));   // ineligible
  s.enqueue(make(2, 8));   // eligible, first
  s.enqueue(make(3, 20));  // eligible but later (no priority order!)
  GrantBatch<SimPlatform> batch;
  s.select(batch, kInvalidThread);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front()->tid, 2u);
  EXPECT_EQ(s.threshold(), 5);
}

TEST_F(SchedulerUnit, ThresholdDropMakesWaitersEligible) {
  PriorityThresholdScheduler<SimPlatform> s;
  s.set_threshold(10);
  s.enqueue(make(1, 3));
  GrantBatch<SimPlatform> batch;
  s.select(batch, kInvalidThread);
  EXPECT_TRUE(batch.empty());
  s.set_threshold(0);
  s.select(batch, kInvalidThread);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front()->tid, 1u);
}

// ----------------------------------------------------------- Handoff -----

TEST_F(SchedulerUnit, HandoffHonorsHint) {
  HandoffScheduler<SimPlatform> s;
  s.enqueue(make(1));
  s.enqueue(make(2));
  s.enqueue(make(3));
  GrantBatch<SimPlatform> batch;
  s.select(batch, /*hint=*/3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front()->tid, 3u);
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{1, 2}));
}

TEST_F(SchedulerUnit, HandoffFallsBackToFcfsOnMissingHint) {
  HandoffScheduler<SimPlatform> s;
  s.enqueue(make(1));
  s.enqueue(make(2));
  GrantBatch<SimPlatform> batch;
  s.select(batch, /*hint=*/77);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front()->tid, 1u);
}

// ------------------------------------------------------ ReaderWriter -----

TEST_F(SchedulerUnit, RwFifoBatchesLeadingReaders) {
  ReaderWriterScheduler<SimPlatform> s(RwPreference::kFifo);
  s.enqueue(make(1, 0, /*shared=*/true));
  s.enqueue(make(2, 0, /*shared=*/true));
  s.enqueue(make(3, 0, /*shared=*/false));
  s.enqueue(make(4, 0, /*shared=*/true));
  GrantBatch<SimPlatform> batch;
  s.select(batch, kInvalidThread);
  ASSERT_EQ(batch.size(), 2u);  // readers 1 and 2 batch together
  EXPECT_EQ(batch[0]->tid, 1u);
  EXPECT_EQ(batch[1]->tid, 2u);
  batch.clear();
  s.select(batch, kInvalidThread);
  ASSERT_EQ(batch.size(), 1u);  // then the writer alone
  EXPECT_EQ(batch.front()->tid, 3u);
}

TEST_F(SchedulerUnit, RwReaderPrefTakesAllReaders) {
  ReaderWriterScheduler<SimPlatform> s(RwPreference::kReaderPref);
  s.enqueue(make(1, 0, true));
  s.enqueue(make(2, 0, false));
  s.enqueue(make(3, 0, true));
  GrantBatch<SimPlatform> batch;
  s.select(batch, kInvalidThread);
  ASSERT_EQ(batch.size(), 2u);  // both readers, past the queued writer
  EXPECT_EQ(batch[0]->tid, 1u);
  EXPECT_EQ(batch[1]->tid, 3u);
}

TEST_F(SchedulerUnit, RwWriterPrefTakesWriterFirst) {
  ReaderWriterScheduler<SimPlatform> s(RwPreference::kWriterPref);
  s.enqueue(make(1, 0, true));
  s.enqueue(make(2, 0, true));
  s.enqueue(make(3, 0, false));
  GrantBatch<SimPlatform> batch;
  s.select(batch, kInvalidThread);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front()->tid, 3u);
}

// ------------------------------------------------------------- EDF -------

TEST_F(SchedulerUnit, EdfSelectsEarliestDeadline) {
  EdfScheduler<SimPlatform> s;
  s.enqueue(make(1, 300));  // deadline 300
  s.enqueue(make(2, 100));  // deadline 100: most urgent
  s.enqueue(make(3, 200));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{2, 3, 1}));
  EXPECT_EQ(s.kind(), SchedulerKind::kCustom);
}

// --------------------------------------------------- factory / kinds -----

TEST_F(SchedulerUnit, FactoryProducesMatchingKinds) {
  for (const SchedulerKind k :
       {SchedulerKind::kPriorityQueue, SchedulerKind::kPriorityThreshold,
        SchedulerKind::kHandoff, SchedulerKind::kReaderWriter}) {
    const auto s = make_scheduler<SimPlatform>(k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
    EXPECT_TRUE(s->empty());
    EXPECT_EQ(s->size(), 0u);
  }
  // The FIFO kinds are served from the lock's queue cell, and kNone
  // barges: none of them builds a module.
  for (const SchedulerKind k :
       {SchedulerKind::kFcfs, SchedulerKind::kQueue, SchedulerKind::kNone}) {
    EXPECT_EQ(make_scheduler<SimPlatform>(k), nullptr);
  }
}

// ----------------------------------- custom scheduler through the lock ---

TEST(CustomScheduler, EdfInstalledDynamicallyOrdersGrantsByDeadline) {
  Machine m(MachineParams::test_machine(5));
  ConfigurableLock<SimPlatform>::Options o;
  o.scheduler = SchedulerKind::kFcfs;
  o.placement = Placement::on(0);
  ConfigurableLock<SimPlatform> lock(m, o);
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    // Install the user-supplied EDF module while the lock is idle.
    lock.configure_scheduler(t,
                             std::make_unique<EdfScheduler<SimPlatform>>());
    EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kCustom);
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 200'000);  // waiters with deadlines 30, 10, 20 queue
    lock.unlock(t);
  });
  const int deadlines[] = {30, 10, 20};
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i + 1), [&, i](Thread& t) {
      t.set_priority(deadlines[i]);
      m.compute(t, static_cast<Nanos>(3000 * (i + 1)));
      ASSERT_TRUE(lock.lock(t));
      order.push_back(deadlines[i]);
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

// A custom module takes the native single-store release like the built-in
// kinds: each release drains the arrivals into the EDF module and selects
// afresh, so four waiters queued behind the holder are granted earliest
// deadline first, round after round.
TEST(CustomScheduler, EdfOnNativeLockGrantsEarliestDeadlineFirst) {
  using NP = native::NativePlatform;
  native::Domain dom(8);
  ConfigurableLock<NP> lock(dom);
  native::Context ctx(dom);
  lock.configure_scheduler(ctx, std::make_unique<EdfScheduler<NP>>());
  ASSERT_EQ(lock.scheduler_kind(), SchedulerKind::kCustom);
  const Priority deadlines[] = {40, 10, 30, 20};
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(lock.lock(ctx));
    std::vector<Priority> order;  // appended to under `lock` itself
    std::vector<std::thread> waiters;
    for (std::uint32_t i = 0; i < 4; ++i) {
      waiters.emplace_back([&, i] {
        native::Context tctx(dom, deadlines[i]);
        ASSERT_TRUE(lock.lock(tctx));
        order.push_back(deadlines[i]);
        lock.unlock(tctx);
      });
      // Serialized arrivals: the next waiter starts once this one counts.
      while (lock.waiter_count() != i + 1) std::this_thread::yield();
    }
    lock.unlock(ctx);
    for (auto& w : waiters) w.join();
    ASSERT_EQ(order, (std::vector<Priority>{10, 20, 30, 40}))
        << "round " << round;
  }
  EXPECT_EQ(lock.waiter_count(), 0u);
}

}  // namespace
}  // namespace relock

// SchedulerKind::kQueue and kFcfs - the lock's MCS-family queue cell.
// Covers the cell directly (push/pop/remove semantics and the consumer's
// cursor), contended FIFO handoff with spinning and blocking waiting
// policies, timeout self-removal of head/middle/tail nodes (lock_for and
// native::Mutex::try_lock_for), interaction with the fissile fast path,
// and reconfiguration to and from kQueue under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/native/mutex.hpp"
#include "relock/platform/native.hpp"
#include "relock/sim/machine.hpp"

namespace relock {
namespace {

using native::NativePlatform;
using Lock = ConfigurableLock<NativePlatform>;

Lock::Options opts(SchedulerKind kind = SchedulerKind::kQueue,
                   LockAttributes attrs = LockAttributes::spin()) {
  Lock::Options o;
  o.scheduler = kind;
  o.attributes = attrs;
  return o;
}

template <typename F>
void await(F&& probe, bool want) {
  const Nanos deadline = monotonic_now() + 10'000'000'000;  // 10 s
  while (probe() != want) {
    ASSERT_LT(monotonic_now(), deadline) << "probe never reached state";
    std::this_thread::yield();
  }
}

// --------------------------------------------- queue cell unit tests ----
// The lock serves kFcfs and kQueue from its WaitQueueCell on every
// platform. The cell is exact (no in-flight link windows) when producers
// and the consumer are the same thread, which is how the simulator and the
// meta-guarded enlists use it - so its single-threaded queue semantics can
// be pinned down directly. The fixture keeps the name it had while a
// scheduler module fronted the cell.

using sim::Machine;
using sim::MachineParams;
using sim::SimPlatform;
using SimRec = WaiterRecord<SimPlatform>;

/// An await that never waits: the producer is this thread, so every link
/// has landed.
template <typename Rec>
Rec* no_wait(const char*, std::atomic<Rec*>& slot) {
  return slot.load(std::memory_order_acquire);
}

/// The records a consumer reaches: from the cursor (else the published
/// first arrival) along the qnext links. Exact at quiescence.
template <Platform P>
std::size_t linked(const WaitQueueCell<P>& cell,
                   const WaiterRecord<P>* cursor) {
  std::size_t n = 0;
  for (const WaiterRecord<P>* r =
           cursor != nullptr ? cursor
                             : cell.first.load(std::memory_order_acquire);
       r != nullptr; r = WaitQueueCell<P>::record(
                         r->qnext.load(std::memory_order_acquire))) {
    ++n;
  }
  return n;
}

class QueueFacadeUnit : public ::testing::Test {
 protected:
  QueueFacadeUnit() : machine_(MachineParams::test_machine(2)) {}

  SimRec& make(ThreadId tid, Priority prio = 0) {
    recs_.emplace_back(machine_, tid, prio, Placement::on(0),
                       /*shared=*/false, /*may_sleep=*/false);
    return recs_.back();
  }

  SimRec* pop() { return cell_.pop(cursor_, no_wait<SimRec>); }
  bool remove(SimRec& r) { return cell_.remove(cursor_, r, no_wait<SimRec>); }
  [[nodiscard]] bool empty() const { return cell_.empty(cursor_); }
  [[nodiscard]] std::size_t size() const { return linked(cell_, cursor_); }

  Machine machine_;
  std::deque<SimRec> recs_;  // deque: records are immovable
  WaitQueueCell<SimPlatform> cell_;
  SimRec* cursor_ = nullptr;  ///< the consumer's cursor, as the lock keeps it
};

TEST_F(QueueFacadeUnit, KindAndPolicy) {
  // kQueue, like kFcfs, builds no module: the lock serves it from the cell.
  EXPECT_EQ(make_scheduler<SimPlatform>(SchedulerKind::kQueue), nullptr);
  EXPECT_TRUE(empty());
  EXPECT_EQ(size(), 0u);
  EXPECT_EQ(cell_.front(cursor_, no_wait<SimRec>), nullptr);
  EXPECT_EQ(pop(), nullptr);
}

TEST_F(QueueFacadeUnit, FifoSelectIgnoresPriorityAndHint) {
  SimRec& a = make(1, /*prio=*/0);
  SimRec& b = make(2, /*prio=*/9);
  SimRec& c = make(3, /*prio=*/5);
  cell_.push(a);
  cell_.push(b);
  cell_.push(c);
  EXPECT_EQ(size(), 3u);
  EXPECT_EQ(pop(), &a);  // priorities do not reorder the FIFO
  EXPECT_EQ(pop(), &b);
  EXPECT_EQ(pop(), &c);
  EXPECT_TRUE(empty());
}

TEST_F(QueueFacadeUnit, RemoveHeadMiddleTailAndReuse) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  SimRec& d = make(4);
  cell_.push(a);
  cell_.push(b);
  cell_.push(c);
  cell_.push(d);
  EXPECT_TRUE(remove(b));  // middle
  EXPECT_TRUE(remove(d));  // tail
  EXPECT_TRUE(remove(a));  // head
  EXPECT_EQ(size(), 1u);
  EXPECT_EQ(pop(), &c);
  EXPECT_TRUE(empty());
  // Unlinked records are clean for re-enqueue (node reuse after timeout).
  cell_.push(b);
  cell_.push(a);
  EXPECT_EQ(pop(), &b);
  EXPECT_EQ(pop(), &a);
  EXPECT_TRUE(empty());
}

// ---------------------------------------------------- the cell's cursor --
// The consumer cursor names the cell's front record. front() leaves that
// record linked - a fast release grants it that way, and it stays the
// front while its grantee holds, until the holder's release unlinks it -
// while unlink_front() moves the cursor to the successor, or swings the
// tail back to empty when the record is last.

TEST_F(QueueFacadeUnit, FrontStaysLinkedUntilUnlinked) {
  using Cell = WaitQueueCell<SimPlatform>;
  Cell& cell = cell_;
  SimRec*& cursor = cursor_;
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  cell_.push(a);
  cell_.push(b);
  // front() adopts the first arrival and leaves it linked.
  EXPECT_EQ(cell.front(cursor, no_wait<SimRec>), &a);
  EXPECT_EQ(cursor, &a);
  EXPECT_EQ(cell.front(cursor, no_wait<SimRec>), &a)
      << "front() must not unlink";
  EXPECT_EQ(a.qnext.load(), &b);
  EXPECT_EQ(size(), 2u);
  // Unlinking hands the cursor to the successor.
  ASSERT_TRUE(cell.unlink_front(cursor, a, no_wait<SimRec>));
  EXPECT_EQ(cursor, &b);
  EXPECT_EQ(cell.tail.load(), &b);
  // b is last: unlinking it swings the tail back to empty, and the next
  // arrival publishes through the first slot.
  ASSERT_TRUE(cell.unlink_front(cursor, b, no_wait<SimRec>));
  EXPECT_EQ(cursor, nullptr);
  EXPECT_EQ(cell.tail.load(), nullptr);
  EXPECT_TRUE(empty());
  cell_.push(c);
  EXPECT_EQ(cell.first.load(), &c);
  EXPECT_EQ(b.qnext.load(), nullptr);
  EXPECT_EQ(pop(), &c);
  EXPECT_TRUE(empty());
}

TEST_F(QueueFacadeUnit, UnlinkFrontOfTheTailAdoptsALateLink) {
  // The holder's release race: the front record is the tail, and a
  // producer has swapped in behind it but not yet linked. The tail CAS fails, so the
  // unlink must wait for the link - here the await lands it - and hand
  // the cursor to the late arrival.
  using Cell = WaitQueueCell<SimPlatform>;
  Cell& cell = cell_;
  SimRec*& cursor = cursor_;
  SimRec& a = make(1);
  SimRec& b = make(2);
  cell_.push(a);
  ASSERT_EQ(cell.front(cursor, no_wait<SimRec>), &a);
  b.qnext.store(nullptr);
  ASSERT_EQ(cell.tail.exchange(&b), &a);  // b swapped in, link pending
  EXPECT_FALSE(cell.unlink_front(cursor, a, no_wait<SimRec>))
      << "a non-waiting unlink must give up on the pending link";
  EXPECT_EQ(cursor, &a) << "a record whose unlink gave up stays linked";
  int awaited = 0;
  const auto link_then_load = [&](const char* point,
                                  std::atomic<SimRec*>& slot) {
    EXPECT_STREQ(point, "qc.chase");
    ++awaited;
    a.qnext.store(&b);  // the producer's link lands
    return slot.load(std::memory_order_acquire);
  };
  ASSERT_TRUE(cell.unlink_front(cursor, a, link_then_load));
  EXPECT_EQ(awaited, 1);
  EXPECT_EQ(cursor, &b);
  EXPECT_EQ(cell.tail.load(), &b);
  EXPECT_EQ(pop(), &b);
  EXPECT_TRUE(empty());
}

// A quick link (the lock's publish tags a thread waiter that never
// sleeps) names its record for every consumer, and a removal that
// relinks past a record moves the next record's link - tag included -
// into the predecessor, where the holder's release reads it.
TEST_F(QueueFacadeUnit, QuickLinksSurviveRemovalAndUnlink) {
  using Cell = WaitQueueCell<SimPlatform>;
  Cell& cell = cell_;
  SimRec*& cursor = cursor_;
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  cell_.push(a);
  ASSERT_EQ(cell.tail.exchange(&b), &a);
  a.qnext.store(Cell::link(&b, /*quick=*/true));
  ASSERT_EQ(cell.tail.exchange(&c), &b);
  b.qnext.store(Cell::link(&c, /*quick=*/true));
  EXPECT_EQ(size(), 3u);
  ASSERT_TRUE(cell.remove(cursor, b, no_wait<SimRec>));
  EXPECT_TRUE(Cell::quick(a.qnext.load()));
  EXPECT_EQ(Cell::record(a.qnext.load()), &c);
  ASSERT_EQ(cell.front(cursor, no_wait<SimRec>), &a);
  ASSERT_TRUE(cell.unlink_front(cursor, a, no_wait<SimRec>));
  EXPECT_EQ(cursor, &c) << "the cursor never carries the tag";
  EXPECT_EQ(pop(), &c);
  EXPECT_TRUE(empty());
}

TEST_F(QueueFacadeUnit, RemoveOfTheFrontRecord) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  cell_.push(a);
  cell_.push(b);
  cell_.push(c);
  ASSERT_EQ(pop(), &a);
  ASSERT_EQ(cursor_, &b);
  EXPECT_TRUE(cell_.remove(cursor_, b, no_wait<SimRec>));
  EXPECT_EQ(cursor_, &c);
  EXPECT_FALSE(cell_.remove(cursor_, b, no_wait<SimRec>))
      << "removed twice";
  EXPECT_EQ(size(), 1u);
  EXPECT_EQ(pop(), &c);
  EXPECT_TRUE(empty());
  // The withdrawn record is clean for re-enqueue.
  cell_.push(b);
  EXPECT_EQ(pop(), &b);
  EXPECT_TRUE(empty());
}

TEST_F(QueueFacadeUnit, EmptyAndSizeCountTheFrontRecord) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  cell_.push(a);
  cell_.push(b);
  ASSERT_EQ(pop(), &a);
  // Only the front record is left, still linked as the tail.
  ASSERT_EQ(cursor_, &b);
  EXPECT_EQ(cell_.tail.load(), &b);
  EXPECT_FALSE(cell_.empty(cursor_));
  EXPECT_FALSE(empty());
  EXPECT_EQ(size(), 1u);
  cell_.push(c);  // links behind b, not through the first slot
  EXPECT_EQ(b.qnext.load(), &c);
  EXPECT_EQ(size(), 2u);
  EXPECT_EQ(pop(), &b);
  EXPECT_EQ(size(), 1u);
  EXPECT_EQ(pop(), &c);
  EXPECT_EQ(size(), 0u);
  EXPECT_TRUE(empty());
}

TEST_F(QueueFacadeUnit, PopAnyMigrationYieldsFrontThenLinkedInFifoOrder) {
  // The lock migrates the cell's waiters into a module (leaving a
  // cell-served kind, or its drain) by popping: the record at the cursor
  // must come out first, then the linked ones, in arrival order. A
  // priority module at equal priorities keeps that order.
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  SimRec& d = make(4);
  for (SimRec* r : {&a, &b, &c, &d}) cell_.push(*r);
  ASSERT_EQ(pop(), &a);  // granted; b at the cursor, c, d linked
  ASSERT_EQ(cursor_, &b);
  PriorityQueueScheduler<SimPlatform> target;
  while (SimRec* r = pop()) target.enqueue(*r);
  EXPECT_TRUE(empty());
  GrantBatch<SimPlatform> batch;
  for (SimRec* want : {&b, &c, &d}) {
    batch.clear();
    target.select(batch, kInvalidThread);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front(), want);
  }
  EXPECT_TRUE(target.empty());
}

TEST_F(QueueFacadeUnit, NewGenerationAfterTheCellEmpties) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  SimRec& d = make(4);
  cell_.push(a);
  EXPECT_EQ(pop(), &a);  // the last record: the tail swings back
  EXPECT_EQ(cursor_, nullptr);
  EXPECT_TRUE(empty());
  // A new generation publishes through the first slot again.
  cell_.push(b);
  EXPECT_EQ(cell_.first.load(), &b);
  cell_.push(c);
  EXPECT_EQ(size(), 2u);
  EXPECT_EQ(pop(), &b);
  // c, at the cursor, is still the tail of that generation: d links
  // behind it rather than starting a new one.
  EXPECT_EQ(cursor_, &c);
  cell_.push(d);
  EXPECT_EQ(c.qnext.load(), &d);
  EXPECT_EQ(cell_.first.load(), nullptr);
  EXPECT_EQ(size(), 2u);
  EXPECT_EQ(pop(), &c);
  EXPECT_EQ(pop(), &d);
  EXPECT_TRUE(empty());
  EXPECT_EQ(size(), 0u);
}

// The consumer side's count (from the cursor, else the published first
// arrival, along qnext) must be exact after every interleaving of producer
// enqueues with pops, removals and re-enqueues, including across an
// empty -> non-empty generation change.
TEST_F(QueueFacadeUnit, SizeWalksInterleavedEnqueuePopRemove) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  SimRec& d = make(4);
  cell_.push(a);
  EXPECT_EQ(size(), 1u);  // first slot published, head not adopted
  cell_.push(b);
  cell_.push(c);
  EXPECT_EQ(size(), 3u);
  SimRec* head = pop();
  ASSERT_EQ(head, &a);
  EXPECT_EQ(size(), 2u);  // b at the cursor, c linked
  cell_.push(d);
  EXPECT_EQ(size(), 3u);
  EXPECT_TRUE(remove(c));  // middle
  EXPECT_EQ(size(), 2u);
  cell_.push(*head);  // the popped record re-enqueues at the tail
  EXPECT_EQ(size(), 3u);
  EXPECT_TRUE(remove(*head));  // tail
  EXPECT_EQ(size(), 2u);
  EXPECT_EQ(pop(), &b);
  EXPECT_EQ(pop(), &d);
  EXPECT_EQ(size(), 0u);
  EXPECT_TRUE(empty());
  // A new generation starts in the first slot again.
  cell_.push(c);
  cell_.push(a);
  EXPECT_EQ(size(), 2u);
  EXPECT_TRUE(remove(c));  // head of the new generation
  EXPECT_EQ(size(), 1u);
  EXPECT_EQ(pop(), &a);
  EXPECT_EQ(size(), 0u);
}

// The lock consumes its cell through WaitQueueCell's operations with a
// waiting await, and enlists under meta through the untagged push. Same
// arrangement here on native records: the consumer's count must track the
// waiting and the non-waiting consumer operations alike. The test keeps
// the name it had while a scheduler module fronted the cell.
TEST(QueueFacadeOnCell, SizeTracksTheCellsOwnConsumer) {
  using Rec = WaiterRecord<NativePlatform>;
  native::Domain dom(8);
  WaitQueueCell<NativePlatform> cell;
  Rec* cursor = nullptr;
  EXPECT_EQ(make_scheduler<NativePlatform>(SchedulerKind::kFcfs), nullptr)
      << "kFcfs is served from the cell, not a module";
  std::deque<Rec> recs;
  for (ThreadId t = 0; t < 4; ++t) {
    recs.emplace_back(dom, t, kDefaultPriority, Placement::any(),
                      /*shared=*/false, /*may_sleep=*/false);
  }
  const auto wait = [](const char*, std::atomic<Rec*>& slot) {
    Rec* r;
    while ((r = slot.load(std::memory_order_acquire)) == nullptr) {
    }
    return r;
  };
  for (Rec& r : recs) cell.push(r);
  EXPECT_EQ(linked(cell, cursor), 4u);
  Rec* head = cell.pop(cursor, wait);
  ASSERT_EQ(head, &recs[0]);
  EXPECT_EQ(cursor, &recs[1]);
  EXPECT_EQ(linked(cell, cursor), 3u);
  ASSERT_TRUE(cell.remove(cursor, recs[2], wait));
  EXPECT_EQ(linked(cell, cursor), 2u);
  EXPECT_FALSE(cell.remove(cursor, recs[2], wait)) << "removed twice";
  cell.push(*head);  // the popped record re-enqueues at the tail
  EXPECT_EQ(linked(cell, cursor), 3u);
  EXPECT_EQ(cell.pop(cursor, no_wait<Rec>), &recs[1]);
  EXPECT_EQ(cell.pop(cursor, wait), &recs[3]);
  EXPECT_EQ(linked(cell, cursor), 1u);
  EXPECT_EQ(cell.pop(cursor, no_wait<Rec>), &recs[0]);
  EXPECT_EQ(linked(cell, cursor), 0u);
  EXPECT_TRUE(cell.empty(cursor));
  EXPECT_EQ(cell.pop(cursor, wait), nullptr);
}

// ------------------------------------------------ native lock behavior ---

TEST(QueueScheduler, UncontendedCyclesStayInFastMode) {
  // kQueue is fissile-eligible: uncontended cycles never touch the cell.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  EXPECT_TRUE(lk.fast_path_eligible());
  for (int i = 0; i < 100; ++i) {
    lk.lock(ctx);
    EXPECT_TRUE(lk.in_fast_mode(ctx));
    lk.unlock(ctx);
  }
  EXPECT_TRUE(lk.try_lock(ctx));
  lk.unlock(ctx);
  EXPECT_TRUE(lk.lock_for(ctx, 1'000'000));
  lk.unlock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(QueueScheduler, FirstQueuedArrivalDemotesFastMode) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread contender([&] {
    native::Context tctx(dom);
    lk.lock(tctx);
    lk.unlock(tctx);
  });
  // The queued arrival's mark demotes the lock to full mode (fissile bit 1
  // behaves identically to the centralized schedulers).
  await([&] { return lk.in_fast_mode(ctx); }, false);
  lk.unlock(ctx);
  contender.join();
  // Queue drained, releaser published free: fast mode restored.
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

void contended_cycles(Lock& lk, native::Domain& dom, unsigned threads,
                      int iters) {
  std::atomic<int> inside{0};
  std::atomic<int> total{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      native::Context ctx(dom);
      for (int i = 0; i < iters; ++i) {
        lk.lock(ctx);
        ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
        inside.fetch_sub(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        lk.unlock(ctx);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(total.load(), static_cast<int>(threads) * iters);
}

TEST(QueueScheduler, ContendedHandoffSpinPolicy) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue, LockAttributes::spin()));
  contended_cycles(lk, dom, 4, 2'000);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(QueueScheduler, ContendedHandoffBlockingPolicy) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue, LockAttributes::blocking()));
  contended_cycles(lk, dom, 4, 1'000);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

TEST(QueueScheduler, GrantOrderIsFifo) {
  // Arrivals are spaced far apart (100 ms) behind a held lock, so the
  // tail-swap order matches the release order of the start gates; the
  // grant chain must then pop the nodes in exactly that order.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::vector<unsigned> order;
  std::atomic<unsigned> gate{0};
  std::vector<std::thread> waiters;
  for (unsigned t = 0; t < 3; ++t) {
    waiters.emplace_back([&, t] {
      native::Context tctx(dom);
      while (gate.load(std::memory_order_acquire) <= t) {
        std::this_thread::yield();
      }
      lk.lock(tctx);
      order.push_back(t);  // guarded by lk itself
      lk.unlock(tctx);
    });
  }
  for (unsigned t = 0; t < 3; ++t) {
    gate.fetch_add(1, std::memory_order_acq_rel);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  lk.unlock(ctx);
  for (auto& w : waiters) w.join();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

TEST(QueueScheduler, LockForTimesOutAndSelfRemoves) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread timed([&] {
    native::Context tctx(dom);
    // Times out while linked as the only node: tail self-removal.
    EXPECT_FALSE(lk.lock_for(tctx, 50'000'000));  // 50 ms
  });
  timed.join();
  lk.unlock(ctx);
  // The timed-out node unlinked itself: the lock is clean and reusable.
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(QueueScheduler, MiddleNodeTimeoutLeavesNeighborsLinked) {
  // W1 (no timeout) and W3 (no timeout) bracket W2 (short timeout): W2's
  // self-removal must relink W1->W3 so both still get granted.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::atomic<int> granted{0};
  std::atomic<unsigned> arrived{0};
  std::thread w1([&] {
    native::Context tctx(dom);
    arrived.fetch_add(1, std::memory_order_acq_rel);
    lk.lock(tctx);
    granted.fetch_add(1, std::memory_order_relaxed);
    lk.unlock(tctx);
  });
  await([&] { return arrived.load(std::memory_order_acquire) == 1 &&
                     lk.state(ctx) == LockState::kLocked; }, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> w2_done{false};
  std::thread w2([&] {
    native::Context tctx(dom);
    arrived.fetch_add(1, std::memory_order_acq_rel);
    EXPECT_FALSE(lk.lock_for(tctx, 60'000'000));  // 60 ms: times out
    w2_done.store(true, std::memory_order_release);
  });
  await([&] { return arrived.load(std::memory_order_acquire) == 2; }, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread w3([&] {
    native::Context tctx(dom);
    arrived.fetch_add(1, std::memory_order_acq_rel);
    lk.lock(tctx);
    granted.fetch_add(1, std::memory_order_relaxed);
    lk.unlock(tctx);
  });
  await([&] { return arrived.load(std::memory_order_acquire) == 3; }, true);
  // Hold until W2's deadline passes so it self-removes from the middle.
  await([&] { return w2_done.load(std::memory_order_acquire); }, true);
  lk.unlock(ctx);
  w1.join();
  w2.join();
  w3.join();
  EXPECT_EQ(granted.load(), 2);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

TEST(QueueScheduler, StagedRecordTimesOutAndSelfRemoves) {
  // W1 (no timeout) queues ahead of W2 (short timeout). The release that
  // grants W1 leaves W2's record at the cell's front - the slot the
  // retired pop-ahead called "staged", hence the name - and W1 holds the
  // lock until W2's deadline passes: W2 must withdraw itself from the
  // front, so W1's release finds the cell empty and frees the lock.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::atomic<bool> w2_done{false};
  std::thread w1([&] {
    native::Context tctx(dom);
    lk.lock(tctx);
    await([&] { return w2_done.load(std::memory_order_acquire); }, true);
    lk.unlock(tctx);
  });
  await([&] { return lk.waiter_count() == 1; }, true);
  std::thread w2([&] {
    native::Context tctx(dom);
    EXPECT_FALSE(lk.lock_for(tctx, 60'000'000));  // 60 ms: times out
    w2_done.store(true, std::memory_order_release);
  });
  await([&] { return lk.waiter_count() == 2; }, true);
  lk.unlock(ctx);  // grants W1; W2 is the front
  w1.join();
  w2.join();
  EXPECT_EQ(lk.waiter_count(), 0u);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  lk.lock(ctx);
  lk.unlock(ctx);
}

TEST(QueueScheduler, MutexTryLockForOnQueueConfiguration) {
  // The ISSUE's try_lock_for surface: a native::Mutex reconfigured to
  // kQueue times out and recovers through the same node self-removal.
  native::Mutex m;
  auto& ctx = native::this_thread_context();
  m.underlying().configure_scheduler(ctx, SchedulerKind::kQueue);
  m.lock();
  std::thread timed([&] {
    EXPECT_FALSE(m.try_lock_for(40'000'000));  // 40 ms under a held lock
  });
  timed.join();
  m.unlock();
  EXPECT_TRUE(m.try_lock_for(40'000'000));
  m.unlock();
}

TEST(QueueScheduler, ReconfigureToAndFromQueueUnderLoad) {
  // Threads hammer lock cycles while the main thread flips the scheduler
  // kFcfs -> kQueue -> kNone -> kQueue -> kFcfs: every linked waiter must
  // survive each migration (none stranded, mutual exclusion preserved).
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kFcfs));
  std::atomic<bool> stop{false};
  std::atomic<int> inside{0};
  std::atomic<long> total{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      native::Context ctx(dom);
      while (!stop.load(std::memory_order_relaxed)) {
        lk.lock(ctx);
        ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
        inside.fetch_sub(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        lk.unlock(ctx);
      }
    });
  }
  {
    native::Context ctx(dom);
    const SchedulerKind plan[] = {
        SchedulerKind::kQueue, SchedulerKind::kNone, SchedulerKind::kQueue,
        SchedulerKind::kFcfs,  SchedulerKind::kQueue, SchedulerKind::kQueue,
        SchedulerKind::kPriorityQueue, SchedulerKind::kQueue};
    for (int round = 0; round < 40; ++round) {
      lk.configure_scheduler(ctx, plan[static_cast<std::size_t>(round) %
                                       (sizeof(plan) / sizeof(plan[0]))]);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  EXPECT_GT(total.load(), 0);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
}

// Leaving a cell-served kind installs the incoming kind at once: the
// waiters already in the cell are the pre-registered generation, served
// first in arrival order off the orphan queue, and later arrivals reach
// the incoming kind through the cell's drain. Returns the grant order:
// pre-registered waiters by arrival index 0..2, later ones by priority.
std::vector<int> grants_after_leaving_the_cell(SchedulerKind to) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kFcfs));
  native::Context ctx(dom);
  lk.lock(ctx);
  std::vector<int> order;  // guarded by lk itself
  std::vector<std::thread> team;
  const auto arrive = [&](int id, Priority prio) {
    const std::uint32_t before = lk.waiter_count();
    team.emplace_back([&, id, prio] {
      native::Context tctx(dom, prio);
      lk.lock(tctx);
      order.push_back(id);
      lk.unlock(tctx);
    });
    await([&] { return lk.waiter_count() > before; }, true);
  };
  for (int i = 0; i < 3; ++i) arrive(i, 1);
  lk.configure_scheduler(ctx, to);
  EXPECT_FALSE(lk.reconfiguration_pending());
  EXPECT_EQ(lk.scheduler_kind(), to);
  arrive(9, 9);
  arrive(5, 5);
  lk.unlock(ctx);
  for (auto& t : team) t.join();
  EXPECT_EQ(lk.waiter_count(), 0u);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  return order;
}

TEST(QueueScheduler, LeavingTheCellForPriorityServesPreRegisteredFirst) {
  EXPECT_EQ(grants_after_leaving_the_cell(SchedulerKind::kPriorityQueue),
            (std::vector<int>{0, 1, 2, 9, 5}));
}

TEST(QueueScheduler, LeavingTheCellForNoneServesPreRegisteredFirst) {
  // kNone barges: the later two take the freed word in either order.
  const std::vector<int> order =
      grants_after_leaving_the_cell(SchedulerKind::kNone);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(std::vector<int>(order.begin(), order.begin() + 3),
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(order[3] + order[4], 9 + 5);
}

/// Runs `body` on its own thread and fails if it has not returned within
/// `limit`. A body stuck in a livelock cannot be joined or cancelled, so
/// the failure ends the process rather than hanging the suite.
void finishes_within(std::chrono::milliseconds limit,
                     const std::function<void()>& body) {
  std::atomic<bool> done{false};
  std::thread t([&] {
    body();
    done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!done.load()) {
    ADD_FAILURE() << "did not return within " << limit.count() << " ms";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  t.join();
}

// A switch to kFcfs stays pending behind a threshold module whose only
// waiter (priority 1, threshold 5) is ineligible, and a priority-10
// arrival registers under the incoming kFcfs, in the cell, before the
// holder releases. The release finds nobody eligible and must return with
// the lock free; the arrival is granted once the priority-1 waiter leaves
// the current module - served after the threshold drops, or timed out.
// Returns the grant order by priority.
std::vector<int> grants_behind_an_ineligible_waiter(bool times_out) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kPriorityThreshold));
  native::Context ctx(dom);
  lk.set_priority_threshold(ctx, 5);
  lk.lock(ctx);
  std::vector<int> order;  // guarded by lk itself
  bool low_timed_out = false;
  std::thread low([&] {
    native::Context tctx(dom, 1);
    if (times_out ? lk.lock_for(tctx, 300'000'000) : lk.lock(tctx)) {
      order.push_back(1);
      lk.unlock(tctx);
    } else {
      low_timed_out = true;
    }
  });
  await([&] { return lk.waiter_count() == 1; }, true);
  lk.configure_scheduler(ctx, SchedulerKind::kFcfs);
  EXPECT_TRUE(lk.reconfiguration_pending());
  std::thread high([&] {
    native::Context tctx(dom, 10);
    lk.lock(tctx);
    order.push_back(10);
    lk.unlock(tctx);
  });
  await([&] { return lk.waiter_count() == 2; }, true);
  finishes_within(std::chrono::milliseconds(2000), [&] { lk.unlock(ctx); });
  if (!times_out) lk.set_priority_threshold(ctx, 0);
  finishes_within(std::chrono::milliseconds(5000), [&] {
    low.join();
    high.join();
  });
  EXPECT_EQ(low_timed_out, times_out);
  EXPECT_FALSE(lk.reconfiguration_pending());
  EXPECT_EQ(lk.scheduler_kind(), SchedulerKind::kFcfs);
  EXPECT_EQ(lk.waiter_count(), 0u);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  return order;
}

TEST(QueueScheduler, PendingCellKindBehindAnIneligibleServedWaiter) {
  EXPECT_EQ(grants_behind_an_ineligible_waiter(/*times_out=*/false),
            (std::vector<int>{1, 10}));
}

TEST(QueueScheduler, PendingCellKindBehindAnIneligibleTimedOutWaiter) {
  EXPECT_EQ(grants_behind_an_ineligible_waiter(/*times_out=*/true),
            (std::vector<int>{10}));
}

TEST(QueueScheduler, TimeoutsRacingReconfiguration) {
  // Conditional waiters (short timeouts) racing kind flips: a record that
  // registered against kQueue may be migrated into a centralized module
  // (or orphaned) before its deadline - withdrawal must find it wherever
  // it landed.
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue));
  std::atomic<bool> stop{false};
  std::atomic<int> inside{0};
  std::thread holder([&] {
    native::Context ctx(dom);
    while (!stop.load(std::memory_order_relaxed)) {
      lk.lock(ctx);
      ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      inside.fetch_sub(1, std::memory_order_relaxed);
      lk.unlock(ctx);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> timed;
  for (unsigned t = 0; t < 3; ++t) {
    timed.emplace_back([&] {
      native::Context ctx(dom);
      while (!stop.load(std::memory_order_relaxed)) {
        if (lk.lock_for(ctx, 200'000)) {  // 200 us: often times out
          ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
          inside.fetch_sub(1, std::memory_order_relaxed);
          lk.unlock(ctx);
        }
      }
    });
  }
  {
    native::Context ctx(dom);
    for (int round = 0; round < 30; ++round) {
      lk.configure_scheduler(ctx, round % 2 == 0 ? SchedulerKind::kFcfs
                                                 : SchedulerKind::kQueue);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  holder.join();
  for (auto& w : timed) w.join();
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
}

/// Wall-clock length of a native storm (RELOCK_STRESS_MS, default 300).
std::chrono::milliseconds storm_length() {
  if (const char* env = std::getenv("RELOCK_STRESS_MS")) {
    return std::chrono::milliseconds(std::strtol(env, nullptr, 10));
  }
  return std::chrono::milliseconds(300);
}

// Linked grants under every kind of interference at once on kFcfs. Every
// client is a thread, so a fast release grants it linked and its record
// stays the cell's front until its own release unlinks it: three spinning
// clients, a client with a sleeping policy, and a lock_for client (granted
// linked by a fast release like the others; it quiesces the epoch and
// withdraws under meta when it times out, walking past a holder's
// record). A configuration thread flips kFcfs <-> kQueue and
// changes the waiting policy: each of those calls waits out in-flight
// fast releases only, never a hold, and must return within the watchdog.
// A plain counter under the lock catches a lost update, and the waiter
// count must read zero at rest.
TEST(QueueScheduler, HandoverStormWithFlipsAndPolicyChanges) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kFcfs));
  std::atomic<bool> stop{false};
  long counter = 0;  // guarded by lk alone
  std::atomic<long> completed{0};
  enum class Client { kSpin, kSleep, kTimed };
  std::vector<std::thread> clients;
  for (Client c : {Client::kSpin, Client::kSpin, Client::kSpin,
                   Client::kSleep, Client::kTimed}) {
    clients.emplace_back([&, c] {
      native::Context ctx(dom);
      if (c == Client::kSleep) {
        lk.set_thread_attributes(ctx, ctx.self(), LockAttributes::blocking());
      }
      long mine = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (c == Client::kTimed) {
          if (!lk.lock_for(ctx, 20'000)) continue;  // 20 us: often times out
        } else {
          lk.lock(ctx);
        }
        ++counter;
        lk.unlock(ctx);
        ++mine;
      }
      completed.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + storm_length();
  for (int round = 0; std::chrono::steady_clock::now() < deadline; ++round) {
    finishes_within(std::chrono::milliseconds(2000), [&] {
      native::Context ctx(dom);
      lk.configure_scheduler(ctx, round % 2 == 0 ? SchedulerKind::kQueue
                                                 : SchedulerKind::kFcfs);
    });
    finishes_within(std::chrono::milliseconds(2000), [&] {
      native::Context ctx(dom);
      lk.configure_waiting(ctx, round % 2 == 0 ? LockAttributes::backoff_spin(4)
                                               : LockAttributes::spin());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  finishes_within(std::chrono::milliseconds(5000), [&] {
    for (auto& t : clients) t.join();
  });
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(counter, completed.load()) << "lost update";
  EXPECT_EQ(lk.waiter_count(), 0u);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
}

// The holder-side handover leaves a linked grantee's record as the cell's
// front for the whole hold, and nothing may wait on that hold. A waiter is
// granted by a fast release (linked: it is a thread) and keeps the lock 50 ms. Meanwhile configure_waiting, a switch
// kFcfs -> kQueue -> kPriorityQueue (the last drains the cell, unlinking
// the holder's record) and another thread's lock_for(2 ms) must each
// return while the holder still holds, each under the 2 s watchdog. The
// holder's release then finds its record unlinked, and the lock keeps
// working under the priority module.
TEST(QueueScheduler, LinkedHolderDelaysNoConfigurationOrTimeout) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kFcfs));
  native::Context main_ctx(dom);
  std::atomic<bool> holding{false};
  std::atomic<bool> released{false};
  lk.lock(main_ctx);
  std::thread holder([&] {
    native::Context ctx(dom);
    lk.lock(ctx);  // queues behind main: granted by main's fast release
    holding.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true, std::memory_order_release);
    lk.unlock(ctx);
  });
  // Queued and marked: main's release is then a fast one, not the fissile
  // CAS.
  await([&] {
    return lk.waiter_count() == 1 && !lk.in_fast_mode(main_ctx);
  }, true);
  lk.unlock(main_ctx);
  await([&] { return holding.load(std::memory_order_acquire); }, true);

  const auto timed = [&](const char* what, const std::function<void()>& op) {
    const auto start = std::chrono::steady_clock::now();
    finishes_within(std::chrono::milliseconds(2000), op);
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(released.load(std::memory_order_acquire))
        << what << " returned only after the hold ended (" << ms.count()
        << " ms)";
  };
  timed("configure_waiting", [&] {
    native::Context ctx(dom);
    lk.configure_waiting(ctx, LockAttributes::backoff_spin(4));
  });
  timed("kFcfs -> kQueue", [&] {
    native::Context ctx(dom);
    lk.configure_scheduler(ctx, SchedulerKind::kQueue);
  });
  timed("kQueue -> kPriorityQueue", [&] {
    native::Context ctx(dom);
    lk.configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
  });
  timed("lock_for(2 ms)", [&] {
    native::Context ctx(dom);
    EXPECT_FALSE(lk.lock_for(ctx, 2'000'000));
  });
  finishes_within(std::chrono::milliseconds(2000), [&] { holder.join(); });
  EXPECT_FALSE(lk.reconfiguration_pending());
  EXPECT_EQ(lk.scheduler_kind(), SchedulerKind::kPriorityQueue);
  EXPECT_EQ(lk.waiter_count(), 0u);
  EXPECT_EQ(lk.state(main_ctx), LockState::kUnlocked);
  lk.lock(main_ctx);
  lk.unlock(main_ctx);
}

// One thread holds three cell-served locks, each through a contended
// grant (so each hold keeps its own pooled record linked in its lock's
// cell), and releases them in non-LIFO order while a second thread waits
// on every one of them. Each release must unlink its own lock's record,
// hand the lock to the waiter, and return the record to the pool without
// disturbing the records still linked in the other two cells.
TEST(QueueScheduler, OneThreadReleasesThreeLinkedHoldsOutOfOrder) {
  native::Domain dom;
  Lock a(dom, opts(SchedulerKind::kFcfs));
  Lock b(dom, opts(SchedulerKind::kQueue));
  Lock c(dom, opts(SchedulerKind::kFcfs));
  Lock* const locks[] = {&a, &b, &c};
  std::atomic<int> owner_stage{0};
  std::atomic<int> taken{0};
  long guarded[3] = {0, 0, 0};  // each guarded by its lock alone
  finishes_within(std::chrono::milliseconds(2000), [&] {
    native::Context other_ctx(dom);
    for (Lock* l : locks) l->lock(other_ctx);
    std::thread owner([&] {
      native::Context ctx(dom);
      for (int i = 0; i < 3; ++i) {
        owner_stage.store(i + 1, std::memory_order_release);
        locks[i]->lock(ctx);  // queued: granted by the unlock below
        ++guarded[i];
      }
      owner_stage.store(4, std::memory_order_release);
      // The other thread queues on all three before the releases.
      await([&] { return taken.load(std::memory_order_acquire) == 3; },
            true);
      for (int i : {1, 0, 2}) {
        const Lock& l = *locks[i];
        await([&] { return l.waiter_count() == 1; }, true);
        ++guarded[i];
        locks[i]->unlock(ctx);
      }
    });
    for (int i = 0; i < 3; ++i) {
      await([&] {
        return owner_stage.load(std::memory_order_acquire) > i &&
               locks[i]->waiter_count() == 1 &&
               !locks[i]->in_fast_mode(other_ctx);
      }, true);
      locks[i]->unlock(other_ctx);
    }
    await([&] { return owner_stage.load(std::memory_order_acquire) == 4; },
          true);
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back([&, i] {
        native::Context ctx(dom);
        taken.fetch_add(1, std::memory_order_acq_rel);
        locks[i]->lock(ctx);
        ++guarded[i];
        locks[i]->unlock(ctx);
      });
    }
    for (auto& w : waiters) w.join();
    owner.join();
  });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(guarded[i], 3) << "lock " << i;
    EXPECT_EQ(locks[i]->waiter_count(), 0u) << "lock " << i;
    native::Context ctx(dom);
    EXPECT_EQ(locks[i]->state(ctx), LockState::kUnlocked) << "lock " << i;
    locks[i]->lock(ctx);
    locks[i]->unlock(ctx);
  }
}

}  // namespace
}  // namespace relock

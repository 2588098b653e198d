// Timed-acquire deadline accuracy. The deadline for lock_for must be
// anchored at the moment the acquire STARTS, not lazily at the first time
// the wait loop happens to read the clock. The distinction only matters
// when the monitor's clock elision sets t0 = 0 (monitor disabled or the
// timing sampler skipping this operation) - so the same scenario runs with
// the monitor both off and on, and over both wait structures (the
// centralized barging word and a queued FCFS scheduler).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "relock/core/configurable_lock.hpp"
#include "relock/platform/native.hpp"
#include "relock/sync/barrier.hpp"
#include "relock/sync/condition_variable.hpp"
#include "relock/sync/semaphore.hpp"

namespace {

using namespace relock;
using NP = native::NativePlatform;
using Lock = ConfigurableLock<NP>;
using Clock = std::chrono::steady_clock;

constexpr auto kTimeout = std::chrono::milliseconds(60);
constexpr Nanos kTimeoutNs =
    std::chrono::duration_cast<std::chrono::nanoseconds>(kTimeout).count();
// CI containers stall threads for long stretches; only gross re-anchoring
// (or a lost deadline) should trip the upper bound.
constexpr auto kSlack = std::chrono::milliseconds(900);

void expect_timeout_accurate(SchedulerKind kind, bool monitor_on) {
  native::Domain domain;
  Lock::Options opts;
  opts.scheduler = kind;
  opts.attributes = LockAttributes::blocking();
  opts.monitor_enabled = monitor_on;
  Lock lock(domain, opts);

  std::atomic<bool> held{false};
  std::atomic<bool> done{false};
  // The holder keeps the lock until the waiter has finished timing out, so
  // the waiter's only way out is its deadline.
  std::thread holder([&] {
    native::Context ctx(domain);
    lock.lock(ctx);
    held.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    lock.unlock(ctx);
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  native::Context ctx(domain);
  const auto start = Clock::now();
  const bool acquired = lock.lock_for(ctx, kTimeoutNs);
  const auto elapsed = Clock::now() - start;
  done.store(true, std::memory_order_release);
  holder.join();

  EXPECT_FALSE(acquired) << to_string(kind)
                         << " monitor=" << monitor_on;
  // Lower bound: lock_for may not give up early. The wait began no later
  // than `start`, so the full timeout fits inside `elapsed`.
  EXPECT_GE(elapsed, kTimeout - std::chrono::milliseconds(2))
      << to_string(kind) << " monitor=" << monitor_on;
  EXPECT_LE(elapsed, kTimeout + kSlack)
      << to_string(kind) << " monitor=" << monitor_on;

  // And the lock is untouched by the withdrawal: a plain cycle succeeds.
  lock.lock(ctx);
  lock.unlock(ctx);
}

TEST(TimeoutAccuracy, CentralizedMonitorOff) {
  expect_timeout_accurate(SchedulerKind::kNone, /*monitor_on=*/false);
}

TEST(TimeoutAccuracy, CentralizedMonitorOn) {
  expect_timeout_accurate(SchedulerKind::kNone, /*monitor_on=*/true);
}

TEST(TimeoutAccuracy, QueuedMonitorOff) {
  // The regression this file exists for: monitor off elides t0, and the
  // queued slow path must still anchor the deadline at arrival.
  expect_timeout_accurate(SchedulerKind::kFcfs, /*monitor_on=*/false);
}

TEST(TimeoutAccuracy, QueuedMonitorOn) {
  expect_timeout_accurate(SchedulerKind::kFcfs, /*monitor_on=*/true);
}

// A reader-writer lock's timed shared acquire has the same contract. With
// the monitor off its arrival takes no timestamp (the clock is read only
// for the monitor's timing sample), so the explicit deadline must be
// anchored at arrival all the same; a writer holds the lock throughout.
TEST(TimeoutAccuracy, ReaderWriterSharedMonitorOff) {
  native::Domain domain;
  Lock::Options opts;
  opts.scheduler = SchedulerKind::kReaderWriter;
  opts.attributes = LockAttributes::blocking();
  Lock lock(domain, opts);

  std::atomic<bool> held{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    native::Context ctx(domain);
    lock.lock(ctx);
    held.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    lock.unlock(ctx);
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  native::Context ctx(domain);
  const auto start = Clock::now();
  const bool acquired = lock.lock_shared_for(ctx, kTimeoutNs);
  const auto elapsed = Clock::now() - start;
  done.store(true, std::memory_order_release);
  writer.join();

  EXPECT_FALSE(acquired);
  EXPECT_GE(elapsed, kTimeout - std::chrono::milliseconds(2));
  EXPECT_LE(elapsed, kTimeout + kSlack);
  lock.lock_shared(ctx);
  lock.unlock_shared(ctx);
}

// sync/ primitives carry the same contract: the deadline anchors when the
// timed call ENTERS, before any internal unlock/enqueue work. The CV case
// is the PR 10 regression - wait_for used to compute its deadline after
// releasing the caller's lock, so a release that ran a full handoff module
// silently extended the timeout.
TEST(TimeoutAccuracy, ConditionVariableAnchorsDeadlineAtEntry) {
  native::Domain domain;
  Lock::Options opts;
  opts.scheduler = SchedulerKind::kFcfs;
  opts.attributes = LockAttributes::blocking();
  Lock lock(domain, opts);
  ConditionVariable<NP> cv(domain);

  native::Context ctx(domain);
  lock.lock(ctx);
  const auto start = Clock::now();
  const bool signaled = cv.wait_for(ctx, lock, kTimeoutNs);
  const auto elapsed = Clock::now() - start;
  lock.unlock(ctx);

  EXPECT_FALSE(signaled);
  EXPECT_GE(elapsed, kTimeout - std::chrono::milliseconds(2));
  EXPECT_LE(elapsed, kTimeout + kSlack);
}

TEST(TimeoutAccuracy, SemaphoreAnchorsDeadlineAtEntry) {
  native::Domain domain;
  Semaphore<NP> sem(domain, /*initial=*/0,
                    Placement::any(), LockAttributes::blocking());

  native::Context ctx(domain);
  const auto start = Clock::now();
  const bool acquired = sem.acquire_for(ctx, kTimeoutNs);
  const auto elapsed = Clock::now() - start;

  EXPECT_FALSE(acquired);
  EXPECT_GE(elapsed, kTimeout - std::chrono::milliseconds(2));
  EXPECT_LE(elapsed, kTimeout + kSlack);
  // The withdrawal left the queue clean: a release hands the permit to the
  // counter, not a ghost node, and a fresh acquire consumes it.
  sem.release(ctx);
  EXPECT_TRUE(sem.acquire_for(ctx, kTimeoutNs));
}

TEST(TimeoutAccuracy, BarrierSleepersWakePromptly) {
  // The barrier has no timed user API; its deadline discipline is the
  // sleep-phase bound (attrs.sleep_ns) re-checked against the sense word.
  // A last arriver must release a sleeping waiter well inside one sleep
  // quantum, not strand it until timer expiry.
  native::Domain domain;
  Barrier<NP> barrier(domain, /*parties=*/2, Placement::any(),
                      LockAttributes::blocking());

  std::thread other([&] {
    native::Context ctx(domain);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    barrier.arrive_and_wait(ctx);
  });

  native::Context ctx(domain);
  const auto start = Clock::now();
  barrier.arrive_and_wait(ctx);
  const auto elapsed = Clock::now() - start;
  other.join();

  // ~30ms of genuine waiting plus wake latency; anything near a blocking
  // policy's full sleep quantum (kForever) would hang the test instead.
  EXPECT_LE(elapsed, std::chrono::milliseconds(30) + kSlack);
}

TEST(TimeoutAccuracy, TimeoutIsCountedByTheMonitor) {
  native::Domain domain;
  Lock::Options opts;
  opts.scheduler = SchedulerKind::kFcfs;
  opts.attributes = LockAttributes::blocking();
  opts.monitor_enabled = true;
  Lock lock(domain, opts);

  std::atomic<bool> held{false};
  std::atomic<bool> done{false};
  std::thread holder([&] {
    native::Context ctx(domain);
    lock.lock(ctx);
    held.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    lock.unlock(ctx);
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  native::Context ctx(domain);
  EXPECT_FALSE(lock.lock_for(ctx, kTimeoutNs));
  done.store(true, std::memory_order_release);
  holder.join();
  EXPECT_GE(lock.monitor().snapshot().timeouts, 1u);
}

}  // namespace

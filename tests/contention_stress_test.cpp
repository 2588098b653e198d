// Multithreaded stress of the contended slow path on NativePlatform: real
// threads hammer lock/unlock while reconfiguration threads flip the
// scheduler module and waiting policy underneath them. Exercises the
// lock-free queue cell (tail swap vs. drain vs. lost-release recheck), the
// orphan queue (kNone reconfiguration races), per-thread attribute
// overrides, and conditional acquisition timeouts - the oracle throughout
// is mutual exclusion plus ops conservation - and waiter accounting on
// every arrival path.
//
// Durations are wall-clock-bounded (RELOCK_STRESS_MS, default 1000 per
// scenario) so the suite stays inside the ctest timeout on one core and
// under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/platform/native.hpp"
#include "stress_seed.hpp"

namespace relock {
namespace {

using native::NativePlatform;
using testing::SplitMix64;
using testing::stress_seed;
using Lock = ConfigurableLock<NativePlatform>;

Nanos stress_window_ns() {
  if (const char* env = std::getenv("RELOCK_STRESS_MS")) {
    return static_cast<Nanos>(std::strtoull(env, nullptr, 10)) * 1'000'000;
  }
  return 1'000'000'000;  // 1 s per scenario
}

struct Oracle {
  std::atomic<std::uint32_t> in_cs{0};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> violations{0};
  std::uint64_t shared_counter = 0;  // guarded by the lock under test

  void enter_cs() {
    if (in_cs.fetch_add(1, std::memory_order_acq_rel) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    ++shared_counter;
    in_cs.fetch_sub(1, std::memory_order_acq_rel);
    ops.fetch_add(1, std::memory_order_relaxed);
  }
};

// Workers lock/unlock as fast as possible; a reconfigurator cycles the
// scheduler module (including kNone, which routes racing arrivals through
// the orphan queue) and the waiting policy.
TEST(ContentionStress, ReconfigurationUnderLoad) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs});
  Oracle oracle;
  std::atomic<bool> stop{false};

  const unsigned workers = 6;
  std::vector<std::thread> threads;
  threads.reserve(workers + 1);
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock(ctx);
        oracle.enter_cs();
        lock.unlock(ctx);
      }
    });
  }
  threads.emplace_back([&] {
    native::Context ctx(dom);
    static constexpr SchedulerKind kKinds[] = {
        SchedulerKind::kFcfs, SchedulerKind::kNone,
        SchedulerKind::kPriorityQueue, SchedulerKind::kHandoff,
        SchedulerKind::kNone};
    static const LockAttributes kPolicies[] = {
        LockAttributes::spin(), LockAttributes::combined(100),
        LockAttributes::blocking()};
    SplitMix64 rng(stress_seed());
    const Nanos deadline = monotonic_now() + stress_window_ns();
    while (monotonic_now() < deadline) {
      lock.configure_scheduler(ctx, kKinds[rng.below(std::size(kKinds))]);
      lock.configure_waiting(ctx, kPolicies[rng.below(std::size(kPolicies))]);
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (auto& th : threads) th.join();

  native::Context main_ctx(dom);
  lock.lock(main_ctx);
  const std::uint64_t counted = oracle.shared_counter;
  lock.unlock(main_ctx);

  EXPECT_EQ(oracle.violations.load(), 0u);
  EXPECT_EQ(counted, oracle.ops.load());
  EXPECT_GT(oracle.ops.load(), 0u);
  EXPECT_EQ(lock.waiter_count(), 0u);
}

// Per-thread attribute churn while those same threads acquire: exercises
// the lock-free flat-slot reads against seqlock writes.
TEST(ContentionStress, PerThreadAttributeChurn) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs});
  Oracle oracle;
  std::atomic<bool> stop{false};

  const unsigned workers = 4;
  std::vector<std::thread> threads;
  threads.reserve(workers + 1);
  std::atomic<ThreadId> worker_ids[workers];
  for (auto& id : worker_ids) id.store(kInvalidThread);

  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      native::Context ctx(dom);
      worker_ids[t].store(ctx.self());
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock(ctx);
        oracle.enter_cs();
        lock.unlock(ctx);
      }
    });
  }
  threads.emplace_back([&] {
    native::Context ctx(dom);
    SplitMix64 rng(stress_seed() ^ 0x5eedu);
    const Nanos deadline = monotonic_now() + stress_window_ns();
    while (monotonic_now() < deadline) {
      const ThreadId victim =
          worker_ids[rng.below(workers)].load(std::memory_order_relaxed);
      if (victim != kInvalidThread) {
        if (rng.below(2) == 0) {
          lock.set_thread_attributes(
              ctx, victim, LockAttributes::combined(50));
        } else {
          lock.clear_thread_attributes(ctx, victim);
        }
      }
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (auto& th : threads) th.join();

  native::Context main_ctx(dom);
  lock.lock(main_ctx);
  const std::uint64_t counted = oracle.shared_counter;
  lock.unlock(main_ctx);

  EXPECT_EQ(oracle.violations.load(), 0u);
  EXPECT_EQ(counted, oracle.ops.load());
  EXPECT_GT(oracle.ops.load(), 0u);
}

// Conditional acquisitions racing grants: every lock_for either times out
// or enters the critical section; timed-out waiters must be withdrawn
// cleanly (no dangling queue-cell or module entries once threads exit).
TEST(ContentionStress, TimeoutsRaceGrants) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs});
  Oracle oracle;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> timeouts{0};

  const unsigned workers = 6;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      native::Context ctx(dom);
      SplitMix64 rng(stress_seed() ^ (t * 0x9E3779B97F4A7C15ull));
      while (!stop.load(std::memory_order_relaxed)) {
        // Mix unconditional holders with short conditional waiters whose
        // deadlines (5-40 us) are jittered so timeouts land at every phase
        // of the grant chain.
        if (t % 2 == 0) {
          lock.lock(ctx);
          oracle.enter_cs();
          lock.unlock(ctx);
        } else if (lock.lock_for(ctx, 5'000 + rng.below(35'000))) {
          oracle.enter_cs();
          lock.unlock(ctx);
        } else {
          timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(stress_window_ns()));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  native::Context main_ctx(dom);
  lock.lock(main_ctx);
  const std::uint64_t counted = oracle.shared_counter;
  lock.unlock(main_ctx);

  EXPECT_EQ(oracle.violations.load(), 0u);
  EXPECT_EQ(counted, oracle.ops.load());
  EXPECT_EQ(lock.waiter_count(), 0u);
}

// Waiter accounting: waiter_count() is arrivals minus departures, two
// monotone counters bumped on different cores. Over a storm on one arrival
// path - the queue cell popped (kFcfs, kQueue), the queue cell drained
// into a module (kPriorityQueue; its case keeps the name "Stack" from the
// arrival stack that path replaced), the meta-guarded reader-writer
// registration, the
// barging claim (kNone) - with every fourth acquisition a short lock_for
// (the timeout withdrawal path), a sampler must never read more waiters
// than there are threads (a wrapped or drifting counter would), and the
// count must read 0 once the storm drains.
class WaiterAccounting : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(WaiterAccounting, BoundedByThreadsAndZeroAtQuiescence) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = GetParam()});
  const bool rw = GetParam() == SchedulerKind::kReaderWriter;
  Oracle oracle;
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> worst{0};
  std::atomic<std::uint64_t> samples{0};
  constexpr unsigned kWorkers = 4;

  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      native::Context ctx(dom);
      for (std::uint64_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        const bool timed = i % 4 == 3;
        if (rw && i % 2 == 0) {
          if (timed ? lock.lock_shared_for(ctx, 20'000)
                    : lock.lock_shared(ctx)) {
            lock.unlock_shared(ctx);
          }
          continue;
        }
        if (timed ? lock.lock_for(ctx, 20'000) : lock.lock(ctx)) {
          oracle.enter_cs();
          lock.unlock(ctx);
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint32_t n = lock.waiter_count();
      if (n > worst.load(std::memory_order_relaxed)) {
        worst.store(n, std::memory_order_relaxed);
      }
      samples.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(stress_window_ns() / 2));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  EXPECT_EQ(oracle.violations.load(), 0u);
  EXPECT_GT(oracle.ops.load(), 0u);
  EXPECT_GT(samples.load(), 0u);
  EXPECT_LE(worst.load(), kWorkers) << "waiter_count() exceeded the threads";
  EXPECT_EQ(lock.waiter_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ArrivalPaths, WaiterAccounting,
    ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kQueue,
                      SchedulerKind::kPriorityQueue,
                      SchedulerKind::kReaderWriter, SchedulerKind::kNone),
    [](const ::testing::TestParamInfo<SchedulerKind>& param) {
      switch (param.param) {
        case SchedulerKind::kFcfs: return std::string("Fcfs");
        case SchedulerKind::kQueue: return std::string("Queue");
        case SchedulerKind::kPriorityQueue: return std::string("Stack");
        case SchedulerKind::kReaderWriter: return std::string("GuardedRw");
        default: return std::string("Barging");
      }
    });

}  // namespace
}  // namespace relock

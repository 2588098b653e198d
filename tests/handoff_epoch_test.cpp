// Direct-handoff release path vs. the configuration-quiescence epoch, on
// NativePlatform with real threads. The fast release publishes ownership
// with a single store to the successor it selects (for FCFS, the record
// the queue cell's previous pop staged); configuration operations break
// that epoch (Dekker handshake in QuiesceGuard) and mutate the modules
// under meta. These tests pin down the two properties those mutations
// must preserve:
//   - FCFS grant order survives epoch flips (a reconfiguration mid-storm
//     must not reorder the queue or lose the staged successor);
//   - priority-threshold semantics survive threshold raises/lowers and a
//     scheduler swap while ineligible waiters sit stranded in the
//     outgoing module.
// Runs under TSan in CI alongside the contention stress suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
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
  return 1'000'000'000;  // 1 s for the storm scenario
}

/// Waits (bounded) until the lock has registered `n` waiters.
void await_waiters(const Lock& lock, std::uint32_t n) {
  const Nanos deadline = monotonic_now() + 10'000'000'000;  // 10 s
  while (lock.waiter_count() != n) {
    ASSERT_LT(monotonic_now(), deadline)
        << "expected " << n << " waiters, have " << lock.waiter_count();
    std::this_thread::yield();
  }
}

// Waiters arrive one at a time (serialized on waiter_count) while the lock
// is held, so the FIFO arrival order is known exactly. Waiting-policy
// reconfigurations are applied while they queue - each one quiesces the
// fast path - and again while the grant chain is running, with a record
// staged in the cell. Grants must still come out in arrival order.
TEST(HandoffEpoch, FcfsOrderSurvivesWaitingPolicyFlips) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kFcfs});
  constexpr std::uint32_t kWaiters = 6;
  constexpr int kRounds = 4;

  static const LockAttributes kPolicies[] = {
      LockAttributes::spin(), LockAttributes::blocking(),
      LockAttributes::combined(100)};

  native::Context main_ctx(dom);
  SplitMix64 rng(stress_seed());
  for (int round = 0; round < kRounds; ++round) {
    lock.lock(main_ctx);

    std::atomic<std::uint32_t> next_slot{0};
    std::uint32_t grant_order[kWaiters] = {};
    std::vector<std::thread> team;
    team.reserve(kWaiters);
    for (std::uint32_t i = 0; i < kWaiters; ++i) {
      team.emplace_back([&, i] {
        native::Context ctx(dom);
        lock.lock(ctx);
        grant_order[next_slot.fetch_add(1, std::memory_order_relaxed)] = i;
        lock.unlock(ctx);
      });
      // Serialize arrivals: thread i is queued before i+1 starts.
      await_waiters(lock, i + 1);
      // Break the epoch mid-arrival: the reconfiguration must not drop or
      // reorder any queued record.
      lock.configure_waiting(main_ctx,
                             kPolicies[rng.below(std::size(kPolicies))]);
    }

    lock.unlock(main_ctx);  // start the handoff chain
    // More epoch flips while grants are in flight.
    for (std::size_t f = 0; f < 8; ++f) {
      lock.configure_waiting(main_ctx,
                             kPolicies[rng.below(std::size(kPolicies))]);
      std::this_thread::yield();
    }
    for (auto& t : team) t.join();

    for (std::uint32_t i = 0; i < kWaiters; ++i) {
      EXPECT_EQ(grant_order[i], i) << "FCFS order broken at position " << i
                                   << " in round " << round;
    }
    EXPECT_EQ(lock.waiter_count(), 0u);
  }
}

// Priority-threshold semantics across a raise/lower cycle: waiters below
// the threshold stay stranded while eligible waiters are served; lowering
// the threshold on a free lock re-runs grant selection and rescues them.
TEST(HandoffEpoch, ThresholdRaiseStrandsLowerRescues) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kPriorityThreshold});
  constexpr std::uint32_t kLow = 3;
  constexpr std::uint32_t kHigh = 3;

  native::Context main_ctx(dom);
  lock.lock(main_ctx);
  lock.set_priority_threshold(main_ctx, 5);  // strand priorities < 5

  std::atomic<std::uint32_t> grants{0};
  std::atomic<std::uint32_t> low_grants{0};
  std::uint32_t high_seen_lows[kHigh] = {};  // lows granted before high i

  std::vector<std::thread> low_team;
  low_team.reserve(kLow);
  for (std::uint32_t i = 0; i < kLow; ++i) {
    low_team.emplace_back([&] {
      native::Context ctx(dom, /*priority=*/1);
      lock.lock(ctx);
      grants.fetch_add(1, std::memory_order_relaxed);
      low_grants.fetch_add(1, std::memory_order_relaxed);
      lock.unlock(ctx);
    });
  }
  await_waiters(lock, kLow);

  std::vector<std::thread> high_team;
  high_team.reserve(kHigh);
  for (std::uint32_t i = 0; i < kHigh; ++i) {
    high_team.emplace_back([&, i] {
      native::Context ctx(dom, /*priority=*/10);
      lock.lock(ctx);
      grants.fetch_add(1, std::memory_order_relaxed);
      high_seen_lows[i] = low_grants.load(std::memory_order_relaxed);
      lock.unlock(ctx);
    });
  }
  await_waiters(lock, kLow + kHigh);

  lock.unlock(main_ctx);
  for (auto& t : high_team) t.join();  // only the highs are eligible

  // All highs served, every one of them before any low was granted.
  EXPECT_EQ(grants.load(), kHigh);
  for (std::uint32_t i = 0; i < kHigh; ++i) {
    EXPECT_EQ(high_seen_lows[i], 0u)
        << "a sub-threshold waiter was granted while stranded";
  }
  EXPECT_EQ(lock.waiter_count(), kLow);

  // Lowering the threshold on the free lock must re-run grant selection.
  lock.set_priority_threshold(main_ctx, 0);
  for (auto& t : low_team) t.join();
  EXPECT_EQ(grants.load(), kLow + kHigh);
  EXPECT_EQ(lock.waiter_count(), 0u);
}

// Scheduler swap while ineligible waiters sit stranded in the outgoing
// module. Configuration-delay rule: the outgoing priority-threshold module
// keeps its pre-registered waiters and serves them first once they become
// eligible; arrivals after the swap register with the incoming FCFS module
// and are served - in arrival order - only after the outgoing module
// drains.
TEST(HandoffEpoch, SchedulerSwapWithStrandedWaiters) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kPriorityThreshold});
  constexpr std::uint32_t kStranded = 3;
  constexpr std::uint32_t kArrivals = 3;

  native::Context main_ctx(dom);
  lock.lock(main_ctx);
  lock.set_priority_threshold(main_ctx, 5);

  std::atomic<std::uint32_t> next_slot{0};
  std::uint32_t grant_order[kStranded + kArrivals] = {};

  std::vector<std::thread> team;
  team.reserve(kStranded + kArrivals);
  for (std::uint32_t i = 0; i < kStranded; ++i) {
    team.emplace_back([&] {
      native::Context ctx(dom, /*priority=*/1);  // below threshold
      lock.lock(ctx);
      // Slots [0, kStranded): pre-swap registrants must be served first.
      grant_order[next_slot.fetch_add(1, std::memory_order_relaxed)] = 0;
      lock.unlock(ctx);
    });
    await_waiters(lock, i + 1);
  }

  // Swap the scheduler out from under the stranded waiters. They stay in
  // the outgoing module under the configuration-delay rule.
  lock.configure_scheduler(main_ctx, SchedulerKind::kFcfs);
  EXPECT_TRUE(lock.reconfiguration_pending());

  for (std::uint32_t i = 0; i < kArrivals; ++i) {
    team.emplace_back([&, i] {
      native::Context ctx(dom, /*priority=*/10);
      lock.lock(ctx);
      grant_order[next_slot.fetch_add(1, std::memory_order_relaxed)] =
          kStranded + i;
      lock.unlock(ctx);
    });
    await_waiters(lock, kStranded + i + 1);
  }

  // Make the stranded waiters eligible, then release: the outgoing module
  // must drain (all stranded waiters) before the incoming FCFS module
  // serves the post-swap arrivals in their arrival order.
  lock.set_priority_threshold(main_ctx, 0);
  lock.unlock(main_ctx);
  for (auto& t : team) t.join();

  for (std::uint32_t i = 0; i < kStranded; ++i) {
    EXPECT_EQ(grant_order[i], 0u)
        << "post-swap arrival served before the outgoing module drained";
  }
  for (std::uint32_t i = 0; i < kArrivals; ++i) {
    EXPECT_EQ(grant_order[kStranded + i], kStranded + i)
        << "incoming FCFS module broke arrival order at " << i;
  }
  EXPECT_EQ(lock.waiter_count(), 0u);
  EXPECT_FALSE(lock.reconfiguration_pending());
  EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kFcfs);
}

// Storm: workers of mixed priority hammer the lock through conditional
// acquisitions while a reconfigurator raises and lowers the threshold and
// flips the waiting policy - every flip is an epoch break racing live fast
// handoffs. Oracle: mutual exclusion, ops conservation, and no waiter
// leaked once the storm drains.
TEST(HandoffEpoch, ThresholdChurnStormKeepsExclusionAndConservation) {
  native::Domain dom(64);
  Lock lock(dom, {.scheduler = SchedulerKind::kPriorityThreshold});

  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> in_cs{0};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> violations{0};
  std::uint64_t shared_counter = 0;  // guarded by the lock under test

  const unsigned workers = 6;
  std::vector<std::thread> team;
  team.reserve(workers + 1);
  for (unsigned t = 0; t < workers; ++t) {
    team.emplace_back([&, t] {
      // Priorities 0..5: the reconfigurator's threshold sweep strands a
      // changing subset; conditional acquisition keeps them live.
      native::Context ctx(dom, static_cast<Priority>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        if (!lock.lock_for(ctx, 200'000)) continue;  // 200 us, may strand
        if (in_cs.fetch_add(1, std::memory_order_acq_rel) != 0) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        ++shared_counter;
        in_cs.fetch_sub(1, std::memory_order_acq_rel);
        ops.fetch_add(1, std::memory_order_relaxed);
        lock.unlock(ctx);
      }
    });
  }
  team.emplace_back([&] {
    native::Context ctx(dom);
    static const LockAttributes kPolicies[] = {
        LockAttributes::spin(), LockAttributes::combined(100),
        LockAttributes::blocking()};
    SplitMix64 rng(stress_seed() ^ 0x5707u);
    const Nanos deadline = monotonic_now() + stress_window_ns();
    while (monotonic_now() < deadline) {
      lock.set_priority_threshold(
          ctx, static_cast<Priority>(rng.below(workers + 1)));  // 0..6
      lock.configure_waiting(ctx, kPolicies[rng.below(std::size(kPolicies))]);
      std::this_thread::yield();
    }
    lock.set_priority_threshold(ctx, 0);  // let the storm drain
    stop.store(true, std::memory_order_relaxed);
  });
  for (auto& th : team) th.join();

  native::Context main_ctx(dom);
  lock.lock(main_ctx);
  const std::uint64_t counted = shared_counter;
  lock.unlock(main_ctx);

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(counted, ops.load());
  EXPECT_GT(ops.load(), 0u);
  EXPECT_EQ(lock.waiter_count(), 0u);
}

}  // namespace
}  // namespace relock

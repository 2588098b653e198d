// Fissile fast-path entry/exit invariants on NativePlatform. The fast path
// has no mode word of its own - eligibility is fixed at construction and
// "fast mode" is just the contended bit of the state word being clear - so
// what these tests pin down is the lifecycle: which configurations are
// eligible at all, that uncontended cycles stay in fast mode, that the
// first contender demotes the lock to full mode, and that the lock comes
// back to fast mode on its own once waiters drain or a reconfiguration
// completes (no re-arming step exists to forget). The monitor-balance
// cases check that every release entry - the fissile CAS first among them
// - ends exactly one counted hold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/platform/native.hpp"

namespace relock {
namespace {

using native::NativePlatform;
using Lock = ConfigurableLock<NativePlatform>;

Lock::Options opts(SchedulerKind kind = SchedulerKind::kFcfs) {
  Lock::Options o;
  o.scheduler = kind;
  o.attributes = LockAttributes::spin();
  return o;
}

/// Polls a probe until it reports `want` (bounded): the transitions under
/// test are driven by another thread's store, not by this thread's calls.
template <typename F>
void await(F&& probe, bool want) {
  const Nanos deadline = monotonic_now() + 10'000'000'000;  // 10 s
  while (probe() != want) {
    ASSERT_LT(monotonic_now(), deadline) << "probe never reached state";
    std::this_thread::yield();
  }
}

TEST(FastPath, EligibilityIsFixedByConfiguration) {
  native::Domain dom;
  // Every exclusive passive scheduler kind is fissile-eligible.
  for (SchedulerKind k :
       {SchedulerKind::kNone, SchedulerKind::kFcfs,
        SchedulerKind::kPriorityQueue, SchedulerKind::kHandoff,
        SchedulerKind::kPriorityThreshold, SchedulerKind::kQueue}) {
    Lock lk(dom, opts(k));
    EXPECT_TRUE(lk.fast_path_eligible()) << to_string(k);
  }
  // Recursion, advisory mode, active execution, and reader-writer
  // scheduling all need per-acquire bookkeeping the fast path skips.
  Lock::Options recursive = opts();
  recursive.recursive = true;
  EXPECT_FALSE(Lock(dom, recursive).fast_path_eligible());
  Lock::Options advisory = opts();
  advisory.advisory = true;
  EXPECT_FALSE(Lock(dom, advisory).fast_path_eligible());
  Lock::Options active = opts();
  active.execution = Execution::kActive;
  EXPECT_FALSE(Lock(dom, active).fast_path_eligible());
  EXPECT_FALSE(Lock(dom, opts(SchedulerKind::kReaderWriter))
                   .fast_path_eligible());
}

TEST(FastPath, UncontendedCyclesStayInFastMode) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  for (int i = 0; i < 100; ++i) {
    lk.lock(ctx);
    // Fast mode is a property of the contended bit, not of being free:
    // a fast hold is still fast mode, and state() still reports it held.
    EXPECT_TRUE(lk.in_fast_mode(ctx));
    EXPECT_EQ(lk.state(ctx), LockState::kLocked);
    lk.unlock(ctx);
    EXPECT_TRUE(lk.in_fast_mode(ctx));
    EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  }
  // The conditional entry points share the fast acquire.
  EXPECT_TRUE(lk.try_lock(ctx));
  EXPECT_FALSE(lk.try_lock(ctx));  // held: single attempt fails cleanly
  lk.unlock(ctx);
  EXPECT_TRUE(lk.lock_for(ctx, 1'000'000));
  lk.unlock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(FastPath, ReentersFastModeAfterWaitersDrain) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread contender([&] {
    native::Context tctx(dom);
    lk.lock(tctx);
    lk.unlock(tctx);
  });
  // The contender's arrival mark demotes the lock to full mode while we
  // still hold it.
  await([&] { return lk.in_fast_mode(ctx); }, false);
  lk.unlock(ctx);  // contended bit set: routed through the full release
  contender.join();
  // The contender was granted by handoff (full mode is sticky across the
  // chain); its own release found nobody waiting and published the word
  // free - which is the one transition that clears the contended bit.
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  lk.lock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  lk.unlock(ctx);
}

TEST(FastPath, ReentersFastModeAfterReconfiguration) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  lk.unlock(ctx);
  // A scheduler swap quiesces the fast release path for its duration but
  // must hand the fast mode straight back: eligibility is construction-
  // fixed and the contended bit was never set.
  lk.configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
  EXPECT_TRUE(lk.fast_path_eligible());
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  lk.lock(ctx);
  lk.unlock(ctx);
  lk.configure_waiting(ctx, LockAttributes::blocking());
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  // Same through a possession window (released unchanged): possession
  // breaks no epoch, so the cycle inside it stays fissile.
  ASSERT_TRUE(lk.try_possess(ctx, AttributeClass::kWaitingPolicy));
  lk.lock(ctx);
  lk.unlock(ctx);
  lk.release_possession(ctx, AttributeClass::kWaitingPolicy);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
  lk.lock(ctx);
  lk.unlock(ctx);
}

TEST(FastPath, ContendedConfigureDrainsAndComesBackFast) {
  // Demote to full mode, reconfigure while a waiter exists, and verify the
  // drain still converges to fast mode afterwards.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread contender([&] {
    native::Context tctx(dom);
    lk.lock(tctx);
    lk.unlock(tctx);
  });
  await([&] { return lk.in_fast_mode(ctx); }, false);
  lk.configure_waiting(ctx, LockAttributes::blocking());
  lk.unlock(ctx);
  contender.join();
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

// ------------------------------------------------------------------------
// Monitor balance across every release entry on NativePlatform. Each
// release ends exactly one counted hold, whichever way it leaves: the
// fissile CAS, the single-store fast release, the guarded release's
// free-publish or grant, a hinted release, an active lock's release with no
// manager serving. Workers mix lock, try_lock and short lock_for calls (a
// timeout is no acquisition) with hinted and plain unlocks.
// ------------------------------------------------------------------------

struct BalanceCase {
  const char* name;
  SchedulerKind kind;
  LockAttributes attrs;
  Execution execution;
  bool hinted;  ///< release with unlock_to(another worker)
};

void PrintTo(const BalanceCase& c, std::ostream* os) { *os << c.name; }

class MonitorBalance : public ::testing::TestWithParam<BalanceCase> {};

TEST_P(MonitorBalance, EveryReleaseEndsOneCountedHold) {
  const BalanceCase& c = GetParam();
  constexpr int kWorkers = 3;
  constexpr int kRounds = 400;
  native::Domain dom;
  Lock::Options o = opts(c.kind);
  o.attributes = c.attrs;
  o.execution = c.execution;
  o.monitor_enabled = true;
  Lock lk(dom, o);
  {
    // Uncontended warm-up: on a fast-eligible lock every release here is
    // the fissile CAS.
    native::Context ctx(dom);
    for (int i = 0; i < 50; ++i) {
      lk.lock(ctx);
      lk.unlock(ctx);
    }
  }
  std::atomic<ThreadId> tids[kWorkers];
  for (auto& t : tids) t.store(kInvalidThread);
  std::atomic<int> inside{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> team;
  for (int w = 0; w < kWorkers; ++w) {
    team.emplace_back([&, w] {
      native::Context ctx(dom);
      tids[w].store(ctx.self());
      ready.fetch_add(1);
      while (ready.load() < kWorkers) std::this_thread::yield();
      for (int i = 0; i < kRounds; ++i) {
        bool held;
        switch (i % 4) {
          case 0:
            held = lk.try_lock(ctx) || lk.lock(ctx);
            break;
          case 1:
            held = lk.lock_for(ctx, 2'000);  // 2 us: often times out
            break;
          default:
            held = lk.lock(ctx);
        }
        if (!held) continue;
        EXPECT_EQ(inside.fetch_add(1), 0);
        // A sleep inside some critical sections makes the others queue
        // (and sleep, under a sleeping policy) on any number of processors.
        if (i % 8 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        inside.fetch_sub(1);
        if (c.hinted) {
          lk.unlock_to(ctx, tids[(w + 1) % kWorkers].load());
        } else {
          lk.unlock(ctx);
        }
      }
    });
  }
  for (auto& t : team) t.join();

  const LockStats s = lk.monitor().snapshot();
  std::printf("[balance] %s: %llu acquisitions, %llu contended, %llu "
              "handoffs, %llu timeouts\n",
              c.name, static_cast<unsigned long long>(s.acquisitions),
              static_cast<unsigned long long>(s.contended_acquisitions),
              static_cast<unsigned long long>(s.handoffs),
              static_cast<unsigned long long>(s.timeouts));
  EXPECT_GT(s.acquisitions, 0u);
  EXPECT_EQ(s.releases, s.acquisitions);
  EXPECT_LE(s.timed_holds, s.releases);
  if (c.kind == SchedulerKind::kNone) {
    // Centralized: a contended acquisition is a barging claim, never a
    // grant.
    EXPECT_EQ(s.handoffs, 0u);
  } else {
    EXPECT_EQ(s.handoffs, s.contended_acquisitions)
        << "every contended acquisition under a scheduler is a grant";
  }
  EXPECT_EQ(lk.waiter_count(), 0u);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

INSTANTIATE_TEST_SUITE_P(
    ReleaseEntries, MonitorBalance,
    ::testing::Values(
        // Fissile CAS (warm-up, try_lock) and the single-store fast release.
        BalanceCase{"fcfs", SchedulerKind::kFcfs, LockAttributes::spin(),
                    Execution::kPassive, false},
        // Module select on the fast release.
        BalanceCase{"priority", SchedulerKind::kPriorityQueue,
                    LockAttributes::spin(), Execution::kPassive, false},
        // Barging claims; sleepers force the guarded free-publish.
        BalanceCase{"none", SchedulerKind::kNone,
                    LockAttributes::combined(8), Execution::kPassive, false},
        // unlock_to with a hint.
        BalanceCase{"handoff_hint", SchedulerKind::kHandoff,
                    LockAttributes::spin(), Execution::kPassive, true},
        // An active lock with no manager serving releases inline, guarded.
        BalanceCase{"active_not_serving", SchedulerKind::kFcfs,
                    LockAttributes::spin(), Execution::kActive, false}),
    [](const ::testing::TestParamInfo<BalanceCase>& i) {
      return std::string(i.param.name);
    });

}  // namespace
}  // namespace relock

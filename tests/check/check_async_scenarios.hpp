// Checker scenarios for the async front-end (relock/async/): coroutine
// suspension and resumption become engine points ("co.suspend",
// "co.resume", "mgr.post", "mgr.park"), so the DFS explores grant
// delivery, timeout withdrawal, and manager parking against the lock's
// ordinary paths. Compiles to nothing when the build has no coroutine
// support (RELOCK_ASYNC_ENABLED == 0), same pattern as the headers it
// tests.
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include "check_scenarios.hpp"
#include "relock/async/awaiter.hpp"
#include "relock/async/manager.hpp"
#include "relock/async/task.hpp"

namespace relock::chk::scenarios {

/// A coroutine's timed acquisition races the holder's release AND a
/// scheduler reconfiguration: the grant hook may fire from the holder's
/// fast release or the FCFS module, the manager's timer may withdraw the
/// record first (the async analogue of MCS-with-timeout self-removal,
/// which quiesces the epoch only at expiry), and the kFcfs ->
/// kPriorityQueue swap's quiescence epoch overlaps both.
/// kNone fairness: the reconfiguration splits generations and a timed
/// waiter may withdraw, so only conservation / exclusion / epoch oracles
/// apply.
inline Scenario async_grant2() {
  Scenario s;
  s.name = "async_grant2";
  s.fairness = FairnessMode::kNone;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
    });
    f.add_thread(1, [lk](Context& ctx) {
      async::ManagerExecutor<CheckPlatform> mgr;
      async::AsyncLock<CheckPlatform> alk(*lk, mgr);
      async::Task t = [](async::AsyncLock<CheckPlatform>& alk_,
                         Context& launch) -> async::Task {
        async::AsyncGrant<CheckPlatform> g =
            co_await alk_.try_lock_for_async(launch, 300);
        if (g) {
          g.ctx().cs_enter();
          g.ctx().cs_exit();
          g.unlock();
        }
      }(alk, ctx);
      mgr.run_until(ctx, [&t] { return t.done(); });
      // A ScheduleAborted thrown inside the resumed frame lands in the
      // task's promise (coroutines trap escaping exceptions); re-raise it
      // so the engine sees the abort unwind this thread like any other.
      t.rethrow();
    });
  };
  return s;
}

/// Regression (review finding, PR 10): the fissile fast release must fire
/// the coroutine grant hook only AFTER retiring from the in-flight epoch.
/// With the hook still inside the epoch an inline-executed frame runs
/// while its resumer's in-flight count is up, so anything in the frame
/// that quiesces the epoch spins on a count that cannot retire: here the
/// frame reconfigures its waiting policy (to the one it already has)
/// before it unlocks, and under the wrong ordering its QuiesceGuard blows
/// the step budget. The frame must quiesce itself: the timed waiter's
/// resolution quiesces before it takes meta, so a frame that only
/// unlocks (guarded, through meta) gets past it either way.
/// Holder + untimed inline-executor coroutine + sync lock_for on one
/// FCFS blocking lock (blocking so the timed waiter parks and the DFS can
/// fire its timeout as an action mid-release - a spinning waiter would
/// need hundreds of literal clock steps); kNone fairness (the timed
/// waiter may withdraw).
inline Scenario async_inline2() {
  Scenario s;
  s.name = "async_inline2";
  s.fairness = FairnessMode::kNone;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      // Hold first, then launch: the coroutine always finds the lock
      // taken, suspends, and is resumed inline from inside an unlock.
      // The launcher's own registration closed when lock() granted, so
      // the frame's record may reuse this thread's tid.
      lk->lock(ctx);
      async::InlineExecutor<CheckPlatform> inl;
      async::AsyncLock<CheckPlatform> alk(*lk, inl);
      async::Task t = [](Lock& lk_, async::AsyncLock<CheckPlatform>& alk_,
                         Context& launch) -> async::Task {
        async::AsyncGrant<CheckPlatform> g = co_await alk_.lock_async(launch);
        g.ctx().cs_enter();
        g.ctx().cs_exit();
        lk_.configure_waiting(g.ctx(), LockAttributes::blocking());
        g.unlock();
      }(*lk, alk, ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      // The frame resumes inside whichever unlock grants it (ours, or the
      // timed waiter's); wait it out so every oracle settles.
      while (!t.done()) CheckPlatform::yield(ctx);
      t.rethrow();
    });
    f.add_thread(1, [lk](Context& ctx) {
      // The sync timed wait whose withdrawal drains the in-flight epoch
      // at expiry, racing the frame's grant and its reconfiguration.
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

}  // namespace relock::chk::scenarios

#endif  // RELOCK_ASYNC_ENABLED

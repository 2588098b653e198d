// AsyncGate: the awaitable front-end's bridge into ConfigurableLock's
// private arrival, withdrawal, and quiescence machinery. A suspended
// coroutine cannot run the lock's waiting engine (there is no thread to
// spin or park), so the gate replays exactly the registration half of the
// sync protocols - the lock-free tail swap into the queue cell and the
// timeout-vs-grant resolution - on behalf of a WaiterRecord whose
// grant is delivered through WaiterRecord::grant_hook instead of a polled
// flag.
//
// Contains no coroutine code itself (it is pure lock-protocol glue), but
// lives under relock/async/ and behind its gate because nothing else
// needs it.
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include "relock/core/configurable_lock.hpp"
#include "relock/core/waiter.hpp"

namespace relock {

template <Platform P>
struct AsyncGate {
  static_assert(kRealConcurrency<P>,
                "the async front-end requires the lock-free arrival paths "
                "(kRealConcurrency platforms only)");

  using Lock = ConfigurableLock<P>;
  using Ctx = typename P::Context;
  using Rec = WaiterRecord<P>;

  [[nodiscard]] static typename P::Domain& domain(Lock& lk) noexcept {
    return lk.domain_;
  }
  [[nodiscard]] static Placement flag_placement(Lock& lk, Ctx& ctx) {
    return lk.grant_flag_placement(ctx);
  }
  [[nodiscard]] static bool is_rw(const Lock& lk) noexcept {
    return lk.rw_capable();
  }

  /// Contended arrival for an exclusive coroutine waiter: the sync
  /// acquire_contended publish protocol, minus the waiting engine. Every
  /// kind publishes into the queue cell. kNone does too: a coroutine cannot
  /// barge in the TTAS engine, so the cell's drain parks it on the orphan
  /// FIFO and the release module hands off to it directly. After the
  /// record is published a concurrent release may grant it - and its hook
  /// may resume the frame - at any moment, including from inside the
  /// lost-release guard; callers must not touch the op after this returns
  /// unless they are the only party that ever resumes it (the manager
  /// executor is).
  static void enqueue(Ctx& ctx, Lock& lk, Rec& rec) {
    lk.publish_arrival(ctx, rec);
  }

  /// Reader-writer arrival (mirrors acquire_rw). Returns true when entry
  /// was immediate - the record was never enqueued and the caller resumes
  /// the frame itself.
  static bool enqueue_rw(Ctx& ctx, Lock& lk, Rec& rec, bool shared) {
    const Nanos t0 = P::now(ctx);
    lk.meta_lock(ctx);
    if (lk.rw_enter_at_once(ctx, shared, t0)) return true;
    lk.enlist(rec, lk.arrival_target_kind(), lk.arrival_module());
    lk.count_arrival();
    lk.meta_unlock(ctx);
    return false;
  }

  /// Resolves a timed async wait whose timer fired: the MCS-with-timeout
  /// self-removal protocol of the sync timed paths. Returns true when the
  /// record was withdrawn (the timeout wins). Returns false when a grant
  /// beat the withdrawal - the granted flag is published before a fast
  /// release retires from the in-flight epoch, so once the resolution's
  /// QuiesceGuard has drained the epoch the lock's re-check observes every
  /// such grant; the hook delivery may still be in flight on the granter
  /// (it fires after the retire, outside the epoch) and arrives as an
  /// ordinary grant message for the caller to consume normally.
  static bool resolve_timeout(Ctx& ctx, Lock& lk, Rec& rec) {
    return lk.resolve_timeout(ctx, rec) == Lock::WaitResult::kTimedOut;
  }

  /// Post-grant bookkeeping, run on the resumed frame's context: the tail
  /// of the sync granted path. t0 is 0 - async waits carry no wait-time
  /// sample (the frame was not running to take one).
  static void complete(Ctx& ctx, Lock& lk, bool shared) {
    using Hold = typename Lock::Hold;
    if (shared) {
      lk.template begin_hold<Hold::kSharedGrant>(ctx, /*t0=*/0);
    } else {
      lk.template begin_hold<Hold::kGrant>(ctx, /*t0=*/0);
    }
  }
};

}  // namespace relock

#endif  // RELOCK_ASYNC_ENABLED

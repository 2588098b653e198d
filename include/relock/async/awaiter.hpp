// The awaitable front-end: `co_await alk.lock_async(ctx)` suspends the
// calling coroutine instead of parking a thread. The suspended frame's
// awaiter embeds a WaiterRecord that rides the lock's ordinary arrival
// path; the single-store grant handoff (fast release or release module)
// then runs the record's grant hook, which hands the frame to the
// configured Executor for resumption. Timeouts compose: try_lock_for_async
// routes through a manager executor whose timer runs the same
// timeout-vs-grant resolution the sync timed paths use.
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include <coroutine>
#include <exception>
#include <utility>

#include "relock/async/executor.hpp"
#include "relock/async/gate.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/platform/chk_hooks.hpp"

namespace relock::async {

/// Movable ownership of one acquisition, carrying the context the frame
/// resumed on (which is generally NOT the context it launched from - an
/// inline executor resumes on the granter's thread). A timed wait that
/// lost yields an empty grant: acquired() is false and release is a no-op.
template <Platform P>
class AsyncGrant {
 public:
  using Ctx = typename P::Context;
  using Lock = ConfigurableLock<P>;

  AsyncGrant() = default;
  AsyncGrant(Lock* lock, Ctx* ctx, bool shared)
      : lock_(lock), ctx_(ctx), shared_(shared) {}
  AsyncGrant(AsyncGrant&& o) noexcept
      : lock_(std::exchange(o.lock_, nullptr)),
        ctx_(o.ctx_),
        shared_(o.shared_) {}
  AsyncGrant& operator=(AsyncGrant&& o) noexcept {
    if (this != &o) {
      unlock();
      lock_ = std::exchange(o.lock_, nullptr);
      ctx_ = o.ctx_;
      shared_ = o.shared_;
    }
    return *this;
  }
  AsyncGrant(const AsyncGrant&) = delete;
  AsyncGrant& operator=(const AsyncGrant&) = delete;

  ~AsyncGrant() {
    if (lock_ == nullptr) return;
    if constexpr (kCheckedPlatform<P>) {
      // During the checker's schedule-abort unwind the release protocol
      // must not run: its scheduling points throw, and a throw during
      // unwind terminates. The schedule being discarded, the held lock is
      // abandoned exactly like a sync scenario's would be. Only an unwind
      // that began after this grant existed qualifies - a grant destroyed
      // by ordinary code while an unrelated exception happens to be in
      // flight still releases. Native builds never take this branch:
      // there RAII means RAII, and an exception thrown through a held
      // grant unlocks on the way out.
      if (std::uncaught_exceptions() > unwind_base_) return;
    }
    unlock();
  }

  [[nodiscard]] bool acquired() const noexcept { return lock_ != nullptr; }
  explicit operator bool() const noexcept { return acquired(); }
  /// The context the frame currently runs on; use for everything after
  /// the co_await (nested lock calls, platform ops).
  [[nodiscard]] Ctx& ctx() const noexcept { return *ctx_; }

  void unlock() {
    if (lock_ == nullptr) return;
    Lock* const lk = std::exchange(lock_, nullptr);
    if (shared_) {
      lk->unlock_shared(*ctx_);
    } else {
      lk->unlock(*ctx_);
    }
  }

 private:
  Lock* lock_ = nullptr;
  Ctx* ctx_ = nullptr;
  bool shared_ = false;
  /// std::uncaught_exceptions() when this grant came to exist (move
  /// construction re-baselines: the new object's scope is the one that
  /// matters). The checker's abandon test compares against it so only a
  /// scope actually being unwound skips the release.
  int unwind_base_ = std::uncaught_exceptions();
};

/// The awaiter. Lives in the coroutine frame for the whole co_await, so
/// the embedded WaiterRecord outlives its registration the same way a
/// sync waiter's stack frame does.
template <Platform P>
class [[nodiscard]] LockAwaiter {
 public:
  using Ctx = typename P::Context;
  using Lock = ConfigurableLock<P>;

  LockAwaiter(Lock& lk, Executor<P>& ex, Ctx& launch, bool shared,
              Nanos timeout)
      : op_(lk, ex, launch, shared, timeout) {}
  LockAwaiter(const LockAwaiter&) = delete;
  LockAwaiter& operator=(const LockAwaiter&) = delete;

  /// Barge attempt before suspending - the async analogue of the sync
  /// paths' uncontended fast acquire.
  bool await_ready() {
    Ctx& ctx = *op_.launch_ctx;
    const bool got = op_.shared ? op_.lock->try_lock_shared(ctx)
                                : op_.lock->try_lock(ctx);
    if (got) {
      // try_lock ran the full acquire bookkeeping; nothing more to do.
      op_.immediate = true;
      op_.resume_ctx = &ctx;
    }
    return got;
  }

  /// Publishes the waiter. After the record is reachable the frame may be
  /// resumed - and this awaiter destroyed - by another thread at any
  /// moment, so nothing here touches `op_` after the publishing call.
  bool await_suspend(std::coroutine_handle<> h) {
    op_.handle = h;
    Ctx& ctx = *op_.launch_ctx;
    chk_point<P>(ctx, "co.suspend");
    if (op_.timeout != 0) {
      if (!op_.exec->submit_timed(ctx, op_)) {
        throw LockUsageError(
            "try_lock_for_async: this executor cannot run timers "
            "(route timed waits through a ManagerExecutor)");
      }
      return true;
    }
    Lock& lk = *op_.lock;
    if (AsyncGate<P>::is_rw(lk)) {
      if (AsyncGate<P>::enqueue_rw(ctx, lk, op_.rec, op_.shared)) {
        // Entry raced open between await_ready and here: resume at once.
        op_.immediate = true;
        op_.resume_ctx = &ctx;
        return false;
      }
      return true;
    }
    AsyncGate<P>::enqueue(ctx, lk, op_.rec);
    return true;
  }

  AsyncGrant<P> await_resume() {
    Ctx& ctx = *op_.resume_ctx;
    if (op_.timed_out) {
      // The manager already withdrew the record and ran the timeout
      // bookkeeping; hand back an empty grant.
      return AsyncGrant<P>(nullptr, &ctx, op_.shared);
    }
    if (!op_.immediate) {
      AsyncGate<P>::complete(ctx, *op_.lock, op_.shared);
    }
    return AsyncGrant<P>(op_.lock, &ctx, op_.shared);
  }

 private:
  AsyncOp<P> op_;
};

/// Awaitable view over a ConfigurableLock bound to an executor. The lock
/// keeps serving thread waiters through its normal API concurrently -
/// coroutine and thread waiters share one arrival order.
template <Platform P>
class AsyncLock {
 public:
  using Ctx = typename P::Context;
  using Lock = ConfigurableLock<P>;

  AsyncLock(Lock& lock, Executor<P>& exec) : lock_(&lock), exec_(&exec) {}

  [[nodiscard]] LockAwaiter<P> lock_async(Ctx& ctx) {
    return LockAwaiter<P>(*lock_, *exec_, ctx, /*shared=*/false,
                          /*timeout=*/0);
  }
  [[nodiscard]] LockAwaiter<P> lock_shared_async(Ctx& ctx) {
    return LockAwaiter<P>(*lock_, *exec_, ctx, /*shared=*/true,
                          /*timeout=*/0);
  }
  [[nodiscard]] LockAwaiter<P> try_lock_for_async(Ctx& ctx, Nanos timeout) {
    if (timeout == 0) {
      throw LockUsageError("try_lock_for_async: timeout must be > 0");
    }
    return LockAwaiter<P>(*lock_, *exec_, ctx, /*shared=*/false, timeout);
  }

  [[nodiscard]] Lock& lock() noexcept { return *lock_; }
  [[nodiscard]] Executor<P>& executor() noexcept { return *exec_; }

 private:
  Lock* lock_;
  Executor<P>* exec_;
};

}  // namespace relock::async

#endif  // RELOCK_ASYNC_ENABLED

// ManagerExecutor: an active-lock style manager thread for coroutine
// waiters (paper Fig. 10 applied to the async front-end). One thread owns
// every suspended frame's lifecycle: enqueue requests and grant deliveries
// arrive as messages on a lock-free MPSC inbox and are drained in arrival
// order; timed waits arm a manager-local timer and, on expiry, run the
// lock's withdrawal protocol from the manager - so a timed async wait that
// loses the race to a grant resolves exactly like the sync MCS-with-
// timeout self-removal path does.
//
// The single-consumer discipline is what makes timed ops safe: the manager
// is the only party that ever resumes a frame it manages, so enqueue,
// timer expiry, and grant consumption can never race on the op.
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include <atomic>

#include "relock/async/executor.hpp"
#include "relock/async/gate.hpp"
#include "relock/platform/chk_hooks.hpp"

namespace relock::async {

template <Platform P>
class ManagerExecutor final : public Executor<P> {
 public:
  using Ctx = typename P::Context;
  using Op = AsyncOp<P>;
  using Gate = AsyncGate<P>;

  void post_grant(Ctx& granter_ctx, Op& op) override {
    op.msg = Op::Msg::kGrant;
    post(granter_ctx, op);
  }

  bool submit_timed(Ctx& launch_ctx, Op& op) override {
    op.msg = Op::Msg::kEnqueue;
    post(launch_ctx, op);
    return true;
  }

  /// Untimed ops may also be routed through the manager (instead of the
  /// launcher enqueueing directly): serializes all registrations on the
  /// manager, which is the Fig. 10 shape.
  void submit(Ctx& launch_ctx, Op& op) {
    op.msg = Op::Msg::kEnqueue;
    post(launch_ctx, op);
  }

  /// The manager loop. Runs on the calling thread until `pred()` holds,
  /// draining messages in arrival order, firing expired timers, and
  /// parking between batches. Re-entrant frames are fine: a resumed frame
  /// that co_awaits again simply posts a new message.
  template <typename Pred>
  void run_until(Ctx& ctx, Pred&& pred) {
    manager_tid_.store(static_cast<std::uint64_t>(ctx.self()) + 1,
                       std::memory_order_seq_cst);
    for (;;) {
      drain(ctx);
      fire_timers(ctx);
      if (pred()) break;
      chk_point<P>(ctx, "mgr.park");
      // Re-check the inbox after the park-intent point: a post that read
      // our tid has deposited a wake token, so the park below returns
      // immediately; a post that missed the tid is seen by this seq_cst
      // load (its push was a seq_cst RMW).
      if (inbox_.load(std::memory_order_seq_cst) != nullptr) continue;
      if (timer_head_ != nullptr) {
        const Nanos now = P::now(ctx);
        const Nanos nearest = nearest_deadline();
        if (nearest > now) (void)P::block_for(ctx, nearest - now);
      } else {
        P::block(ctx);
      }
    }
    manager_tid_.store(0, std::memory_order_seq_cst);
  }

  void run(Ctx& ctx) {
    run_until(ctx, [this] { return stop_.load(std::memory_order_acquire); });
  }

  void stop(Ctx& ctx) {
    stop_.store(true, std::memory_order_release);
    const std::uint64_t mgr = manager_tid_.load(std::memory_order_seq_cst);
    if (mgr != 0) P::unblock(ctx, static_cast<ThreadId>(mgr - 1));
  }

 private:
  void post(Ctx& ctx, Op& op) {
    chk_point<P>(ctx, "mgr.post");
    Op* head = inbox_.load(std::memory_order_relaxed);
    do {
      op.post_next = head;
    } while (!inbox_.compare_exchange_weak(head, &op,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
    // Dekker with the manager's park: our seq_cst push either precedes the
    // manager's pre-park inbox re-check (it sees the op) or follows the
    // manager's tid publication (we see the tid and deposit a token).
    const std::uint64_t mgr = manager_tid_.load(std::memory_order_seq_cst);
    if (mgr != 0) P::unblock(ctx, static_cast<ThreadId>(mgr - 1));
  }

  void drain(Ctx& ctx) {
    Op* head = inbox_.exchange(nullptr, std::memory_order_seq_cst);
    if (head == nullptr) return;
    // The push chain is LIFO; reverse so messages run in arrival order.
    Op* fifo = nullptr;
    while (head != nullptr) {
      Op* const next = head->post_next;
      head->post_next = fifo;
      fifo = head;
      head = next;
    }
    while (fifo != nullptr) {
      Op* const op = fifo;
      fifo = op->post_next;
      if (op->msg == Op::Msg::kEnqueue) {
        handle_enqueue(ctx, *op);
      } else {
        timer_unlink(*op);
        resume(ctx, *op);
      }
    }
  }

  void handle_enqueue(Ctx& ctx, Op& op) {
    // Re-home the record: the manager registers, withdraws, and is named
    // in the grant, so the oracle-visible identity must be the manager's.
    op.rec.tid = ctx.self();
    op.rec.priority = ctx.priority();
    auto& lk = *op.lock;
    if (Gate::is_rw(lk)) {
      if (Gate::enqueue_rw(ctx, lk, op.rec, op.shared)) {
        op.immediate = true;
        resume(ctx, op);
        return;
      }
    } else {
      Gate::enqueue(ctx, lk, op.rec);
      // A grant can already have fired inside enqueue's lost-release
      // guard; its kGrant message is in our inbox and runs next round.
    }
    if (op.timeout != 0) {
      op.deadline = P::now(ctx) + op.timeout;
      timer_link(op);
    }
  }

  void resume(Ctx& ctx, Op& op) {
    op.resume_ctx = &ctx;
    chk_point<P>(ctx, "co.resume");
    op.handle.resume();
  }

  void fire_timers(Ctx& ctx) {
    if (timer_head_ == nullptr) return;
    const Nanos now = P::now(ctx);
    for (Op* t = timer_head_; t != nullptr;) {
      Op* const next = t->timer_next;
      if (t->deadline <= now) {
        timer_unlink(*t);
        if (Gate::resolve_timeout(ctx, *t->lock, t->rec)) {
          t->timed_out = true;
          resume(ctx, *t);
        }
        // else: a grant won the race; its kGrant message resumes the
        // frame, so only the timer entry is dropped here.
      }
      t = next;
    }
  }

  [[nodiscard]] Nanos nearest_deadline() const noexcept {
    Nanos nearest = kForever;
    for (Op* t = timer_head_; t != nullptr; t = t->timer_next) {
      if (t->deadline < nearest) nearest = t->deadline;
    }
    return nearest;
  }

  void timer_link(Op& op) noexcept {
    op.timer_prev = nullptr;
    op.timer_next = timer_head_;
    if (timer_head_ != nullptr) timer_head_->timer_prev = &op;
    timer_head_ = &op;
    op.timer_linked = true;
  }

  void timer_unlink(Op& op) noexcept {
    if (!op.timer_linked) return;
    if (op.timer_prev != nullptr) {
      op.timer_prev->timer_next = op.timer_next;
    } else {
      timer_head_ = op.timer_next;
    }
    if (op.timer_next != nullptr) op.timer_next->timer_prev = op.timer_prev;
    op.timer_prev = op.timer_next = nullptr;
    op.timer_linked = false;
  }

  std::atomic<Op*> inbox_{nullptr};
  /// Manager tid + 1 while the loop runs, 0 otherwise (0 cannot collide
  /// with a real tid).
  std::atomic<std::uint64_t> manager_tid_{0};
  std::atomic<bool> stop_{false};
  Op* timer_head_ = nullptr;  ///< manager-owned; unsorted, walked on fire
};

}  // namespace relock::async

#endif  // RELOCK_ASYNC_ENABLED

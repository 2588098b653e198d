// Scenario library for the relock-check tests: each function returns a
// reusable chk::Scenario whose build hook constructs a fresh
// ConfigurableLock<CheckPlatform> per schedule (held by shared_ptr so the
// lock outlives the last model thread) and registers the thread bodies.
//
// Scenario sizing is deliberate: the 2-thread scenarios are small enough
// for *exhaustive* preemption-bounded DFS (check_smoke_test), the 3-4
// thread ones are for randomized PCT exploration (check_random_test) and
// the seeded-bug regressions.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

#include "relock/check/engine.hpp"
#include "relock/check/platform.hpp"
#include "relock/core/configurable_lock.hpp"
#ifdef RELOCK_TRACE
#include "relock/trace/trace.hpp"
#endif

namespace relock::chk::scenarios {

using Lock = relock::ConfigurableLock<CheckPlatform>;

inline std::shared_ptr<Lock> make_lock(
    ScenarioFrame& f, SchedulerKind kind,
    LockAttributes attrs = LockAttributes::spin(), bool advisory = false) {
  Lock::Options o;
  o.scheduler = kind;
  o.attributes = attrs;
  o.advisory = advisory;
  return std::make_shared<Lock>(f.domain(), o);
}

/// The FIFO kind of a stack twin. On kRealConcurrency platforms (the check
/// platform included) every scheduled arrival publishes into the lock's
/// MCS queue cell, and kFcfs, like kQueue, is served straight from it, so
/// the kFcfs scenarios below pop the cell. Each takes the kind as a
/// parameter; passing kStackFifo gives the twin whose releases drain the
/// cell into a scheduler module and grant through the module select
/// instead. The twins keep the historical `stack_` name from the arrival
/// stack that fed the module before the cell did. A priority queue at
/// equal priority is FIFO among equals, so the twins keep the kFcfs
/// fairness oracle.
inline constexpr SchedulerKind kStackFifo = SchedulerKind::kPriorityQueue;

/// Scenario name of a FIFO scenario: `base` on kFcfs (cell pop),
/// `stack_<base>` on the twin (cell drain + module select).
inline std::string fifo_name(const char* base, SchedulerKind kind) {
  return kind == SchedulerKind::kFcfs ? std::string(base)
                                      : "stack_" + std::string(base);
}

/// lock; critical section; unlock - the basic oracle-annotated cycle.
inline void lock_cycle(const std::shared_ptr<Lock>& lk, Context& ctx) {
  lk->lock(ctx);
  ctx.cs_enter();
  ctx.cs_exit();
  lk->unlock(ctx);
}

/// Two spinning threads race one FCFS lock: registration, lock-free
/// arrival, direct handoff, lost-release guard, the holder-side handover.
inline Scenario handoff2(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("handoff2", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind);
    for (int i = 0; i < 2; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Same race with a blocking waiting policy: waiters park on the modeled
/// parker and releases must wake them - the grant/park handshake whose
/// split-deposit variant is seeded bug 2. The holder yields between its
/// critical section and the release so the contender's registration and
/// park can interleave with the handoff without spending DFS preemptions.
inline Scenario parked_handoff2(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("parked_handoff2", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// A waiting-policy reconfiguration (QuiesceGuard: breaker arm, epoch
/// drain) races a lock/unlock stream: epoch-safety oracle territory.
inline Scenario epoch2(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("epoch2", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind);
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lk->configure_waiting(ctx, LockAttributes::backoff_spin(4));
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// Possession protocol around a reconfiguration vs. a contended cycle:
/// possession itself leaves the epoch alone; only the configure_waiting
/// inside the window quiesces it, for that call's span.
inline Scenario possess2() {
  Scenario s;
  s.name = "possess2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      lk->possess(ctx, AttributeClass::kWaitingPolicy);
      lk->configure_waiting(ctx, LockAttributes::spin());
      lk->release_possession(ctx, AttributeClass::kWaitingPolicy);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}

/// A conditional (timed) acquisition races the holder's release: the
/// timeout may fire before, during, or after the grant (a fast release may
/// grant the timed waiter like any other); withdrawal soundness and the
/// expiry's QuiesceGuard are the targets.
inline Scenario timeout2(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("timeout2", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// timeout2 under the degenerate policy (0, 0, 0, 0): no spin phase and
/// no sleep phase. Every waiting round must still probe once (grant flag,
/// or a claim of the state word for kNone) and check the deadline, or the
/// timed waiter spins on pause points forever - a livelock the step budget
/// reports. One scenario per probe kind and release-side consumer (kFcfs
/// and kQueue pop the cell; the stack twin drains it into its module).
inline Scenario degenerate2(SchedulerKind kind) {
  Scenario s;
  s.name = kind == SchedulerKind::kQueue  ? "queue_degenerate2"
           : kind == SchedulerKind::kNone ? "cent_degenerate2"
                                          : fifo_name("degenerate2", kind);
  s.fairness = kind == SchedulerKind::kNone ? FairnessMode::kNone
                                            : FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind, LockAttributes{0, 0, 0, 0});
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// A scheduler swap (FCFS -> priority queue) races a contended cycle:
/// leaving a cell-served kind (a pre-registered waiter moves onto the
/// orphan queue, the install is immediate), registration through the
/// cell's drain into the new module, generation rule.
inline Scenario swap2() {
  Scenario s;
  s.name = "swap2";
  s.fairness = FairnessMode::kNone;  // two Gammas: only the generation rule
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
      lock_cycle(lk, ctx);
    });
    f.add_thread(2, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// Three spinning threads on one FCFS lock. Deep enough that a guarded
/// grant (select-empty fast-release abort with a late-arriving waiter) can
/// overlap the new owner's own fast release - the window of seeded bug 1.
inline Scenario fanout3(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("fanout3", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind);
    for (int i = 0; i < 3; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Fissile fast release racing the first waiter's enqueue. The holder
/// yields between its critical section and the release so the contender's
/// record push and contended-bit mark (arr.mark) interleave with the
/// held->free CAS (fu.cas) without spending DFS preemptions. Every
/// ordering must be sound: CAS first and the arrival claims the free word
/// or registers against a free lock; mark first and the CAS fails, routing
/// the release through the full path to drain the record. The lost-grant
/// strand (fast CAS succeeding with a pushed-but-unmarked record left
/// behind) is exactly what the liveness oracle would flag.
inline Scenario fissile_arrival2() {
  Scenario s;
  s.name = "fissile_arrival2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// Fissile cycles racing a scheduler swap: the configure's QuiesceGuard
/// (breaker arm, epoch drain) must exclude the one-CAS release - a fast
/// release that began before the breaker armed must be drained, one that
/// starts after must observe the full path - and the lock must come back
/// fissile after the install (the fast path keys off the state word only,
/// so no re-arming step exists to forget).
inline Scenario fissile_config2() {
  Scenario s;
  s.name = "fissile_config2";
  s.fairness = FairnessMode::kNone;  // two Gammas: only the generation rule
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}

/// Distributed-queue handoff racing the holder's release: the contender's
/// MCS enqueue (qa.swap tail-exchange, qa.first publication, arr.mark)
/// interleaves with the holder's fissile held->free CAS and, when that
/// fails, with the queued fast release's cell pop (qc.first adoption, the
/// tail-retraction CAS). Every ordering must either grant the contender
/// by a single store to its own node or let it claim the free word; the
/// lost-grant strand (fast CAS succeeding with a linked-but-unmarked
/// node left in the cell) is what the liveness oracle would flag.
inline Scenario queue_arrival2() {
  Scenario s;
  s.name = "queue_arrival2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// A timed distributed-queue acquisition races the holder's release:
/// MCS-with-timeout node self-removal (tail retraction against an
/// in-flight producer) against a grant that may land before, during, or
/// after the deadline.
inline Scenario queue_timeout2() {
  Scenario s;
  s.name = "queue_timeout2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// queue_timeout2 with a plain waiter queued ahead of the timed one. The
/// timed waiter's record sits right behind the plain waiter's, which stays
/// the cell's front while the plain waiter holds (a linked grant) or is
/// unlinked first (a guarded one), so the timeout can land while the
/// timed record is the holder's successor or the cursor's own (the slot
/// the retired pop-ahead called "staged", hence the name) - before, during
/// or after the holder's release unlinks its record - and its withdrawal
/// must find it there, against the next release's grant of it.
inline Scenario queue_staged_timeout3() {
  Scenario s;
  s.name = "queue_staged_timeout3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// Holder-side handover at the tail: the first holder's fast release
/// grants the queued waiter linked, and that grantee's record stays the
/// cell's last while it holds and a third thread arrives. The arrival's
/// tail swap may land before the grantee's release unlinks its record
/// with a tail CAS (which then fails, and the release waits out the
/// arrival's link to move the cursor to it), between the swap and the
/// link, or after the CAS swung the tail back to empty (the arrival then
/// publishes through the first slot). Every ordering must grant the
/// arrival in FIFO order and leave no record in the cell.
inline Scenario handover_tail3() {
  Scenario s;
  s.name = "handover_tail3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    Engine* chk = &f.engine();
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    for (int i = 0; i < 2; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
    f.on_finish([lk, chk] {
      if (lk->waiter_count() != 0) {
        chk->fail_host("handover_tail3: a record was stranded in the cell");
      }
    });
  };
  return s;
}

/// Breakers armed while a linked holder holds. The first holder releases
/// (a fast release granting the queued untimed waiter linked) and at once
/// reconfigures its waiting policy: the QuiesceGuard waits out only fast
/// releases in flight, never the new holder's hold, though its record is
/// still the cell's front. A timed waiter's lock_for races the same
/// window and may time out into a withdrawal, under its own QuiesceGuard,
/// that walks past the holder's record under meta. No configuration may
/// overlap a fast release - the grant or the holder's own unlinking
/// release - (the epoch-safety oracle), and no record may be left in the
/// cell.
inline Scenario handover_quiesce3() {
  Scenario s;
  s.name = "handover_quiesce3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    Engine* chk = &f.engine();
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lk->configure_waiting(ctx, LockAttributes::backoff_spin(4));
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
    f.on_finish([lk, chk] {
      if (lk->waiter_count() != 0) {
        chk->fail_host("handover_quiesce3: a record was stranded in the "
                       "cell");
      }
    });
  };
  return s;
}

/// The holder's release, a cell -> kPriorityQueue drain and a withdrawal
/// behind the holder's record. The first holder's fast release grants the
/// queued untimed waiter linked, so that waiter's record stays the cell's
/// front while it holds; the first holder then switches the lock to the
/// priority module, whose install moves the cell's records onto the
/// orphan queue and must unlink the holder's record without enlisting it.
/// A timed waiter queued behind the holder's record may time out before
/// the drain (its withdrawal walks past the holder's record in the cell),
/// after it (off the orphan queue), or be granted by the holder's release,
/// which must find its own record unlinked or unlink it. Every ordering
/// grants each waiter at most once, in FIFO order across the generations,
/// and strands nothing. Seeded bug 4 (the drain enlisting the holder's
/// record) fails here with a grant to the holder's thread.
inline Scenario holder_drain3() {
  Scenario s;
  s.name = "holder_drain3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    Engine* chk = &f.engine();
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
    f.on_finish([lk, chk] {
      if (lk->waiter_count() != 0) {
        chk->fail_host("holder_drain3: a record was stranded");
      }
    });
  };
  return s;
}

/// Reconfiguration to and from the distributed queue racing contended
/// cycles. With the default middle kind (kFcfs, cell-served like kQueue)
/// both switches are cell -> cell and install immediately: a waiter linked
/// in the cell stays where the incoming module serves it. With a
/// module-selected middle kind (the twin) leaving kQueue installs
/// immediately too: a waiter linked in the cell moves onto the orphan
/// queue and is served first (or, if its tail swap raced the install, the
/// cell's drain hands it to the incoming module), and the return to kQueue
/// must serve the module's leftovers before cell arrivals.
inline Scenario queue_config2(SchedulerKind middle = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = middle == SchedulerKind::kFcfs ? "queue_config2"
                                          : "queue_stack_config2";
  s.fairness = FairnessMode::kNone;  // two Gammas: only the generation rule
  s.build = [middle](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk, middle](Context& ctx) {
      lk->configure_scheduler(ctx, middle);
      lock_cycle(lk, ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kQueue);
    });
  };
  return s;
}

/// kFcfs -> kQueue -> kFcfs flips made by the holder while the other
/// thread's record is linked in the cell, racing that thread's next
/// arrival. Both kinds are cell-served, so each switch must install
/// immediately (no configuration delay, which would keep the fast release
/// off while the cell stays non-empty), the linked waiter must be granted
/// through the switch in FIFO order (the configuration-delay oracle orders
/// the generations, the FCFS oracle each one), and no record may be left
/// in the cell at the end.
inline Scenario cell_flip2() {
  Scenario s;
  s.name = "cell_flip2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    Engine* chk = &f.engine();
    const auto flip = [lk, chk](Context& ctx, SchedulerKind to) {
      lk->configure_scheduler(ctx, to);
      if (lk->reconfiguration_pending()) {
        chk->fail_here(ctx, "cell_flip2: a switch between cell-served "
                            "kinds left a configuration delay pending");
      }
    };
    f.add_thread(1, [lk, flip](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      CheckPlatform::yield(ctx);
      flip(ctx, SchedulerKind::kQueue);
      ctx.cs_exit();
      lk->unlock(ctx);
      lk->lock(ctx);
      ctx.cs_enter();
      flip(ctx, SchedulerKind::kFcfs);
      ctx.cs_exit();
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.on_finish([lk, chk] {
      if (lk->scheduler_kind() != SchedulerKind::kFcfs) {
        chk->fail_host("cell_flip2: final scheduler must be kFcfs");
      }
      if (lk->waiter_count() != 0) {
        chk->fail_host("cell_flip2: a record was stranded in the cell");
      }
    });
  };
  return s;
}

/// kFcfs -> kPriorityQueue made by the holder inside its critical section:
/// leaving a cell-served kind. Depending on the schedule the other
/// thread's record is already linked in the cell (the pre-registered
/// generation, moved onto the orphan queue and served first) or its
/// arrival races the switch (a tail swap landing around the install,
/// drained into the priority module). Either way the switch installs at
/// once - a pending delay fails the schedule - and the other thread's
/// second cycle registers through the cell's drain into the new module.
/// Equal priorities keep the priority queue FIFO, so the FCFS oracle
/// orders each generation and the configuration-delay oracle orders the
/// two.
inline Scenario cell_retire2() {
  Scenario s;
  s.name = "cell_retire2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    Engine* chk = &f.engine();
    f.add_thread(1, [lk, chk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      CheckPlatform::yield(ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
      if (lk->reconfiguration_pending()) {
        chk->fail_here(ctx, "cell_retire2: leaving a cell-served kind left "
                            "a configuration delay pending");
      }
      ctx.cs_exit();
      lk->unlock(ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.on_finish([lk, chk] {
      if (lk->scheduler_kind() != SchedulerKind::kPriorityQueue) {
        chk->fail_host("cell_retire2: final scheduler must be "
                       "kPriorityQueue");
      }
      if (lk->waiter_count() != 0) {
        chk->fail_host("cell_retire2: a record was stranded");
      }
    });
  };
  return s;
}

#ifdef RELOCK_TRACE
/// Fissile fast acquire racing a trace enable: the fast path reads the
/// trace gate once per operation, so the toggle may land before or after
/// any given acquire/release - partial rings are expected and every
/// ordering must leave the oracles silent. The build hook resets the
/// registry so each explored schedule starts from trace-off.
inline Scenario fissile_trace2() {
  Scenario s;
  s.name = "fissile_trace2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto& reg = trace::Registry::instance();
    reg.set_enabled(false);
    reg.clear();
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      trace::Registry::instance().set_enabled(true);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}
#endif

/// fanout3 on an advisory lock. Advisory locks are not fissile-eligible,
/// so a releaser with no visible waiter still walks release_fast into the
/// select-empty guarded detour - the route into seeded bug 1's window
/// (grant_or_free's exclusive handoff overlapping the new owner's own
/// fast release). On a fissile lock that release is now a single CAS and
/// the detour is unreachable without a breaker armed. Only the stack twin
/// reaches the window: a cell-served fast release pops the cell and never
/// touches the grant scratch, while the twin's drains the cell into its
/// module and selects through the scratch.
inline Scenario advisory3(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("advisory3", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind, LockAttributes::spin(), /*advisory=*/true);
    for (int i = 0; i < 3; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Guarded-handoff window: a waiting-policy reconfiguration (its
/// QuiesceGuard armed for the call's span) straddling the holder's release
/// forces it off the fissile release onto the guarded path while a waiter
/// is queued, so grant_or_free's exclusive handoff can overlap the new
/// owner's own fast release once the guard disarms - the window of seeded
/// bug 1. (The plain fanout3 can no longer reach that overlap: with no
/// breaker armed, a releaser that would have taken the select-empty
/// guarded detour now short-circuits at the fissile held->free CAS.)
inline Scenario guarded3(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("guarded3", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind);
    for (int i = 0; i < 2; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
    f.add_thread(1, [lk](Context& ctx) {
      lk->configure_waiting(ctx, LockAttributes::spin());
    });
  };
  return s;
}

/// Mixed-policy churn with fault injection: possession-window
/// reconfiguration, spurious parker tokens, and an oversubscription flip
/// mid-stream. PCT fodder.
inline Scenario churn3(SchedulerKind kind = SchedulerKind::kFcfs) {
  Scenario s;
  s.name = fifo_name("churn3", kind);
  s.fairness = FairnessMode::kFcfs;
  s.build = [kind](ScenarioFrame& f) {
    auto lk = make_lock(f, kind,
                        LockAttributes{/*spin=*/2, /*delay=*/0,
                                       /*sleep=*/400, /*timeout=*/0});
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      if (lk->try_possess(ctx, AttributeClass::kWaitingPolicy)) {
        lk->configure_waiting(ctx, LockAttributes::blocking());
        lk->release_possession(ctx, AttributeClass::kWaitingPolicy);
      }
    });
    f.add_thread(1, [lk](Context& ctx) {
      ctx.spurious_unpark(0);
      lock_cycle(lk, ctx);
      ctx.flip_oversubscribed();
      ctx.spurious_unpark(1);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}

/// Four distinct-priority threads on a priority-queue lock: the priority
/// fairness oracle (max first, FIFO among equals) on every schedule.
inline Scenario prio4() {
  Scenario s;
  s.name = "prio4";
  s.fairness = FairnessMode::kPriority;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kPriorityQueue,
                        LockAttributes::blocking());
    for (int i = 0; i < 4; ++i) {
      f.add_thread(static_cast<Priority>(i + 1),
                   [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Threshold scheduler with a mid-stream threshold raise and reset: the
/// threshold oracle (no grant below the active threshold; FCFS among the
/// eligible) plus the reset's rescue grant of parked ineligible waiters.
inline Scenario threshold3() {
  Scenario s;
  s.name = "threshold3";
  s.fairness = FairnessMode::kThreshold;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kPriorityThreshold,
                        LockAttributes::blocking());
    f.add_thread(5, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lk->set_priority_threshold(ctx, 3);
      lock_cycle(lk, ctx);
      lk->set_priority_threshold(ctx, 0);
    });
    f.add_thread(2, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(4, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// A configuration delay behind an ineligible waiter. The threshold module
/// holds only a priority-1 timed waiter (threshold 5) when the holder
/// switches to kFcfs, so the switch stays pending; an eligible priority-10
/// arrival then registers under the incoming kFcfs, in the queue cell,
/// before the holder releases. The release finds nobody eligible and must
/// publish the lock free and return: the cell's record belongs to the
/// incoming generation, which no release can serve while the threshold
/// module still holds its waiter (re-grabbing the word for it spun forever
/// under meta - the step budget's livelock). The delay completes when the
/// ineligible waiter times out: its withdrawal empties the current module,
/// and with the lock free the withdrawal itself installs kFcfs and grants
/// the arrival - the configuration-delay oracle checks that this never
/// happens while the priority-1 waiter is still registered.
inline Scenario threshold_cell_pending3() {
  Scenario s;
  s.name = "threshold_cell_pending3";
  s.fairness = FairnessMode::kThreshold;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kPriorityThreshold,
                        LockAttributes::blocking());
    // The waiters park until the holder lets them arrive (a parker token
    // each), so only the protocol's own steps interleave.
    constexpr ThreadId kIneligible = 1;
    constexpr ThreadId kEligible = 2;
    auto ineligible_done = std::make_shared<bool>(false);
    Engine* chk = &f.engine();
    f.add_thread(10, [lk, ineligible_done](Context& ctx) {
      lk->set_priority_threshold(ctx, 5);
      lk->lock(ctx);
      ctx.cs_enter();
      CheckPlatform::unblock(ctx, kIneligible);
      while (lk->waiter_count() == 0 && !*ineligible_done) {
        CheckPlatform::yield(ctx);
      }
      lk->configure_scheduler(ctx, SchedulerKind::kFcfs);
      CheckPlatform::unblock(ctx, kEligible);
      while (lk->waiter_count() < (*ineligible_done ? 1u : 2u)) {
        CheckPlatform::yield(ctx);
      }
      ctx.cs_exit();
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk, ineligible_done](Context& ctx) {
      CheckPlatform::block(ctx);
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
      *ineligible_done = true;
    });
    f.add_thread(10, [lk](Context& ctx) {
      CheckPlatform::block(ctx);
      lock_cycle(lk, ctx);
    });
    f.on_finish([lk, chk] {
      if (lk->scheduler_kind() != SchedulerKind::kFcfs ||
          lk->reconfiguration_pending()) {
        chk->fail_host("threshold_cell_pending3: the switch to kFcfs "
                       "never completed");
      }
      if (lk->waiter_count() != 0) {
        chk->fail_host("threshold_cell_pending3: a record was stranded");
      }
    });
  };
  return s;
}

/// Stacked reconfiguration into the queue cell. The holder keeps the lock
/// throughout. Waiter A queues under kPriorityQueue; the holder switches
/// to kHandoff, which stays pending while A is in the priority module.
/// Waiter B then registers under the pending kHandoff, and the holder
/// switches again, to kFcfs: the second switch's drain moves B into the
/// never-installed kHandoff module, whose waiters then migrate - pop_any,
/// then enlist - into the cell, where kFcfs serves them. The holder's
/// release grants A, and A's release completes the delay and grants B
/// from the cell. The configuration-delay oracle orders the generations,
/// and no record may be left behind.
inline Scenario stacked_cell3() {
  Scenario s;
  s.name = "stacked_cell3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kPriorityQueue,
                        LockAttributes::blocking());
    // The waiters park until the holder lets them arrive (a parker token
    // each), so only the protocol's own steps interleave.
    constexpr ThreadId kFirst = 1;
    constexpr ThreadId kSecond = 2;
    Engine* chk = &f.engine();
    f.add_thread(1, [lk, chk](Context& ctx) {
      const auto delayed = [&](SchedulerKind to, std::uint32_t queued) {
        while (lk->waiter_count() < queued) CheckPlatform::yield(ctx);
        lk->configure_scheduler(ctx, to);
        if (!lk->reconfiguration_pending()) {
          chk->fail_here(ctx, "stacked_cell3: a switch with a waiter in "
                              "the priority module installed at once");
        }
      };
      lk->lock(ctx);
      ctx.cs_enter();
      CheckPlatform::unblock(ctx, kFirst);
      delayed(SchedulerKind::kHandoff, 1);
      CheckPlatform::unblock(ctx, kSecond);
      delayed(SchedulerKind::kFcfs, 2);
      ctx.cs_exit();
      lk->unlock(ctx);
    });
    for (int i = 0; i < 2; ++i) {
      f.add_thread(1, [lk](Context& ctx) {
        CheckPlatform::block(ctx);
        lock_cycle(lk, ctx);
      });
    }
    f.on_finish([lk, chk] {
      if (lk->scheduler_kind() != SchedulerKind::kFcfs ||
          lk->reconfiguration_pending()) {
        chk->fail_host("stacked_cell3: the switch to kFcfs never "
                       "completed");
      }
      if (lk->waiter_count() != 0) {
        chk->fail_host("stacked_cell3: a record was stranded");
      }
    });
  };
  return s;
}

/// A monitor reset races a lock/unlock stream. LockMonitor::reset is
/// snapshot-coherent (baseline subtraction, never writes to the live
/// shards), so no schedule may observe a window where a counter appears to
/// run backwards - the failure mode is a raw-below-baseline clamp bug
/// showing up as an astronomically large unsigned "count".
inline Scenario monitor_reset2() {
  Scenario s;
  s.name = "monitor_reset2";
  s.fairness = FairnessMode::kNone;
  s.build = [](ScenarioFrame& f) {
    Lock::Options o;
    o.scheduler = SchedulerKind::kFcfs;
    o.attributes = LockAttributes::spin();
    o.monitor_enabled = true;
    auto lk = std::make_shared<Lock>(f.domain(), o);
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lk->monitor().reset();
      const LockStats mid = lk->monitor().snapshot();
      constexpr std::uint64_t kSane = std::uint64_t{1} << 60;
      assert(mid.acquisitions < kSane);
      assert(mid.releases < kSane);
      assert(mid.total_hold_ns < kSane);
      (void)mid;
      lock_cycle(lk, ctx);
      lk->monitor().reset();
      const LockStats end = lk->monitor().snapshot();
      assert(end.acquisitions < kSane);
      assert(end.releases < kSane);
      (void)end;
    });
  };
  return s;
}

}  // namespace relock::chk::scenarios

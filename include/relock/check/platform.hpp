// CheckPlatform: the Platform implementation over the relock-check engine.
//
// Every Word operation, spin primitive, and parker transition is a
// scheduling point of the controlled scheduler, so the engine's strategy
// decides the interleaving of shared-memory accesses exactly. Words are
// plain (non-atomic) integers: only one model thread ever runs at a time,
// and a point suspends the caller *before* the operation's effect, so the
// effect plus everything up to the next point forms one atomic step.
//
// kRealConcurrency is true: the checker's whole purpose is to explore the
// contention machinery (the MCS queue cell every lock-free arrival
// publishes into, its drain and holder-side handover, quiescence epoch,
// oversubscription escalation) that only
// compiles in on real-concurrency platforms.
//
// The parker is an algorithmic port of platform/parker.hpp's token protocol
// onto the engine's sleep/notify primitives (kPkEmpty / kPkToken /
// kPkParked). RELOCK_CHECK_SEEDED_BUG_2 re-introduces PR 2's parker bug -
// the token deposit performed as a plain load + store instead of one atomic
// exchange - which the checker must catch as a lost wakeup (deadlock).
#pragma once

#include <cstdint>

#include "relock/check/engine.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/types.hpp"

namespace relock::chk {

/// One modeled atomic word. Plain storage: the engine serializes access.
struct Word {
  explicit Word(Domain& /*domain*/, std::uint64_t initial = 0,
                Placement /*placement*/ = Placement::any())
      : v(initial) {}
  Word(const Word&) = delete;
  Word& operator=(const Word&) = delete;

  std::uint64_t v;
};

struct CheckPlatform {
  using Context = chk::Context;
  using Word = chk::Word;
  using Domain = chk::Domain;

  /// Enables the contended machinery under test (see header comment).
  static constexpr bool kRealConcurrency = true;

  // ---- atomic word operations: one scheduling point each ----

  static std::uint64_t load(Context& ctx, const Word& w) {
    ctx.engine().point(ctx, "w.load");
    return w.v;
  }
  static std::uint64_t load_relaxed(Context& ctx, const Word& w) {
    ctx.engine().point(ctx, "w.loadr");
    return w.v;
  }
  static void store(Context& ctx, Word& w, std::uint64_t v) {
    ctx.engine().point(ctx, "w.store");
    w.v = v;
    ctx.engine().note_write();
  }
  static std::uint64_t fetch_or(Context& ctx, Word& w, std::uint64_t v) {
    ctx.engine().point(ctx, "w.or");
    const std::uint64_t prev = w.v;
    w.v |= v;
    ctx.engine().note_write();
    return prev;
  }
  static std::uint64_t fetch_and(Context& ctx, Word& w, std::uint64_t v) {
    ctx.engine().point(ctx, "w.and");
    const std::uint64_t prev = w.v;
    w.v &= v;
    ctx.engine().note_write();
    return prev;
  }
  static std::uint64_t fetch_add(Context& ctx, Word& w, std::uint64_t v) {
    ctx.engine().point(ctx, "w.add");
    const std::uint64_t prev = w.v;
    w.v += v;
    ctx.engine().note_write();
    return prev;
  }
  static std::uint64_t exchange(Context& ctx, Word& w, std::uint64_t v) {
    ctx.engine().point(ctx, "w.xchg");
    const std::uint64_t prev = w.v;
    w.v = v;
    ctx.engine().note_write();
    return prev;
  }
  static bool cas(Context& ctx, Word& w, std::uint64_t expected,
                  std::uint64_t desired) {
    ctx.engine().point(ctx, "w.cas");
    if (w.v != expected) return false;
    w.v = desired;
    ctx.engine().note_write();
    return true;
  }

  // ---- delay / progress primitives: gated points (spin bounding) ----

  static void pause(Context& ctx) { ctx.engine().pause_point(ctx, "pause"); }
  static void yield(Context& ctx) { ctx.engine().pause_point(ctx, "yield"); }
  static void delay(Context& ctx, Nanos ns) {
    ctx.engine().delay_point(ctx, ns);
  }
  static void compute(Context& ctx, Nanos ns) {
    ctx.engine().delay_point(ctx, ns);
  }

  // ---- parking: modeled Parker token protocol ----

  static void block(Context& ctx) { (void)parker_park(ctx, kForever); }
  static bool block_for(Context& ctx, Nanos ns) {
    return parker_park(ctx, ns);
  }

  /// Token deposit + conditional wake: the algorithmic core of
  /// Parker::unpark. Correct form: one atomic exchange (a single step reads
  /// the previous state and publishes the token).
  static void unblock(Context& ctx, ThreadId tid) {
    Engine& eng = ctx.engine();
#ifdef RELOCK_CHECK_SEEDED_BUG_2
    // Seeded PR 2 bug: the deposit split into a relaxed load followed by a
    // separate store. The target's kPkEmpty -> kPkParked transition can land
    // between the two; the store then overwrites kPkParked with the token
    // while `prev` still reads kPkEmpty, so no notify is sent - a lost
    // wakeup the checker must report as a deadlock.
    eng.point(ctx, "pk.unpark.load");
    const std::uint64_t prev = eng.parker_word(tid);
    eng.point(ctx, "pk.unpark.store");
    eng.parker_word(tid) = kPkToken;
    eng.note_write();
#else
    eng.point(ctx, "pk.unpark");
    std::uint64_t& w = eng.parker_word(tid);
    const std::uint64_t prev = w;
    w = kPkToken;
    eng.note_write();
#endif
    if (prev == kPkParked) eng.notify(tid);
  }

  // ---- time / topology / census ----

  static Nanos now(Context& ctx) { return ctx.engine().now(); }
  static int home_node(Context&) { return Placement::kAnyNode; }
  static bool oversubscribed(Context& ctx) {
    return ctx.engine().oversubscribed();
  }

  // ---- relock-check hooks (the reason this platform exists) ----

  static void chk_point(Context& ctx, const char* tag) {
    ctx.engine().point(ctx, tag);
  }
  static void chk_event(Context& ctx, ChkEvent e, std::uint64_t arg) {
    ctx.engine().on_event(ctx, e, arg);
  }
  static void chk_scratch(bool begin) {
    if (Engine* e = Engine::current()) e->scratch_point(begin);
  }

 private:
  /// Parker::park / park_for over engine sleep/notify. Returns true iff a
  /// token was consumed (woken or already deposited), false on timeout.
  static bool parker_park(Context& ctx, Nanos ns) {
    Engine& eng = ctx.engine();
    std::uint64_t& w = eng.parker_word(ctx.self());
    // Fast path: consume an already-deposited token without descheduling.
    eng.point(ctx, "pk.cas");
    if (w == kPkToken) {
      w = kPkEmpty;
      return true;
    }
    // Advertise kPkParked and deschedule. The re-check and the parked store
    // + sleep form one step, mirroring the mutex-protected section of the
    // real parker (unpark's deposit cannot be lost in between).
    eng.point(ctx, "pk.adv");
    if (w == kPkToken) {
      w = kPkEmpty;
      return true;
    }
    w = kPkParked;
    if (eng.sleep(ctx, ns)) {
      // Notified: consume the token.
      eng.point(ctx, "pk.consume");
      w = kPkEmpty;
      return true;
    }
    // Timed out: retract kPkParked. If a token landed between the timeout
    // firing and this step, consume it and report a wake (the real parker's
    // failed CAS-retract path).
    eng.point(ctx, "pk.retract");
    if (w == kPkToken) {
      w = kPkEmpty;
      return true;
    }
    w = kPkEmpty;
    return false;
  }
};

}  // namespace relock::chk

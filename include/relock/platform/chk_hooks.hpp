// Yield-point instrumentation hooks for the relock-check model checker.
//
// Lock algorithms call chk_point / chk_event / chk_scratch at every shared-
// memory transition that does NOT already go through a platform Word
// operation: the configuration-quiescence epoch counters, the queue
// cell's tail and publication slots (awaited by its unlinks, a linked
// holder's own included), the shared grant scratch, and the seqlock attribute
// slots all live in host-side atomics, so without these hooks a
// controlled scheduler could not interleave threads between them.
//
// On ordinary platforms (native, sim, vthreads) none of the hook statics
// exist and every call compiles to nothing - the `if constexpr (requires
// ...)` test is resolved at template instantiation time, so native builds
// carry zero overhead, not even a branch. The check platform
// (include/relock/check/platform.hpp) defines the statics and turns each
// call into a scheduling point of the controlled scheduler.
#pragma once

#include <cstdint>

#include "relock/platform/lock_event.hpp"

namespace relock {

/// The checker consumes the shared lock-event vocabulary (the tracer is the
/// other consumer; see platform/lock_event.hpp). The historical name is
/// kept: "ChkEvent" at a call site signals the event feeds an oracle.
using ChkEvent = LockEvent;

/// True exactly on the check platform - the only platform defining the
/// hook statics. For the rare cases where instrumentation alone is not
/// enough and behavior must differ (e.g. destructors that would rethrow
/// the checker's schedule-abort exception mid-unwind).
template <typename P>
inline constexpr bool kCheckedPlatform =
    requires(typename P::Context& ctx) { P::chk_point(ctx, ""); };

/// A scheduling point: under the checker the calling model thread may be
/// preempted here. `tag` names the transition in failure traces.
template <typename P>
inline void chk_point(typename P::Context& ctx, const char* tag) {
  if constexpr (requires { P::chk_point(ctx, tag); }) {
    P::chk_point(ctx, tag);
  } else {
    (void)ctx;
    (void)tag;
  }
}

/// An oracle event (see ChkEvent). Not a scheduling point.
template <typename P>
inline void chk_event(typename P::Context& ctx, ChkEvent e,
                      std::uint64_t arg = 0) {
  if constexpr (requires { P::chk_event(ctx, e, arg); }) {
    P::chk_event(ctx, e, arg);
  } else {
    (void)ctx;
    (void)e;
    (void)arg;
  }
}

/// A scheduling point inside context-free shared structures (GrantBatch):
/// the grant scratch is mutated by whichever thread owns the release module,
/// with no Context parameter in scope. The check platform resolves the
/// current model thread through the engine; other platforms compile this
/// out.
///
/// `begin` marks a clear() - the start of a new scratch session owned by
/// the calling thread. Every other mutation must come from the session
/// owner: two releasers interleaving scratch sessions is exactly the shared-
/// scratch race the quiescence epoch exists to prevent, and the checker
/// reports it as an oracle violation.
template <typename P>
inline void chk_scratch(bool begin) {
  if constexpr (requires { P::chk_scratch(begin); }) {
    P::chk_scratch(begin);
  } else {
    (void)begin;
  }
}

}  // namespace relock

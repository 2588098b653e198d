// ConfigurableLock: the paper's reconfigurable lock object (sections 3-4).
//
// Structure (Figure 5 of the paper):
//   - object state:      lock word, owner, registration queue, sleeper list
//   - configuration:     waiting attributes (Table 1), scheduler modules
//                        (registration / acquisition / release), placement,
//                        execution mode (passive/active)
//   - monitor module:    LockMonitor statistics
//   - reconfiguration:   possess / configure operations; scheduler changes
//                        obey the configuration delay (the new scheduler
//                        takes effect only once pre-registered waiters are
//                        all served)
//
// Concurrency design. A TAS meta word guards the lock's internal structures
// (the paper: "a primitive low-level lock is often used to enforce mutual
// exclusion of a high-level lock data structure"). The uncontended fast path
// is a single fetch_or on the state word, so a configurable lock configured
// as a spin lock costs about the same as a primitive spin lock (paper Table
// 2). With a scheduler configured, release performs a *direct handoff*: the
// state word never becomes free, the selected waiter's grant flag is set and
// the waiter woken if sleeping - so scheduler decisions cannot be barged.
// With SchedulerKind::kNone the lock is a centralized barging lock: release
// frees the state word and wakes all sleepers (paper section 4.3.2: "wakes
// up a specific thread or all the sleeping threads depending on the release
// policy").
//
// One FIFO: the FCFS kind (kFcfs, and its synonym kQueue) has no scheduler
// module on any platform. Its waiters queue in the lock-resident MCS queue
// cell, and the releaser takes the cell's front and grants it with one
// store (see cell_served()). Every other kind selects through a module
// (scheduler.hpp), and kNone barges.
//
// Contended-arrival design on real-concurrency platforms (kRealConcurrency):
// arriving waiters do NOT take the meta guard. Every scheduled arrival -
// and every coroutine arrival, kNone included - tail-swaps its
// WaiterRecord into the queue cell and links behind its predecessor. For
// the module-selected kinds the release module - already serialized by
// meta or by ownership - drains the cell, in arrival order, into the
// scheduler module (or the orphan FIFO for kNone) before selecting a
// grant. Registration therefore stays "the cost of one write operation"
// even under contention, and the meta guard degenerates to a
// release-side-only lock. On simulated platforms every word access has a
// calibrated cost and the meta-guarded arrival path is kept verbatim, so
// the reproduction tables stay byte-stable: a simulated arrival enlists in
// the cell or its kind's module under meta.
//
// Contended-release design (kRealConcurrency, the configuration-quiescence
// epoch): the steady-state contended release does not take the meta guard
// either. Two observations make that safe. First, the release module is
// only ever executed by a thread that owns the state word - the previous
// holder, or a thread that won it from free - and the direct-handoff path
// never publishes the word free, so module ownership passes hand to hand
// along the grant chain. Second, every mutation of what a fast release
// reads (a reconfiguration, threshold change, scheduler swap, per-thread
// override, or a timed waiter's withdrawal at expiry) holds a QuiesceGuard
// for its span: it announces itself on a host-side breaker count and waits
// for in-flight fast releases to drain (a Dekker handshake with the
// releaser's in-flight count) before mutating anything under meta; a
// releaser that observes a breaker falls back to the guarded slow path -
// exactly the paper's configuration-delay semantics. Nothing else breaks
// the epoch: a queued timed waiter and a possession window leave every
// release fast until they act. While quiescent, the releaser
// selects afresh - a cell pop for the cell-served kinds, else a module
// select - and publishes ownership with a single store to the successor's
// waiter-local grant flag. Holder-side handover: a cell-served fast
// release grants the cell's front record without unlinking it, so the
// grantee enters its critical section on seeing its grant word and owes
// nothing; its record stays the front for the whole hold, as an MCS
// holder's node stays at the head, and its own release unlinks it and
// reads its successor there. See DESIGN.md "The configuration-quiescence
// epoch" and "Holder-side handover".
//
// One release path: both unlocks check only their arguments and enter
// end_hold(), which ends the hold (the monitor's hold-time pair), tries
// the fissile CAS below, posts to a serving active manager, tries the
// single-store fast release and otherwise runs the guarded release
// module. The fast and the guarded release share one successor pick
// (pick_successor) and one exclusive grant publication
// (grant_exclusive); every hold begins in begin_hold().
//
// The fissile fast path (kRealConcurrency): on top of all of the above the
// state word carries a second bit - kStateContended, "full mode". While it
// is clear the lock is in *fast mode*: no waiter is registered anywhere the
// release module would have to look, so for a fast-eligible configuration
// (exclusive, passive, non-recursive, non-advisory) acquire is one
// test-and-set and release is one CAS of held->free that bypasses the
// release module entirely. Any waiter that registers state the release
// module must observe sets the contended bit first (queue cell:
// mark-after-swap; centralized sleepers: mark under meta), which makes the
// release CAS fail and routes the owner through the full path. The bit is
// sticky across handoff chains and cleared only by the guarded path's
// free-publish, which is exactly the point where no waiter remains - so
// the lock re-enters fast mode by itself once contention drains. See
// DESIGN.md "The fissile fast path".
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "relock/core/attributes.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/core/waiter.hpp"
#include "relock/monitor/lock_monitor.hpp"
#include "relock/platform/backoff.hpp"
#include "relock/platform/cacheline.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/platform.hpp"
#include "relock/platform/trace_hooks.hpp"

namespace relock {

/// The awaitable front-end's bridge into the lock's private arrival /
/// withdrawal machinery (relock/async/awaiter.hpp). Declared here so
/// ConfigurableLock can befriend it without including any coroutine
/// headers in core.
template <Platform P>
struct AsyncGate;

/// Read-only view of the lock's member addresses for layout tests
/// (tests/core_layout_test.cpp defines it): offsetof is not usable on this
/// non-standard-layout class under -Werror=invalid-offsetof.
template <Platform P>
struct LockLayoutProbe;

template <Platform P>
class ConfigurableLock {
  /// The async front-end replays the arrival and withdrawal protocols on
  /// behalf of suspended coroutines; it needs the same access a member
  /// acquire path has.
  friend struct AsyncGate<P>;
  friend struct LockLayoutProbe<P>;

  /// Stand-in for the registry word on kRealConcurrency platforms. It
  /// exists only on the simulator, where its store is the paper's
  /// registration write (formal_cost_test prices it); nothing ever reads
  /// it back.
  struct NoWord {
    explicit NoWord(typename P::Domain&, std::uint64_t = 0,
                    Placement = Placement::any()) {}
  };
  using RegistryWord =
      std::conditional_t<kRealConcurrency<P>, NoWord, typename P::Word>;
  /// The scheduler submodule words: written by every scheduler change (the
  /// paper's 1R5W), never read back. Kept where every access is observed
  /// (the simulator prices them, the checker schedules on them); empty on
  /// native.
  using ModuleWord =
      std::conditional_t<kObservedWords<P>, typename P::Word, NoWord>;
  /// Configuration words no passive handoff touches: unpadded on native,
  /// so they share one line instead of taking one each.
  using ColdWord = PackedWord<P>;
  using Cell = WaitQueueCell<P>;

  /// One per-thread waiting-policy override slot: written under meta, read
  /// lock-free by registering threads with a per-slot seqlock. Fields are
  /// relaxed atomics so concurrent torn-read candidates are data-race-free;
  /// the seq word makes them consistent.
  struct AttrSlot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint32_t> spin{0};
    std::atomic<Nanos> delay{0};
    std::atomic<Nanos> sleep{0};
    std::atomic<Nanos> timeout{0};
    std::atomic<bool> valid{false};
  };

  /// Slot storage published to lock-free readers: the size rides along so a
  /// reader bounds-checks against the array it actually holds, which lets
  /// the array be sized by the highest overridden ThreadId (grown on
  /// demand) instead of the full domain capacity. Sizing by capacity made
  /// every lock's first override cost O(domain capacity) - a real
  /// multiplier once thousands of table locks share one big domain.
  struct AttrSlotArray {
    explicit AttrSlotArray(std::uint32_t n)
        : size(n), slots(std::make_unique<AttrSlot[]>(n)) {}
    const std::uint32_t size;
    std::unique_ptr<AttrSlot[]> slots;
  };

 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  struct Options {
    SchedulerKind scheduler = SchedulerKind::kNone;
    LockAttributes attributes = LockAttributes::spin();
    /// Home node of the lock's words.
    Placement placement = Placement::any();
    /// Where waiters' grant flags live: kWaiterLocal = distributed lock
    /// (each waiter polls its own node's memory), kLockHome = centralized.
    WaitPlacement wait_placement = WaitPlacement::kWaiterLocal;
    RwPreference rw_preference = RwPreference::kFifo;
    bool recursive = false;
    bool advisory = false;        ///< waiters poll the owner's advice
    bool monitor_enabled = false;
    Execution execution = Execution::kPassive;
    /// Active locks only: the manager thread polls its mailbox (it owns a
    /// dedicated processor, so releasing threads never pay a wakeup cost).
    /// When false the manager blocks and unlock() must wake it.
    bool active_polling = true;
    /// Delay between the polling manager's mailbox probes.
    Nanos active_poll_interval = 20'000;
    /// Advisory mode: length of one bounded sleep round under kSleep
    /// advice. Waiters "spin and sleep in turn", re-polling the owner's
    /// advice each round, so they notice the end-of-tenure switch to spin.
    Nanos advice_sleep_slice = 500'000;
  };

  ConfigurableLock(Domain& domain, Options opts = Options{})
      : domain_(domain),
        opts_(opts),
        fast_eligible_(kRealConcurrency<P> && !opts.recursive &&
                       !opts.advisory &&
                       opts.execution == Execution::kPassive &&
                       opts.scheduler != SchedulerKind::kReaderWriter),
        meta_(domain, 0, opts.placement),
        state_(domain, 0, opts.placement),
        owner_(domain, 0, opts.placement),
        advice_(domain, 0, opts.placement),
        config_word_(domain, 0, opts.placement),
        sched_reg_(domain, 0, opts.placement),
        sched_acq_(domain, 0, opts.placement),
        sched_rel_(domain, 0, opts.placement),
        sched_flag_(domain, 0, opts.placement),
        registry_(domain, 0, opts.placement),
        possess_word_(domain, 0, opts.placement),
        mailbox_(domain, 0, opts.placement),
        scheduler_(make_scheduler<P>(opts.scheduler)),
        scheduler_kind_(opts.scheduler) {
    store_attrs(opts.attributes);
    if (scheduler_ != nullptr) {
      scheduler_->set_rw_preference(opts.rw_preference);
    }
    monitor_.set_enabled(opts.monitor_enabled);
  }

  ConfigurableLock(const ConfigurableLock&) = delete;
  ConfigurableLock& operator=(const ConfigurableLock&) = delete;

  // =================================================================
  // Acquisition.
  // =================================================================

  /// Acquires the lock. Returns false only if the configured waiting policy
  /// has a timeout (a *conditional lock*, Table 1) and it expired.
  bool lock(Ctx& ctx) { return acquire(ctx, /*shared=*/false, 0); }

  /// Conditional acquisition bounded by `timeout` (overrides the timeout
  /// attribute for this call).
  bool lock_for(Ctx& ctx, Nanos timeout) {
    return acquire(ctx, /*shared=*/false, timeout);
  }

  /// Polling acquisition: single attempt, never waits.
  bool try_lock(Ctx& ctx) {
    if (rw_capable()) return try_acquire_rw(ctx, /*shared=*/false);
    if (opts_.recursive && is_owner(ctx)) {
      ++recursion_depth_;
      return true;
    }
    if (!claimed(P::fetch_or(ctx, state_, kStateHeld))) return false;
    begin_hold<Hold::kClaim>(ctx, timing_stamp(ctx));
    return true;
  }

  /// Shared (reader) acquisition; requires a reader-writer configuration.
  bool lock_shared(Ctx& ctx) { return acquire(ctx, /*shared=*/true, 0); }
  bool lock_shared_for(Ctx& ctx, Nanos timeout) {
    return acquire(ctx, /*shared=*/true, timeout);
  }
  bool try_lock_shared(Ctx& ctx) {
    if (!rw_capable()) {
      misuse("try_lock_shared on a lock without a reader-writer scheduler");
    }
    return try_acquire_rw(ctx, /*shared=*/true);
  }

  // =================================================================
  // Release.
  // =================================================================

  void unlock(Ctx& ctx) { unlock_to(ctx, kInvalidThread); }

  /// Release with a handoff hint: with SchedulerKind::kHandoff the lock is
  /// granted directly to `hint` if that thread is waiting.
  void unlock_to(Ctx& ctx, ThreadId hint) {
    if (opts_.recursive && recursion_depth_ > 0) {
      --recursion_depth_;
      return;
    }
    end_hold(ctx, hint, /*shared=*/false);
  }

  void unlock_shared(Ctx& ctx) {
    if (!rw_capable()) {
      misuse("unlock_shared on a lock without a reader-writer scheduler");
    }
    end_hold(ctx, kInvalidThread, /*shared=*/true);
  }

  // =================================================================
  // Advisory / speculative locks (paper section 4.3.2).
  // =================================================================

  /// Publishes the owner's advice to current and future waiters. Usually
  /// called by the lock owner from inside the critical section; the advice
  /// may be changed at different stages of the critical section.
  ///
  /// `expected_remaining` (kSleep only) is the owner's estimate of its
  /// remaining tenure: "the current lock owner is the best source of
  /// information for the length of lock ownership". Waiters sleep until
  /// just before that deadline and then spin, so a long tenure costs them
  /// one block instead of continuous spinning, yet the handoff at the end
  /// is spin-fast.
  void advise(Ctx& ctx, Advice a, Nanos expected_remaining = 0) {
    std::uint64_t v = static_cast<std::uint64_t>(a);
    if (a == Advice::kSleep && expected_remaining > 0) {
      v |= (P::now(ctx) + expected_remaining) << 2;
    }
    P::store(ctx, advice_, v);
  }

  /// Reads the current advice (costed platform read).
  Advice current_advice(Ctx& ctx) {
    return static_cast<Advice>(P::load(ctx, advice_) & 3);
  }

  // =================================================================
  // Reconfiguration (paper sections 3.2 / 4.2).
  // =================================================================

  /// Acquires exclusive ownership of an attribute class so an external
  /// agent can reconfigure it. Cost: one test-and-set (paper Table 6).
  bool try_possess(Ctx& ctx, AttributeClass c) {
    const auto bit = static_cast<std::uint64_t>(c);
    const bool won = (P::fetch_or(ctx, possess_word_, bit) & bit) == 0;
    if (won) note_trace(ctx, LockEvent::kPossess, bit);
    return won;
  }
  void possess(Ctx& ctx, AttributeClass c) {
    while (!try_possess(ctx, c)) {
      P::pause(ctx);
    }
  }
  void release_possession(Ctx& ctx, AttributeClass c) {
    const auto bit = static_cast<std::uint64_t>(c);
    const std::uint64_t prev = P::fetch_and(ctx, possess_word_, ~bit);
    if ((prev & bit) != 0) note_trace(ctx, LockEvent::kUnpossess, bit);
  }

  /// Changes the waiting policy attributes. Cost: one read + one write of
  /// the configuration word (paper: "a simple dynamic alteration of waiting
  /// mechanism needs only one memory read and one memory write", 1R1W).
  /// Takes effect for subsequent acquisitions; in-flight waiters keep the
  /// policy they registered with.
  void configure_waiting(Ctx& ctx, LockAttributes attrs) {
    QuiesceGuard quiesce(ctx, *this);
    note(ctx, LockEvent::kConfigMutateBegin);
    (void)P::load(ctx, config_word_);
    store_attrs(attrs);
    P::store(ctx, config_word_, config_version_.fetch_add(1) + 1);
    note(ctx, LockEvent::kConfigMutateEnd);
    monitor_.on_reconfiguration(/*scheduler_change=*/false);
  }

  /// Changes the lock scheduler. Cost: 1R5W (paper section 4.1): three
  /// writes for the scheduler submodules, one to set the configuration-
  /// delay flag, and one - deferred - to reset it once all pre-registered
  /// threads have been served. Until then the old scheduler keeps serving
  /// its queue while new arrivals register with the incoming scheduler.
  /// Reader-writer capability is fixed at construction: switching between
  /// RW and non-RW kinds is not supported.
  void configure_scheduler(Ctx& ctx, SchedulerKind kind) {
    if (kind == SchedulerKind::kCustom) {
      misuse("install custom schedulers by instance (unique_ptr overload)");
    }
    install_scheduler(ctx, kind, make_scheduler<P>(kind));
  }

  /// Installs a user-supplied scheduler module - the extension point the
  /// paper's kernel-configurability argument calls for (e.g. the
  /// deadline-based EdfScheduler). Same cost model and configuration-delay
  /// semantics as the built-in kinds. An instance reporting a kind that
  /// has no module (kNone, or a cell-served kind) configures that kind and
  /// is discarded.
  void configure_scheduler(Ctx& ctx, std::unique_ptr<Scheduler<P>> custom) {
    if (custom == nullptr) misuse("configure_scheduler with a null scheduler");
    const SchedulerKind kind = custom->kind();
    if (kind == SchedulerKind::kNone || cell_served(kind)) custom = nullptr;
    install_scheduler(ctx, kind, std::move(custom));
  }

  /// Priority-threshold scheduler parameter. If the lock is currently free,
  /// lowering the threshold re-runs grant selection so newly eligible
  /// waiters are served.
  void set_priority_threshold(Ctx& ctx, Priority threshold) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    if (scheduler_ != nullptr) scheduler_->set_threshold(threshold);
    if (pending_scheduler_ != nullptr) {
      pending_scheduler_->set_threshold(threshold);
    }
    threshold_mirror_.store(threshold, std::memory_order_relaxed);
    note(ctx, LockEvent::kThresholdSet,
                 static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(threshold)));
    note(ctx, LockEvent::kConfigMutateEnd);
    monitor_.on_reconfiguration(/*scheduler_change=*/false);
    if (!current_empty()) {
      serve_if_free(ctx);  // waiters may have just become eligible
      return;
    }
    meta_unlock(ctx);
  }

  void set_rw_preference(Ctx& ctx, RwPreference pref) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    opts_.rw_preference = pref;
    if (scheduler_ != nullptr) scheduler_->set_rw_preference(pref);
    if (pending_scheduler_ != nullptr) {
      pending_scheduler_->set_rw_preference(pref);
    }
    note(ctx, LockEvent::kConfigMutateEnd);
    monitor_.on_reconfiguration(/*scheduler_change=*/false);
    meta_unlock(ctx);
  }

  /// Per-thread waiting-policy override: the acquisition module "implements
  /// a mapping of thread-id to the appropriate methods for waiting" (paper
  /// section 3.2). Threads with an override use it instead of the lock-wide
  /// attributes.
  void set_thread_attributes(Ctx& ctx, ThreadId tid, LockAttributes attrs) {
    // Checked before the quiescence epoch is broken or meta is taken:
    // misuse() unwinds, and it must leave no lock state to restore.
    if constexpr (kRealConcurrency<P>) {
      if (tid >= domain_.capacity()) {
        misuse("set_thread_attributes: tid outside the lock's thread domain");
      }
    }
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    // Flat slot array indexed by ThreadId, published via an atomic
    // pointer. Registering threads read it without the meta guard (the
    // seed's map lookup forced every arrival through meta); writers here
    // still serialize on meta and version each slot seqlock-style. The
    // array covers [0, size) and is regrown (power of two, floor 8) when
    // an override lands beyond it; superseded arrays are retired, not
    // freed, because a lock-free reader may still hold one - total
    // retained memory stays under 2x the final array.
    AttrSlotArray* arr = attr_slots_.load(std::memory_order_relaxed);
    if (arr == nullptr || tid >= arr->size) {
      const std::uint32_t want = std::max<std::uint32_t>(
          8u, std::bit_ceil(static_cast<std::uint32_t>(tid) + 1u));
      auto grown = std::make_unique<AttrSlotArray>(
          arr == nullptr ? want : std::max(want, arr->size));
      if (arr != nullptr) {
        for (std::uint32_t i = 0; i < arr->size; ++i) {
          const AttrSlot& o = arr->slots[i];
          const LockAttributes a{o.spin.load(std::memory_order_relaxed),
                                 o.delay.load(std::memory_order_relaxed),
                                 o.sleep.load(std::memory_order_relaxed),
                                 o.timeout.load(std::memory_order_relaxed)};
          slot_write(grown->slots[i], a,
                     o.valid.load(std::memory_order_relaxed));
        }
      }
      attr_slots_.store(grown.get(), std::memory_order_release);
      attr_slot_storage_.push_back(std::move(grown));
      arr = attr_slots_.load(std::memory_order_relaxed);
    }
    AttrSlot& s = arr->slots[tid];
    if (!s.valid.load(std::memory_order_relaxed)) ++attr_override_count_;
    slot_write(s, attrs, /*valid=*/true);
    has_thread_attrs_.store(attr_override_count_ != 0,
                            std::memory_order_relaxed);
    note(ctx, LockEvent::kConfigMutateEnd);
    meta_unlock(ctx);
  }
  void clear_thread_attributes(Ctx& ctx, ThreadId tid) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    AttrSlotArray* arr = attr_slots_.load(std::memory_order_relaxed);
    if (arr != nullptr && tid < arr->size &&
        arr->slots[tid].valid.load(std::memory_order_relaxed)) {
      --attr_override_count_;
      slot_write(arr->slots[tid], LockAttributes{}, /*valid=*/false);
    }
    has_thread_attrs_.store(attr_override_count_ != 0,
                            std::memory_order_relaxed);
    note(ctx, LockEvent::kConfigMutateEnd);
    meta_unlock(ctx);
  }

  // =================================================================
  // Active locks (paper section 4.3.3): a dedicated manager thread
  // executes the release module on behalf of releasing threads.
  // =================================================================

  /// Manager loop. Spawn a thread bound to the lock and call serve() from
  /// it; returns after stop_serving(). While serving, unlock() merely posts
  /// a release request and wakes the manager.
  void serve(Ctx& ctx) {
    manager_tid_.store(ctx.self(), std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    serving_.store(true);
    for (;;) {
      if (stop_.load()) {
        // Stop accepting new posts first, then serve the stragglers:
        // releases arriving after this point run inline (passive path).
        serving_.store(false);
        const std::uint64_t last = P::load(ctx, mailbox_);
        P::store(ctx, mailbox_, 0);
        if (last != 0 && last != kMailboxShared) {
          release(ctx, decode_mailbox_hint(last), /*shared=*/false);
        }
        drain_releases(ctx);
        break;
      }
      // An idle manager polls the mailbox word alone; the shared-release
      // count is read only once the doorbell rang.
      const std::uint64_t box = P::load(ctx, mailbox_);
      if (box != 0) {
        P::store(ctx, mailbox_, 0);
        if (box == kMailboxShared) {
          drain_releases(ctx);
        } else {
          // Exclusive release posted inline in the mailbox word.
          release(ctx, decode_mailbox_hint(box), /*shared=*/false);
        }
        continue;
      }
      if (opts_.active_polling) {
        // Dedicated processor: poll the mailbox at the configured interval.
        P::delay(ctx, opts_.active_poll_interval);
      } else {
        P::block(ctx);
      }
    }
    serving_.store(false);
  }

  void stop_serving(Ctx& ctx) {
    stop_.store(true);
    const ThreadId mgr = manager_tid_.load(std::memory_order_relaxed);
    if (mgr != kInvalidThread) P::unblock(ctx, mgr);
  }

  // =================================================================
  // Introspection (host-side; approximate under concurrency).
  // =================================================================

  [[nodiscard]] LockAttributes attributes() const { return load_attrs(); }
  [[nodiscard]] SchedulerKind scheduler_kind() const {
    return scheduler_kind_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool reconfiguration_pending() const {
    return has_pending_.load(std::memory_order_relaxed);
  }
  /// Scheduler kind the next arrival will register under: the incoming
  /// module's kind while a configuration delay is in effect, else the
  /// installed one. Lock-free advisory read; external governors compare it
  /// against an intended kind to suppress no-op reconfigurations without
  /// taking possession.
  [[nodiscard]] SchedulerKind target_scheduler_kind() const noexcept {
    return arrival_target_kind();
  }
  /// Last threshold installed via set_priority_threshold (kDefaultPriority
  /// until one is). Host-side mirror: the live scheduler-module pointer may
  /// be mid-swap during a reconfiguration, so governors read this instead
  /// of chasing the module.
  [[nodiscard]] Priority priority_threshold() const noexcept {
    return threshold_mirror_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] LockMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] const LockMonitor& monitor() const noexcept {
    return monitor_;
  }
  /// Arrivals minus departures. Arrivals are loaded first: a thread's
  /// next arrival follows its previous record's departure, so everything
  /// counted is a distinct live thread and churn between the two loads can
  /// only undercount. A grant may land before its arrival's bump; the
  /// transient negative reads as 0.
  [[nodiscard]] std::uint32_t waiter_count() const {
    const std::uint32_t in = waiters_arrived_.load(std::memory_order_acquire);
    const std::uint32_t out =
        waiters_departed_.load(std::memory_order_acquire);
    const auto live = static_cast<std::int32_t>(in - out);
    return live > 0 ? static_cast<std::uint32_t>(live) : 0;
  }

  /// The lock's state per the paper's Figure 4, using a costed read of the
  /// state word: locked, unlocked, or *idle* (free with waiting threads).
  [[nodiscard]] LockState state(Ctx& ctx) {
    const bool held = (P::load(ctx, state_) & kStateHeld) != 0;
    if (held) return LockState::kLocked;
    return waiter_count() > 0 ? LockState::kIdle : LockState::kUnlocked;
  }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// True when this configuration can take the fissile fast paths at all
  /// (exclusive, passive, non-recursive, non-advisory on a real platform).
  [[nodiscard]] bool fast_path_eligible() const noexcept {
    return fast_eligible_;
  }
  /// True when the lock is currently in fast mode: eligible AND the
  /// contended bit is clear, so the next uncontended acquire/release pair
  /// is one RMW each. Costed read; advisory under concurrency like the
  /// other introspection calls.
  [[nodiscard]] bool in_fast_mode(Ctx& ctx) {
    return fast_eligible_ && (P::load(ctx, state_) & kStateContended) == 0;
  }

 private:
  enum class WaitResult : std::uint8_t { kGranted, kTimedOut };

  /// What one probe of the waiting engine tests: the waiter's own grant
  /// flag, set by the release that hands it the lock, or a TTAS claim of
  /// the state word (centralized barging, SchedulerKind::kNone).
  enum class Probe : std::uint8_t { kGrantFlag, kClaim };

  /// How a hold began (begin_hold()): a claim of the free word, at once or
  /// after entering the wait path (the guarded re-check, barging), a
  /// release's grant, or a reader's entry - at once or granted in a batch.
  enum class Hold : std::uint8_t {
    kClaim,
    kContendedClaim,
    kGrant,
    kSharedEntry,
    kSharedGrant,
  };

  [[nodiscard]] bool rw_capable() const noexcept {
    return opts_.scheduler == SchedulerKind::kReaderWriter;
  }

  [[nodiscard]] bool is_owner(Ctx& ctx) {
    return P::load(ctx, owner_) ==
           static_cast<std::uint64_t>(ctx.self()) + 1;
  }

  /// The owner word is read only by is_owner(), i.e. by recursive locks.
  /// Real-concurrency platforms store it for those alone: elsewhere it is
  /// a line the previous owner wrote, stored ahead of every grant. The
  /// simulator keeps every store - its calibrated tables cost them.
  void store_owner(Ctx& ctx, std::uint64_t tid_plus_one) {
    if (!kRealConcurrency<P> || opts_.recursive) {
      P::store(ctx, owner_, tid_plus_one);
    }
  }

  /// Clears a selected record's module registration. Cell records carry
  /// none, so the common handoff skips the store and leaves the waiter's
  /// handoff line shared.
  static void unregister(WaiterRecord<P>& w) noexcept {
    if (w.registered_with != nullptr) w.registered_with = nullptr;
  }

  /// True while some thread/batch holds the lock. Meta must be held (used
  /// only on meta-guarded slow paths); reads host mirrors.
  [[nodiscard]] bool held_locked() const noexcept {
    return holders_ != 0;
  }

  // ------------------------------------------------------------- meta ----

  // TTAS: probe with cheap reads, RMW only when the guard looks free -
  // spinning with RMWs would serialize on the (expensive) atomic path of
  // the lock's home memory module.
  //
  // On real-concurrency platforms failed probes escalate: a few PAUSEs,
  // then bounded exponential busy-delays (so colliding threads de-phase
  // instead of hammering the guard line), then yields (so an oversubscribed
  // processor reaches the guard holder at all). The simulator keeps the
  // seed's pure TTAS loop: its pauses are costed events and the calibrated
  // tables depend on the exact access sequence.
  void meta_lock(Ctx& ctx) {
    if constexpr (kRealConcurrency<P>) {
      BackoffSchedule backoff(BackoffSchedule::Params{
          kMetaBackoffInitialNs, kMetaBackoffCapNs, 2});
      std::uint32_t failed = 0;
      for (;;) {
        if (P::load_relaxed(ctx, meta_) == 0 &&
            P::fetch_or(ctx, meta_, 1) == 0) {
          return;
        }
        ++failed;
        if (failed <= kMetaPureSpins) {
          P::pause(ctx);
        } else if (failed <= kMetaPureSpins + kMetaBackoffRounds) {
          P::delay(ctx, backoff.next());
        } else {
          P::yield(ctx);
        }
      }
    } else {
      for (;;) {
        if (P::load_relaxed(ctx, meta_) == 0 &&
            P::fetch_or(ctx, meta_, 1) == 0) {
          return;
        }
        P::pause(ctx);
      }
    }
  }
  void meta_unlock(Ctx& ctx) { P::store(ctx, meta_, 0); }

  // ------------------------------------------------------- attributes ----

  void store_attrs(const LockAttributes& a) {
    attr_spin_.store(a.spin_count, std::memory_order_relaxed);
    attr_delay_.store(a.delay_ns, std::memory_order_relaxed);
    attr_sleep_.store(a.sleep_ns, std::memory_order_relaxed);
    attr_timeout_.store(a.timeout_ns, std::memory_order_relaxed);
  }
  [[nodiscard]] LockAttributes load_attrs() const {
    return LockAttributes{attr_spin_.load(std::memory_order_relaxed),
                          attr_delay_.load(std::memory_order_relaxed),
                          attr_sleep_.load(std::memory_order_relaxed),
                          attr_timeout_.load(std::memory_order_relaxed)};
  }

  /// Effective attributes for a registering thread: the per-thread override
  /// if one exists, else the lock-wide attributes. Reads the flat slot
  /// array, safe without the meta guard (seqlock-validated).
  [[nodiscard]] LockAttributes effective_attrs_for(ThreadId tid) {
    if (!has_thread_attrs_.load(std::memory_order_relaxed)) {
      return load_attrs();
    }
    AttrSlotArray* arr = attr_slots_.load(std::memory_order_acquire);
    // A thread past the array's end has no override by construction:
    // setting one grows the array to cover its ThreadId first.
    if (arr == nullptr || tid >= arr->size) return load_attrs();
    AttrSlot& s = arr->slots[tid];
    for (;;) {
      const std::uint32_t v1 = s.seq.load(std::memory_order_acquire);
      if ((v1 & 1u) != 0) continue;  // write in flight
      const bool valid = s.valid.load(std::memory_order_relaxed);
      const LockAttributes a{s.spin.load(std::memory_order_relaxed),
                             s.delay.load(std::memory_order_relaxed),
                             s.sleep.load(std::memory_order_relaxed),
                             s.timeout.load(std::memory_order_relaxed)};
      // Fence-free validation: the RMW's release half keeps the field
      // loads above from sinking past it. Uncontended - each thread reads
      // only its own slot; only a rare configuration write collides.
      if (s.seq.fetch_add(0, std::memory_order_acq_rel) == v1) {
        return valid ? a : load_attrs();
      }
    }
  }

  /// Seqlock slot write. Caller holds meta (single writer per slot). The
  /// opening exchange's acquire half keeps the field stores after the odd
  /// sequence value becomes visible (fence-free for TSan builds).
  static void slot_write(AttrSlot& s, const LockAttributes& a, bool valid) {
    const std::uint32_t v0 = s.seq.load(std::memory_order_relaxed);
    (void)s.seq.exchange(v0 + 1, std::memory_order_acq_rel);
    s.spin.store(a.spin_count, std::memory_order_relaxed);
    s.delay.store(a.delay_ns, std::memory_order_relaxed);
    s.sleep.store(a.sleep_ns, std::memory_order_relaxed);
    s.timeout.store(a.timeout_ns, std::memory_order_relaxed);
    s.valid.store(valid, std::memory_order_relaxed);
    s.seq.store(v0 + 2, std::memory_order_release);
  }

  [[nodiscard]] static bool policy_may_sleep(const LockAttributes& a,
                                             bool advisory) noexcept {
    return a.sleep_ns > 0 || advisory;
  }

  // ------------------------------------------------------ observers ------

  /// Reports one semantic transition to both observers that may be
  /// compiled in: the relock-check oracles (chk_event) and the calling
  /// thread's relock-trace ring (trc_event). Emitting from one call site
  /// makes the two event streams share vocabulary AND order by
  /// construction - check_trace_test asserts a trace equals the checker's
  /// event log record for record.
  void note(Ctx& ctx, LockEvent e, std::uint64_t arg = 0) {
    chk_event<P>(ctx, e, arg);
    trc_event<P>(ctx, trace_tag_, e, arg);
  }

  /// Trace-only transitions (acquire flavor, release entry, park/unpark,
  /// possession): thread-local progress markers outside the checker's
  /// oracle vocabulary. Deliberately NOT routed through chk_event - every
  /// checker event opens spin gates (note_write), so adding kinds there
  /// would perturb the schedule spaces of existing scenarios.
  void note_trace(Ctx& ctx, LockEvent e, std::uint64_t arg = 0) {
    trc_event<P>(ctx, trace_tag_, e, arg);
  }

  /// Hard API-misuse error; see LockUsageError.
  [[noreturn]] static void misuse(const char* what) {
    throw LockUsageError(what);
  }

  // ------------------------------------------------ state-word layout ----
  // bit 0: the busy indicator, exactly as the paper has it.
  // bit 1 (kRealConcurrency only): "full mode". Set by any waiter that
  // registers state only the release module can serve (a queue-cell
  // record, a centralized sleeper) and by guarded re-grabs of a free word
  // with such state outstanding; cleared only by the guarded free-publish
  // in grant_or_free, which runs exactly when no such state remains. While
  // clear, a fast-eligible owner's release is a single held->free CAS.
  // Simulated platforms never set the bit (their state word stays 0/1 and
  // the calibrated tables stay byte-identical), so every comparison of a
  // state-word RMW result goes through claimed() instead of == 0: the
  // contended bit may ride along in the previous value with the claim
  // still having succeeded.

  static constexpr std::uint64_t kStateHeld = 1;
  static constexpr std::uint64_t kStateContended = 2;
  /// Or-mask for claims that must leave the word in full mode on real
  /// platforms (claims that may be followed by a direct handoff, or that
  /// must disable the fast unlock of whoever wins the word instead).
  static constexpr std::uint64_t kClaimMark =
      kRealConcurrency<P> ? (kStateHeld | kStateContended) : kStateHeld;

  /// True iff a state-word claim RMW took the lock: bit 0 was clear.
  [[nodiscard]] static constexpr bool claimed(std::uint64_t prev) noexcept {
    return (prev & kStateHeld) == 0;
  }

  // -------------------------------------------------------- acquire ------

  bool acquire(Ctx& ctx, bool shared, Nanos timeout_override) {
    if (rw_capable()) return acquire_rw(ctx, shared, timeout_override);
    if (shared) {
      misuse("lock_shared on a lock without a reader-writer scheduler");
    }

    if (opts_.recursive && is_owner(ctx)) {
      ++recursion_depth_;
      return true;
    }
    const Nanos t0 = timing_stamp(ctx);
    Nanos arrival = t0;
    if constexpr (kRealConcurrency<P>) {
      // An explicit lock_for() deadline is anchored HERE, at arrival. With
      // the monitor off, t0 is elided and the lazy re-read used to happen
      // only inside the slow path - after the failed fast-path RMW and the
      // registration stores - silently extending the timeout by the time
      // spent getting there.
      if (timeout_override != 0 && t0 == 0) arrival = P::now(ctx);
    }
    // Fast path: one RMW, like a primitive spin lock (paper Table 2).
    if (claimed(P::fetch_or(ctx, state_, kStateHeld))) {
      begin_hold<Hold::kClaim>(ctx, t0);
      return true;
    }
    return acquire_slow(ctx, /*shared=*/false, timeout_override, t0, arrival);
  }

  /// The acquisition's timestamp. Clock elision on real platforms: the
  /// timestamp feeds only monitor statistics and timeout deadlines, so
  /// with the monitor off - or for operations outside the 1-in-N timing
  /// sample - the read is skipped (0 marks "not taken"); a timeout waiter
  /// re-reads the clock lazily.
  [[nodiscard]] Nanos timing_stamp(Ctx& ctx) {
    if constexpr (kRealConcurrency<P>) {
      return monitor_.enabled() && monitor_.timing_sample() ? P::now(ctx) : 0;
    } else {
      return P::now(ctx);
    }
  }

  bool acquire_slow(Ctx& ctx, bool shared, Nanos timeout_override, Nanos t0,
                    Nanos arrival) {
    if constexpr (kRealConcurrency<P>) {
      // Contended arrival without the meta guard: scheduled waiters publish
      // their record lock-free into the queue cell; centralized waiters go
      // straight to the TTAS waiting engine. The kind read is advisory - a
      // racing reconfiguration is absorbed by the release module (the
      // drain moves cell records whose kind moved on into the arrival
      // target, or onto the orphan queue). The paper's registration write
      // and configuration read (below) are not made here: nothing reads
      // the registry word back, and the arrival reads its policy from the
      // attribute atomics.
      if (arrival_target_kind() != SchedulerKind::kNone) {
        return acquire_contended(ctx, timeout_override, t0, arrival);
      }
      // Centralized: no registration structure to protect, so no meta at
      // all on the way in - one barging retry, then the waiting engine.
      const LockAttributes attrs = registration_attrs(ctx, timeout_override);
      const Nanos deadline = arrival_deadline(ctx, attrs, t0, arrival);
      if (claimed(P::fetch_or(ctx, state_, kStateHeld))) {
        begin_hold<Hold::kContendedClaim>(ctx, t0);
        return true;
      }
      return wait_barging(ctx, attrs, deadline, t0);
    } else {
      log_registrant(ctx);
      meta_lock(ctx);
      const LockAttributes attrs = registration_attrs(ctx, timeout_override);
      const Nanos deadline =
          attrs.timeout_ns != 0 ? t0 + attrs.timeout_ns : kForever;

      // Re-check under meta: the lock may have been freed meanwhile. The
      // RMW keeps us correct against fast-path acquirers who do not take
      // meta.
      if (!shared && claimed(P::fetch_or(ctx, state_, kStateHeld))) {
        holders_ = 1;
        meta_unlock(ctx);
        begin_hold<Hold::kContendedClaim>(ctx, t0);
        return true;
      }
      if (arrival_target_kind() != SchedulerKind::kNone) {
        return wait_registered(ctx, shared, attrs, deadline, t0);
      }
      // Centralized barging mode (SchedulerKind::kNone).
      meta_unlock(ctx);
      return wait_barging(ctx, attrs, deadline, t0);
    }
  }

  /// Simulated platforms only: registration logs the requesting thread's
  /// identity - "the cost of one write operation" (paper section 3.2) - and
  /// acquisition reads the waiting-policy configuration (the 1R the
  /// configure operation pairs with). formal_cost_test prices both.
  void log_registrant(Ctx& ctx) {
    P::store(ctx, registry_, static_cast<std::uint64_t>(ctx.self()) + 1);
    (void)P::load(ctx, config_word_);
  }

  /// True for the kinds served straight from the lock-resident MCS queue
  /// cell, on every platform: kFcfs and its synonym kQueue, one FIFO. Their
  /// waiters are taken from the cell's front and granted without a drain
  /// or a module select; they have no module. On real platforms a
  /// cell-served kind never holds a configuration delay: see
  /// install_scheduler().
  [[nodiscard]] static constexpr bool cell_served(SchedulerKind kind) noexcept {
    return kind == SchedulerKind::kFcfs || kind == SchedulerKind::kQueue;
  }

  /// Kind the next arrival will register under (advisory, lock-free read).
  [[nodiscard]] SchedulerKind arrival_target_kind() const noexcept {
    return has_pending_.load(std::memory_order_relaxed)
               ? pending_kind_.load(std::memory_order_relaxed)
               : scheduler_kind_.load(std::memory_order_relaxed);
  }

  /// Meta held. The module new arrivals register under: the pending one
  /// during a configuration delay, else the current one (null for the
  /// kinds without one).
  [[nodiscard]] Scheduler<P>* arrival_module() const noexcept {
    return has_pending_.load(std::memory_order_relaxed)
               ? pending_scheduler_.get()
               : scheduler_.get();
  }

  /// Meta held, or the module owner: true when the current kind has no
  /// waiter left to serve - the cell for a cell-served kind (a linked
  /// holder's record counts while it is the front), else its module. kNone
  /// keeps no queue.
  [[nodiscard]] bool current_empty() const noexcept {
    if (cell_served(scheduler_kind_.load(std::memory_order_relaxed))) {
      return queue_cell_.empty(queue_cursor_);
    }
    return scheduler_ == nullptr || scheduler_->empty();
  }

  /// The policy a registering thread waits under: its effective attributes
  /// with an explicit lock_for() timeout substituted.
  [[nodiscard]] LockAttributes registration_attrs(Ctx& ctx,
                                                  Nanos timeout_override) {
    LockAttributes attrs = effective_attrs_for(ctx.self());
    if (timeout_override != 0) attrs.timeout_ns = timeout_override;
    return attrs;
  }

  /// Deadline of a lock-free contended arrival. Deadlines run from arrival
  /// when acquire() anchored one (explicit lock_for); attribute-configured
  /// timeouts anchor here, at registration, which is where the policy is
  /// first known.
  [[nodiscard]] static Nanos arrival_deadline(Ctx& ctx,
                                              const LockAttributes& attrs,
                                              Nanos t0, Nanos arrival) {
    if (attrs.timeout_ns == 0) return kForever;
    return (arrival != 0 ? arrival : (t0 != 0 ? t0 : P::now(ctx))) +
           attrs.timeout_ns;
  }

  /// Scheduled contended arrival, kRealConcurrency only: the registration
  /// path Gamma without the meta guard. The record is published into the
  /// queue cell; the waiter then polls its record-local grant flag under
  /// the configured waiting component Phi, so no shared-word spinning
  /// follows.
  bool acquire_contended(Ctx& ctx, Nanos timeout_override, Nanos t0,
                         Nanos arrival) {
    const LockAttributes attrs = registration_attrs(ctx, timeout_override);
    const Nanos deadline = arrival_deadline(ctx, attrs, t0, arrival);

    // Oversubscription escalation: with more live threads than processors a
    // spinning waiter mostly burns the quantum of the very thread that must
    // hand it the lock, so even spin-policy waiters register as sleepable
    // (grants will signal them) and the waiting engine may park them after a
    // yield streak. The flag is latched at registration: a waiter that
    // registered non-sleepable never parks, even if the domain becomes
    // oversubscribed mid-wait, because its grant would not wake it.
    // The record comes from the thread's pool, not its stack: a linked
    // grant leaves it in the cell for the whole hold (holder_rec_).
    WaiterPool<P>& pool = WaiterPool<P>::of(ctx);
    WaiterRecord<P>& rec = pool.take(
        domain_, ctx.self(), ctx.priority(), grant_flag_placement(ctx),
        /*shared=*/false,
        policy_may_sleep(attrs, opts_.advisory) || P::oversubscribed(ctx));
    rec.enqueue_time = t0;
    publish_arrival(ctx, rec);

    if (wait<Probe::kGrantFlag>(ctx, rec, attrs, deadline) !=
            WaitResult::kGranted &&
        resolve_timeout(ctx, rec) != WaitResult::kGranted) {
      pool.put(rec);  // withdrawn
      return false;
    }
    // The hold begins with stores to the owner line, which bring it here
    // for the read below. A linked grant named the record the holder's,
    // and the hold's release returns it; any other record was unlinked
    // before its grant.
    begin_hold<Hold::kGrant>(ctx, t0);
    if (holder_rec_ != &rec) pool.put(rec);
    return true;
  }

  /// Publishes a contended arrival's record into the queue cell without
  /// the meta guard, then marks the state word full-mode. kRealConcurrency
  /// only; the async gate publishes its coroutine waiters through here
  /// too.
  void publish_arrival(Ctx& ctx, WaiterRecord<P>& rec) {
    // MCS enqueue: swap ourselves in as the tail, then publish the link -
    // through the predecessor's inline node, or through the cell's
    // first-arrival slot when the queue was empty. A consumer that sees the
    // tail but not yet the link waits out this two-store gap. Registration
    // order is fixed by the swap: report it to the checker in the same
    // atomic step, before the link window opens.
    chk_point<P>(ctx, "qa.swap");
    WaiterRecord<P>* const qprev = queue_cell_.swap_in(rec);
    note(ctx, LockEvent::kRegistered, ctx.self());
    chk_point<P>(ctx, qprev != nullptr ? "qa.link" : "qa.first");
    // A thread waiter that never sleeps links quick: the releaser that
    // reads this link on its own record grants it without reading it.
    queue_cell_.publish(qprev, rec,
                        rec.grant_hook == nullptr && !rec.may_sleep);
    count_arrival();

    // Full-mode mark + lost-release guard. The contended-bit fetch_or does
    // two jobs. (a) It disables the owner's single-CAS fast unlock while
    // our record sits in the queue cell or in a scheduler queue - a fast
    // unlock neither drains the cell nor runs the release module, so
    // without the mark a fast unlock/lock pair could strand us. Ordering
    // matters: mark AFTER publishing, or a racing guarded free-publish
    // (which stores 0) could erase a mark made before our record was
    // visible. (b) It doubles as the lost-release Dekker re-check: a
    // releaser that looked before our publish may have published the lock
    // free and left, but our tail swap was an RMW and the guarded
    // free-publish re-examines the cell's tail with an RMW of its own, so
    // at least one side observes the other - if we see the free state, we
    // close the gate and run the release module ourselves.
    chk_point<P>(ctx, "arr.mark");
    if (claimed(P::fetch_or(ctx, state_, kStateContended)) &&
        claimed(P::fetch_or(ctx, state_, kStateHeld))) {
      meta_lock(ctx);
      grant_or_free(ctx, kInvalidThread);  // drains the cell, may grant us
    }
  }

  /// Timeout resolution (MCS-with-timeout self-removal) of every timed
  /// wait: a lock-free arrival's, a meta-guarded registration's, and the
  /// async gate's. Until its deadline the record is an ordinary waiter
  /// that any fast release may drain, pop or grant, linked or not. At
  /// expiry the waiter quiesces the epoch - no fast release begins, and
  /// those in flight (which may have granted the record) are waited out -
  /// then resolves the grant race under meta and unlinks the record from
  /// wherever it lives now: a module, the cell, or the orphan queue. A
  /// guarded grant sets the host-side flag; the fast path sets only the
  /// waiter-local grant flag, so that is re-checked too. kGranted leaves
  /// the waiter counted.
  WaitResult resolve_timeout(Ctx& ctx, WaiterRecord<P>& rec) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    if (rec.granted_flag_host || P::load(ctx, rec.granted) != 0) {
      meta_unlock(ctx);
      return WaitResult::kGranted;
    }
    withdraw(ctx, rec);
    return timed_out(ctx, rec);
  }

  /// Meta held on entry. The meta-guarded registration of the simulated
  /// contended arrival and of every reader-writer waiter: enlist where new
  /// arrivals wait (never kNone here), wait for the grant, and on timeout
  /// resolve the race with a concurrent grant.
  bool wait_registered(Ctx& ctx, bool shared, const LockAttributes& attrs,
                       Nanos deadline, Nanos t0) {
    WaiterRecord<P> rec(domain_, ctx.self(), ctx.priority(),
                        grant_flag_placement(ctx), shared,
                        policy_may_sleep(attrs, opts_.advisory));
    rec.enqueue_time = t0;
    enlist(rec, arrival_target_kind(), arrival_module());
    // Registration order is fixed by the enqueue under meta: report it to
    // the checker before any releaser can grant the record.
    note(ctx, LockEvent::kRegistered, ctx.self());
    count_arrival();
    meta_unlock(ctx);

    if (wait<Probe::kGrantFlag>(ctx, rec, attrs, deadline) ==
            WaitResult::kGranted ||
        resolve_timeout(ctx, rec) == WaitResult::kGranted) {
      if (shared) {
        begin_hold<Hold::kSharedGrant>(ctx, t0);
      } else {
        begin_hold<Hold::kGrant>(ctx, t0);
      }
      return true;
    }
    return false;
  }

  /// Meta held, record withdrawn: the timeout wins. Releases meta. A
  /// withdrawal that empties the current module during a configuration
  /// delay completes the delay: the incoming module's waiters are served
  /// now if the lock is free, else by the holder's release.
  WaitResult timed_out(Ctx& ctx, const WaiterRecord<P>& rec) {
    note(ctx, LockEvent::kTimeoutReturn, rec.tid);
    count_departures(1);
    monitor_.on_timeout();
    if (has_pending_.load(std::memory_order_relaxed) && current_empty()) {
      serve_if_free(ctx);
    } else {
      meta_unlock(ctx);
    }
    return WaitResult::kTimedOut;
  }

  // Waiter accounting (waiter_count()): two monotone counters, each on a
  // line its writer already owns. An arrival counts itself once its record
  // is reachable, on the queue cell's line; whoever grants or withdraws a
  // record counts the departure, on the owner release line, before the
  // grant store.
  void count_arrival() noexcept {
    waiters_arrived_.fetch_add(1, std::memory_order_release);
  }
  void count_departures(std::uint32_t n) noexcept {
    waiters_departed_.fetch_add(n, std::memory_order_release);
  }

  /// Centralized (SchedulerKind::kNone) waiting. The record is not queued
  /// anywhere; it only enlists on the sleeper list during sleep phases.
  bool wait_barging(Ctx& ctx, const LockAttributes& attrs, Nanos deadline,
                    Nanos t0) {
    WaitResult r;
    {
      WaiterRecord<P> rec(domain_, ctx.self(), ctx.priority(),
                          grant_flag_placement(ctx), /*shared=*/false,
                          policy_may_sleep(attrs, opts_.advisory));
      // A barging waiter is a waiter even while it spins: count it for the
      // whole wait so state() can report kIdle (free with waiting threads,
      // Figure 4).
      struct CountGuard {
        ConfigurableLock& lk;
        explicit CountGuard(ConfigurableLock& l) : lk(l) { lk.count_arrival(); }
        ~CountGuard() { lk.count_departures(1); }
      } count_guard{*this};
      r = wait<Probe::kClaim>(ctx, rec, attrs, deadline);
    }
    if (r == WaitResult::kGranted) {
      begin_hold<Hold::kContendedClaim>(ctx, t0);
      return true;
    }
    monitor_.on_timeout();
    return false;
  }

  /// Meta held, or the module owner. Registers a drained, migrated or
  /// meta-guarded record where waiters of `kind` wait: the queue cell for a
  /// cell-served kind, else `module` - that kind's module - or the orphan
  /// queue for kNone (no module). Only a module's records name it; withdraw()
  /// finds the others in the cell or on the orphan queue.
  void enlist(WaiterRecord<P>& w, SchedulerKind kind, Scheduler<P>* module) {
    if (cell_served(kind)) {
      w.registered_with = nullptr;
      queue_cell_.push(w);
    } else if (module != nullptr) {
      w.registered_with = module;
      module->enqueue(w);
    } else {
      w.registered_with = nullptr;
      orphans_.push_back(w);
    }
  }

  // ------------------------------------------- queue cell consumer side ---
  // Producers are publish_arrival (the lock-free tail swap, kRealConcurrency
  // only) plus meta holders' enlist (the simulator's registrations, a
  // migration into a cell-served kind) - the latter run on the consumer's
  // own thread and open no windows. The consumer role itself is exclusive:
  // it belongs to the state-word owner (fast releases, grant_or_free behind
  // a claim) or to meta-holders with no fast release in flight
  // (configuration and timeout resolution, each under a QuiesceGuard), and
  // those two regimes exclude each other exactly as module ops always have.
  // The consumer operations wait out producers' two-store publication
  // windows with gated spins: the producer's very next platform access
  // after linking (the arr.mark fetch_or) re-enables a gated spinner under
  // the checker, so the waits are finite there too.

  /// The await the lock runs the cell's consumer operations with (see
  /// WaitQueueCell): a paced spin on the slot, announced to the checker.
  [[nodiscard]] auto cell_await(Ctx& ctx) {
    return [&ctx](const char* point, std::atomic<WaiterRecord<P>*>& slot) {
      chk_point<P>(ctx, point);
      std::uint32_t streak = 0;
      WaiterRecord<P>* r;
      while ((r = slot.load(std::memory_order_acquire)) == nullptr) {
        spin_step(ctx, streak);
      }
      return r;
    };
  }
  /// The holder's half of a linked grant, run by its release as the
  /// cell's consumer (a fast release in its quiesced epoch, or the guarded
  /// release under meta) before it drains or picks anything: a hold that
  /// began with a linked grant still owns its record, which stays the
  /// cell's front until now unless a drain unlinked it meanwhile. Unlinks
  /// the record if the cursor still names it - the cursor moves to its
  /// successor, or the tail swings back to empty when it is last - and
  /// returns it to the releasing thread's pool.
  ///
  /// Returns the new front when the holder's record linked it quick
  /// (WaitQueueCell::link), else null: the one successor a fast release
  /// may grant without reading its record.
  WaiterRecord<P>* release_hold_record(Ctx& ctx) {
    WaiterRecord<P>* quick = nullptr;
    if constexpr (kRealConcurrency<P>) {
      WaiterRecord<P>* const mine = holder_rec_;
      if (mine == nullptr) return nullptr;
      holder_rec_ = nullptr;
      if (queue_cursor_ == mine) {
        [[maybe_unused]] const bool unlinked =
            queue_cell_.unlink_front(queue_cursor_, *mine, cell_await(ctx));
        assert(unlinked);  // cell_await never gives up
        // The link the unlink followed, awaited if it was in flight, is
        // still in the record's line; the tail swung back to empty when
        // there was none.
        if (queue_cursor_ != nullptr &&
            Cell::quick(mine->qnext.load(std::memory_order_relaxed))) {
          quick = queue_cursor_;
        }
      }
      WaiterPool<P>::of(ctx).put(*mine);
    } else {
      (void)ctx;
    }
    return quick;
  }

  /// Meta held, or the module owner: the lock's one drain. When the kind
  /// new arrivals register under is not cell-served, the cell's records
  /// move, in arrival order, into that kind's module - or onto the orphan
  /// queue for kNone. On real platforms every scheduled arrival publishes
  /// into the cell, so this is how a priority, threshold, handoff or custom
  /// module (and a coroutine on kNone) receives its waiters. A cell-served
  /// current kind is left alone: on real platforms it never has a pending
  /// one beside it, but the simulator keeps that delay and its current FIFO
  /// still serves the pre-registered generation there.
  void drain_cell(Ctx& ctx) {
    const SchedulerKind target = arrival_target_kind();
    if (cell_served(target) ||
        cell_served(scheduler_kind_.load(std::memory_order_relaxed))) {
      return;
    }
    move_cell(ctx, target, arrival_module());
  }

  /// Meta held, or the module owner. Moves every record in the cell to
  /// where waiters of the module-selected `kind` (or kNone) wait (see
  /// enlist()), oldest first; the paced pop waits out in-flight links, so
  /// no linked waiter is left behind. A holder's linked record (the front,
  /// granted) is unlinked with the rest but enlisted nowhere: it waits for
  /// nothing, and its release finds it unlinked and only returns it to the
  /// pool.
  void move_cell(Ctx& ctx, SchedulerKind kind, Scheduler<P>* module) {
    const auto await = cell_await(ctx);
    while (WaiterRecord<P>* w = queue_cell_.pop(queue_cursor_, await)) {
      if (w != holder_rec_ || kSeededEnlistHolder) enlist(*w, kind, module);
    }
  }

  /// Meta held, fast releases waited out. Removes a timed-out record from
  /// wherever it is registered: the scheduler module that actually enqueued
  /// it (which may no longer be the current one after a reconfiguration),
  /// the queue cell (walking past a holder's linked record at the front),
  /// or the orphan queue.
  void withdraw(Ctx& ctx, WaiterRecord<P>& rec) {
    if (rec.registered_with != nullptr) {
      rec.registered_with->remove(rec);
      rec.registered_with = nullptr;
      return;
    }
    // Cell records carry no module registration (see enlist()); the paced
    // remover waits out an in-flight producer link. Not found in the cell
    // means the orphan queue.
    if (queue_cell_.remove(queue_cursor_, rec, cell_await(ctx))) return;
    orphans_.remove(rec);
  }

  [[nodiscard]] Placement grant_flag_placement(Ctx& ctx) const {
    return opts_.wait_placement == WaitPlacement::kWaiterLocal
               ? Placement::on(P::home_node(ctx))
               : opts_.placement;
  }

  // --------------------------------------------- the waiting engine ------

  /// One polite failed-probe step. On real-concurrency platforms a long
  /// streak escalates from PAUSE to yielding the processor: with more
  /// waiters than processors, burning the quantum on PAUSE delays the very
  /// thread that must release or hand off the lock (the all-spin FCFS cells
  /// of bench/native_throughput.cpp collapse by ~100x without this). The
  /// simulator's pause is a costed event and keeps the seed behaviour.
  static void spin_step(Ctx& ctx, std::uint32_t& streak) {
    if constexpr (kRealConcurrency<P>) {
      // With more live threads than processors, a PAUSE streak mostly burns
      // the quantum the grant-holder needs: give way much sooner.
      const std::uint32_t limit = P::oversubscribed(ctx)
                                      ? kSpinsBeforeYieldOversubscribed
                                      : kSpinsBeforeYield;
      if (++streak >= limit) {
        P::yield(ctx);
        return;
      }
    }
    P::pause(ctx);
  }

  /// The waiting engine (Phi): rounds of a spin phase followed by a sleep
  /// phase ("a thread spins and sleeps in turn until it acquires the
  /// lock"). The owner's advice, when advisory mode is on, overrides the
  /// configured policy round by round. Two parts differ per probe kind K,
  /// both fixed at compile time: the probe itself (probe()) and the sleep
  /// registration (sleep_enter()/sleep_exit()). A round with neither a
  /// spin nor a sleep phase - the degenerate (0, x, 0, _) policy, or a
  /// torn read of a racing reconfiguration - makes exactly one probe, one
  /// deadline check and one polite step, so it polls.
  template <Probe K>
  WaitResult wait(Ctx& ctx, WaiterRecord<P>& rec, const LockAttributes& attrs,
                  Nanos deadline) {
    // Pure backoff spinning grows the delay geometrically (Anderson);
    // mixed spin/sleep policies use a constant probe gap so "spin N times"
    // spans a predictable window before the sleep phase.
    BackoffSchedule backoff(BackoffSchedule::Params{
        attrs.delay_ns != 0 ? attrs.delay_ns : 1,
        attrs.sleep_ns > 0 ? attrs.delay_ns : attrs.delay_ns * 16, 2});
    std::uint32_t streak = 0;
    for (;;) {
      std::uint32_t probes = attrs.spin_count;
      Nanos sleep_ns = attrs.sleep_ns;
      if (opts_.advisory) apply_advice(ctx, probes, sleep_ns);
      if (probes == 0 && sleep_ns == 0) probes = 1;  // the degenerate round

      // Spin phase.
      for (std::uint32_t i = 0; i < probes;) {
        if (probe<K>(ctx, rec)) return WaitResult::kGranted;
        monitor_.on_spin_probe();
        if (deadline != kForever && P::now(ctx) >= deadline) {
          return WaitResult::kTimedOut;
        }
        if (attrs.delay_ns != 0) {
          P::delay(ctx, backoff.next());
        } else {
          bool parked = false;
          if constexpr (K == Probe::kGrantFlag && kRealConcurrency<P>) {
            // Oversubscription escalation: once the streak shows the
            // grant-holder is not being scheduled, stop probing - every
            // yield a doomed spinner takes steals a quantum from the
            // thread that must produce the grant. A policy with a sleep
            // phase of its own breaks to it early (without this, a
            // combined policy burns its whole spin budget as yields every
            // round and lands far below both pure spin and pure blocking -
            // the fcfs/combined_100 collapse in BENCH_native_throughput);
            // a policy without one parks right here. The streak is not
            // reset on wakeup, so the budget does not re-arm: a still-
            // oversubscribed waiter goes straight back to sleeping. Only
            // records registered sleepable escalate (their grant signals
            // the parker; the token protocol absorbs a grant landing
            // between the check and the park). A barging waiter never
            // parks here: it is on no list a release would wake.
            if (rec.may_sleep && streak >= kStreakBeforeParkOversubscribed &&
                P::oversubscribed(ctx)) {
              if (sleep_ns != 0) {
                // One spin step before the early sleep: a timed park alone
                // carries no progress guarantee in the relock-check model
                // (its timeout re-arms without a gated point, so a maximal
                // adversary can starve the releaser forever), and the
                // gated pause/yield inside spin_step is what hands the
                // schedule back. On hardware it costs one PAUSE.
                spin_step(ctx, streak);
                break;  // to this policy's own sleep phase
              }
              parked = true;
              monitor_.on_block();
              if (deadline == kForever) {
                note_trace(ctx, LockEvent::kPark, ctx.self());
                P::block(ctx);
              } else {
                const Nanos now = P::now(ctx);
                if (now >= deadline) return WaitResult::kTimedOut;
                note_trace(ctx, LockEvent::kPark, ctx.self());
                (void)P::block_for(ctx, deadline - now);
              }
              note_trace(ctx, LockEvent::kUnpark, ctx.self());
            }
          }
          if (!parked) spin_step(ctx, streak);
        }
        if (probes != kInfiniteSpins) ++i;
      }

      // Sleep phase.
      if (sleep_ns == 0) continue;
      if (sleep_enter<K>(ctx, rec)) return WaitResult::kGranted;
      monitor_.on_block();
      if (sleep_ns == kForever && deadline == kForever) {
        note_trace(ctx, LockEvent::kPark, ctx.self());
        P::block(ctx);
      } else {
        Nanos bound = sleep_ns;
        if (deadline != kForever) {
          const Nanos now = P::now(ctx);
          if (now >= deadline) {
            // A kClaim waiter is enlisted on the sleeper list by now.
            if constexpr (K == Probe::kClaim) (void)sleep_exit<K>(ctx, rec);
            return WaitResult::kTimedOut;
          }
          bound = std::min(bound, deadline - now);
        }
        note_trace(ctx, LockEvent::kPark, ctx.self());
        (void)P::block_for(ctx, bound);
      }
      note_trace(ctx, LockEvent::kUnpark, ctx.self());
      if (sleep_exit<K>(ctx, rec)) return WaitResult::kGranted;
      if (deadline != kForever && P::now(ctx) >= deadline) {
        return WaitResult::kTimedOut;
      }
    }
  }

  /// One probe: true when the lock is now ours.
  template <Probe K>
  bool probe(Ctx& ctx, WaiterRecord<P>& rec) {
    if constexpr (K == Probe::kGrantFlag) {
      return P::load(ctx, rec.granted) != 0;
    } else {
      (void)rec;
      return claimed(P::load(ctx, state_)) &&
             claimed(P::fetch_or(ctx, state_, kStateHeld));
    }
  }

  /// Sleep registration, before blocking; true when the lock is now ours.
  /// A kGrantFlag waiter's parker is its registration (a grant signals
  /// it), so it only re-probes the flag. A kClaim waiter enlists on the
  /// sleeper list, which release wakes en masse. Its claim carries the
  /// contended bit (kClaimMark): if the word is held, the mark disables
  /// the holder's single-CAS fast unlock BEFORE we register as a sleeper -
  /// a fast unlock wakes nobody. (A successful claim sets the bit
  /// spuriously on ourselves; our own release then takes the guarded path
  /// once and free-publish clears it.)
  template <Probe K>
  bool sleep_enter(Ctx& ctx, WaiterRecord<P>& rec) {
    if constexpr (K == Probe::kGrantFlag) {
      return probe<K>(ctx, rec);
    } else {
      meta_lock(ctx);
      if (claimed(P::fetch_or(ctx, state_, kClaimMark))) {
        holders_ = 1;  // freed while we took meta
        meta_unlock(ctx);
        return true;
      }
      sleepers_.push_back(rec);
      meta_unlock(ctx);
      return false;
    }
  }

  /// Sleep deregistration, after waking; true when the lock is now ours.
  template <Probe K>
  bool sleep_exit(Ctx& ctx, WaiterRecord<P>& rec) {
    if constexpr (K == Probe::kGrantFlag) {
      return probe<K>(ctx, rec);
    } else {
      meta_lock(ctx);
      sleepers_.remove(rec);  // no-op if the releaser already popped us
      meta_unlock(ctx);
      return false;
    }
  }

  /// Overrides one waiting round's plan with the owner's advice. Sleep
  /// advice carrying a tenure deadline translates into a single bounded
  /// sleep ending kAdviceSpinMargin before the expected release, followed
  /// by spinning (the paper's speculative lock).
  void apply_advice(Ctx& ctx, std::uint32_t& probes, Nanos& sleep_ns) {
    const std::uint64_t word = P::load(ctx, advice_);
    switch (static_cast<Advice>(word & 3)) {
      case Advice::kSpin:
        probes = probes != 0 ? probes : kAdviceChunk;
        sleep_ns = 0;
        break;
      case Advice::kSleep: {
        probes = 0;
        const Nanos wake_at = word >> 2;
        if (wake_at == 0) {
          sleep_ns = opts_.advice_sleep_slice;  // no deadline: sleep a slice
          break;
        }
        const Nanos now = P::now(ctx);
        if (wake_at > now + kAdviceSpinMargin) {
          sleep_ns = wake_at - now - kAdviceSpinMargin;
        } else {
          probes = kAdviceChunk;  // inside the margin: spin for the grant
          sleep_ns = 0;
        }
        break;
      }
      case Advice::kNone:
        break;
    }
    if (probes == kInfiniteSpins) probes = kAdviceChunk;
  }

  // -------------------------------- configuration-quiescence epoch -------
  // kRealConcurrency only (the simulator has no fast release; the guard is
  // a no-op there). Protocol: a fast releaser increments its in-flight
  // count then checks the breaker count; a QuiesceGuard increments the
  // breaker count then waits for in-flight releases to drain. Both sides
  // use sequentially consistent RMWs/loads (Dekker), so at least one
  // observes the other: either the releaser stands down onto the guarded
  // path, or the guard waits it out and then sees all its module
  // mutations.

  /// The one quiescence breaker, held for the span of one mutation under
  /// meta - a configuration change or a timeout withdrawal: no fast release
  /// begins until it is destroyed, and the constructor waits out those in
  /// flight. It never waits on a hold: a fast release retires its count
  /// right after its grant store, linked grants included. The destructor
  /// announces no scheduling point: it must not throw the checker's unwind
  /// exception.
  class QuiesceGuard {
   public:
    QuiesceGuard(Ctx& ctx, ConfigurableLock& lock) : ctx_(ctx), lock_(lock) {
      if constexpr (kRealConcurrency<P>) {
        chk_point<P>(ctx, "qg.arm");
        lock_.quiesce_breakers_.fetch_add(1, std::memory_order_seq_cst);
        lock_.note(ctx, LockEvent::kBreakerArm);
        std::uint32_t streak = 0;
        for (;;) {
          chk_point<P>(ctx, "epoch.check");
          if (lock_.fast_releases_inflight_.load(std::memory_order_acquire) ==
              0) {
            break;
          }
          spin_step(ctx, streak);
        }
      }
    }
    ~QuiesceGuard() {
      if constexpr (kRealConcurrency<P>) {
        lock_.quiesce_breakers_.fetch_sub(1, std::memory_order_seq_cst);
        lock_.note(ctx_, LockEvent::kBreakerDisarm);
      }
    }
    QuiesceGuard(const QuiesceGuard&) = delete;
    QuiesceGuard& operator=(const QuiesceGuard&) = delete;

   private:
    Ctx& ctx_;
    ConfigurableLock& lock_;
  };

  /// Cache hints, issued before the Dekker gate: its locked RMW waits for
  /// the critical section's stores to drain, and a linked holder's release
  /// will next miss on its own record's successor link and then on that
  /// successor's grant word. Loading the link here overlaps both misses
  /// with the drain. A hint only: the link is read again as the cell's
  /// consumer, inside the epoch, and a stale one (a withdrawal may relink
  /// it meanwhile) costs a wasted prefetch.
  [[gnu::always_inline]] void warm_successor_lines() const noexcept {
    if constexpr (kRealConcurrency<P> && !kCheckedPlatform<P>) {
      if (const WaiterRecord<P>* const mine = holder_rec_) {
        const WaiterRecord<P>* const next =
            Cell::record(mine->qnext.load(std::memory_order_relaxed));
        if (next != nullptr) __builtin_prefetch(&next->granted, 1);
      }
    }
  }

  /// `began`: the Dekker gate was passed (the checker's fast-release window
  /// opened), so the matching end-of-window event must be reported.
  bool release_fast_abort(Ctx& ctx, bool began) {
    chk_point<P>(ctx, "fr.retire");
    fast_releases_inflight_.fetch_sub(1, std::memory_order_seq_cst);
    if (began) note(ctx, LockEvent::kFastReleaseEnd);
    return false;
  }

  /// The single-store contended release: the release module run by the
  /// state-word owner without the meta guard. Returns false (having
  /// touched nothing but the in-flight count) to route the release through
  /// the guarded path. Exclusivity argument: only the state-word owner runs
  /// a release module, and this path never publishes the word free, so
  /// fast releases are serialized by ownership handoff itself; the Dekker
  /// gate below excludes them from configuration operations. The count is
  /// retired right after the grant store, a linked grant's too: the
  /// grantee's record stays the cell's front as the holder's, which every
  /// other consumer recognises, so nothing ever waits on a hold.
  [[nodiscard]] bool release_fast(Ctx& ctx, ThreadId hint) {
    warm_successor_lines();
    chk_point<P>(ctx, "fr.enter");
    fast_releases_inflight_.fetch_add(1, std::memory_order_seq_cst);
    chk_point<P>(ctx, "fr.gate");
    if (quiesce_breakers_.load(std::memory_order_seq_cst) != 0) {
      return release_fast_abort(ctx, /*began=*/false);
    }
    // Quiescent: configuration is locked out until our in-flight count
    // drops; we own the modules by holding the state word.
    note(ctx, LockEvent::kFastReleaseBegin);
    WaiterRecord<P>* const quick = release_hold_record(ctx);
    chk_point<P>(ctx, "fr.mod");
    // The guarded path's cases: kNone (it frees the word and wakes
    // sleepers), a configuration delay to complete, or orphans to serve
    // before any module's choice.
    if (scheduler_kind_.load(std::memory_order_relaxed) ==
            SchedulerKind::kNone ||
        has_pending_.load(std::memory_order_relaxed) || !orphans_.empty()) {
      return release_fast_abort(ctx, /*began=*/true);
    }
    drain_cell(ctx);  // no delay: the current module is the arrival target
    chk_point<P>(ctx, "fr.select");
    WaiterRecord<P>* const succ =
        pick_successor(ctx, hint, /*fast=*/true, quick);
    if (succ == nullptr) {
      // Nobody eligible: publishing the word free (and waking barging
      // sleepers) is the guarded path's job.
      return release_fast_abort(ctx, /*began=*/true);
    }
    // A pick left linked is still the cell's front: it becomes the
    // holder's record.
    chk_point<P>(ctx, "fr.publish");
    const Grantee g = grant_exclusive(ctx, *succ,
                                      succ != queue_cursor_ ? Grant::kUnlinked
                                      : succ == quick       ? Grant::kQuick
                                                            : Grant::kLinked);
    // The epilogue touches only the in-flight count (hence a counter, not
    // a flag: it may overlap the new owner's own fast release) and, after
    // retiring it, the coroutine grant-hook delivery.
    if (g.may_sleep) {
      monitor_.on_wakeup();
      P::unblock(ctx, g.tid);
    }
    chk_point<P>(ctx, "fr.retire");
    fast_releases_inflight_.fetch_sub(1, std::memory_order_seq_cst);
    note(ctx, LockEvent::kFastReleaseEnd);
    // Coroutine waiter: deliver the grant to its executor, AFTER the
    // in-flight count retires. The granted flag is published above, so a
    // timeout resolution whose QuiesceGuard drains this release re-checks
    // the flag under meta, observes the grant, and stands down to consume
    // the - possibly still in-flight - delivery. Firing the hook inside the
    // in-flight window would deadlock an inline executor: a resumed frame
    // that quiesces the epoch (a reconfiguration, or a timed wait's own
    // resolution) would spin on the very count its resumer still holds.
    // The hook is the last touch of the record - the resumed frame owns it.
    if (g.hook != nullptr) g.hook(g.hook_arg, ctx);
    // Oversubscribed processor: give the grantee a chance to run now
    // rather than after our quantum expires re-contending the lock.
    if (P::oversubscribed(ctx)) P::yield(ctx);
    return true;
  }

  // -------------------------------------------------------- release ------

  /// The one release entry; both unlocks reach it once their argument
  /// checks pass. In order: the hold ends (the monitor's hold-time pair,
  /// exclusive releases only); a fast-eligible hold tries the fissile
  /// held->free CAS; an active lock's serving manager is posted the
  /// release; real platforms try the single-store fast release (passive
  /// exclusive locks only); the guarded release does the rest.
  [[gnu::always_inline]] void end_hold(Ctx& ctx, ThreadId hint,
                                       bool shared) {
    note_trace(ctx, LockEvent::kRelease, ctx.self());
    if (!shared) {
      // Clock elision: the hold-time pair feeds only the monitor, so with
      // the monitor off the release makes no clock read at all. With it
      // on, a real-platform hold that drew no timing sample (acquire_time_
      // zero) just counts the release.
      if (monitor_.enabled()) {
        if (!kRealConcurrency<P> || acquire_time_ != 0) {
          monitor_.on_release(P::now(ctx) - acquire_time_);
        } else {
          monitor_.on_release();
        }
      }
      if (fast_eligible_) {
        // Fissile fast unlock: in fast mode (contended bit clear) no
        // waiter state exists for the release module to serve, so one CAS
        // of held->free is the whole release. The CAS (not a plain store)
        // is what makes this sound: a waiter's mark landing first makes it
        // fail, and we fall through to the full paths below. A
        // fast-eligible lock is passive by definition, so no active
        // manager is bypassed here. A hold that began with a grant
        // skips the CAS: the contended bit was set when it was granted and
        // only this owner's own guarded free-publish clears it, so the CAS
        // would fail - a wasted RMW on the line arrivals are marking. (A
        // load of the state word before the CAS would catch the same case,
        // but puts a load on the uncontended path's critical path.)
        chk_point<P>(ctx, "fu.cas");
        if (!full_mode_hold_ && P::cas(ctx, state_, kStateHeld, 0)) {
          note(ctx, LockEvent::kReleaseFree);
          return;
        }
      }
    }
    if (opts_.execution == Execution::kActive && serving_.load()) {
      post_release(ctx, hint, shared);
      return;
    }
    if constexpr (kRealConcurrency<P>) {
      if (opts_.execution == Execution::kPassive && !rw_capable() &&
          release_fast(ctx, hint)) {
        return;
      }
    }
    release(ctx, hint, shared);
  }

  void release(Ctx& ctx, ThreadId hint, bool shared) {
    meta_lock(ctx);
    if (shared) {
      if (holders_ == 0) {
        // Release meta before unwinding so the misuse cannot wedge the lock.
        meta_unlock(ctx);
        misuse("unlock_shared without a matching shared hold");
      }
      --holders_;
      if (holders_ != 0) {
        meta_unlock(ctx);
        return;
      }
    } else {
      release_hold_record(ctx);
      holders_ = 0;
      writer_held_ = false;
      store_owner(ctx, 0);
    }
    grant_or_free(ctx, hint);  // releases meta
  }

  /// Meta held; releases it. Runs the release module for a lock whose
  /// waiters a configuration or a withdrawal may have made servable. If
  /// the lock is free, the claim makes this thread the module owner; it
  /// carries the contended bit (kClaimMark): a direct handoff may follow,
  /// and the grantee's release must see full mode while the remaining
  /// waiters stay queued. A holder serves them at its own release: the
  /// mark, or the full-mode hold of a granted holder, routes that release
  /// through the release module.
  void serve_if_free(Ctx& ctx) {
    if (!held_locked() && claimed(P::fetch_or(ctx, state_, kClaimMark))) {
      grant_or_free(ctx, kInvalidThread);  // releases meta
      return;
    }
    meta_unlock(ctx);
  }

  /// The module owner's successor pick (meta held, or a fast release in a
  /// quiesced epoch; the current kind is not kNone; the releasing holder's
  /// own record already unlinked): the cell's front for the cell-served kinds
  /// - the paced awaits wait out producers' link windows, so a linked
  /// waiter is never skipped - else the module's select into the grant
  /// scratch. Returns the first grantee, or null when nobody is eligible.
  /// A `fast` pick leaves a thread's front record linked, for a linked
  /// grant: it stays the front as the holder's record until the grantee's
  /// own release. A coroutine's record (grant_hook set) lives in its
  /// frame, which may die at any time after its hold begins, and guarded
  /// picks do not link at all, so those records are unlinked before their
  /// grant. A `quick` front (see release_hold_record) is known to be a
  /// thread's and is not read. An exclusive pick leaves the scratch
  /// empty: the new owner may run a fast release -
  /// which selects into the scratch without meta - the instant its grant
  /// lands. A reader batch stays in the scratch for the guarded path to
  /// grant (RW locks never release fast).
  [[nodiscard, gnu::always_inline]] WaiterRecord<P>* pick_successor(
      Ctx& ctx, ThreadId hint, bool fast,
      const WaiterRecord<P>* quick = nullptr) {
    if (cell_served(scheduler_kind_.load(std::memory_order_relaxed))) {
      WaiterRecord<P>* const w =
          queue_cell_.front(queue_cursor_, cell_await(ctx));
      if (w != nullptr &&
          !(fast && (w == quick || w->grant_hook == nullptr))) {
        // release_fast grants linked exactly when the pick is still the
        // cursor, so an unlink that gave up would strand this record.
        [[maybe_unused]] const bool unlinked =
            queue_cell_.unlink_front(queue_cursor_, *w, cell_await(ctx));
        assert(unlinked);  // cell_await never gives up
      }
      return w;
    }
    grant_scratch_.clear();
    scheduler_->select(grant_scratch_, hint);
    if (grant_scratch_.empty()) return nullptr;
    WaiterRecord<P>* const first = grant_scratch_.front();
    assert(first->shared || grant_scratch_.size() == 1);
#ifndef RELOCK_CHECK_SEEDED_BUG_1
    if (!first->shared) grant_scratch_.clear();
#endif
    return first;
  }

  /// The fields of a grantee its granter still needs after the grant
  /// store, read before it: from that store on the record (pooled, on the
  /// waiter's stack, or in a suspended coroutine frame) may be reused or
  /// gone.
  struct Grantee {
    ThreadId tid = kInvalidThread;
    bool may_sleep = false;
    typename WaiterRecord<P>::GrantHook hook = nullptr;
    void* hook_arg = nullptr;
  };

  /// How an exclusive grant is published: by a meta holder (the record is
  /// unlinked), or by a fast release with the record unlinked or still the
  /// cell's front (linked: it becomes holder_rec_) - quick when the link
  /// to it said it is a thread waiter that never sleeps.
  enum class Grant : std::uint8_t { kGuarded, kUnlinked, kLinked, kQuick };

  /// Whether anything consumes a grant's tid besides a wake-up: the
  /// checker's and the tracer's kGranted event, or a recursive lock's
  /// owner word.
  [[nodiscard]] bool grant_tid_observed() const noexcept {
#ifdef RELOCK_TRACE
    return true;
#else
    return kCheckedPlatform<P> || !kRealConcurrency<P> || opts_.recursive;
#endif
  }

  /// The one exclusive grant publication, used by the fast release and the
  /// guarded release module alike once every module mutation is complete:
  /// the mirrors and counts first, the grant-word store last - the one
  /// store the new owner's critical section is ordered after. A meta
  /// holder also sets the host-side flag that meta-guarded timeout
  /// resolution reads; the fast release leaves it alone, so the grantee's
  /// handoff line stays clean (lock-free timeout resolution re-checks the
  /// grant word instead). holder_rec_ names the record of a linked grant
  /// and nothing otherwise.
  [[gnu::always_inline]] Grantee grant_exclusive(Ctx& ctx,
                                                 WaiterRecord<P>& w,
                                                 Grant how) {
    // A quick grant reads no field of the record's handoff line, unless
    // an observer needs the tid: a quick cell record names no module,
    // never sleeps and has no hook.
    Grantee g;
    if (how != Grant::kQuick) {
      unregister(w);
      if (how == Grant::kGuarded) w.granted_flag_host = true;
      g = Grantee{w.tid, w.may_sleep, w.grant_hook, w.grant_hook_arg};
    } else if (grant_tid_observed()) {
      g.tid = w.tid;
    }
    holders_ = 1;
    if constexpr (kRealConcurrency<P>) {
      holder_rec_ =
          how == Grant::kLinked || how == Grant::kQuick ? &w : nullptr;
    }
    store_owner(ctx, static_cast<std::uint64_t>(g.tid) + 1);
    monitor_.on_handoff();
    count_departures(1);
    P::store(ctx, w.granted, 1);
    note(ctx, LockEvent::kGranted, g.tid);
#ifdef RELOCK_CHECK_SEEDED_BUG_1
    // Seeded PR 2 bug (TSan-caught): the shared grant scratch is cleared
    // only after the grant flag is published, so the new owner may already
    // be inside its own fast release - using the scratch without meta -
    // when this late clear lands.
    chk_point<P>(ctx, "bug1.window");
    grant_scratch_.clear();
#endif
    return g;
  }

  /// The guarded release module: drains lock-free arrivals, installs a
  /// pending scheduler if the old one has drained, picks the next grant
  /// (orphans first), and either hands the lock off or publishes it as
  /// free. Expects meta held; releases it.
  ///
  /// Allocation-free in steady state (asserted by release_alloc_test): the
  /// wake list lives in a fixed stack array and the grant batch reuses the
  /// lock's scratch instance. The wake list must be local - once meta is
  /// released another thread may release again concurrently - so overflow
  /// wakes (giant reader batches) are issued while meta is still held:
  /// correct, just a longer guard hold on a path that is rare by
  /// construction.
  void grant_or_free(Ctx& ctx, ThreadId hint) {
    ThreadId wake_buf[kWakeInline];
    std::size_t wake_count = 0;
    // Coroutine waiters granted in this release: their delivery hooks must
    // run after meta_unlock (a hook may resume a frame that re-enters the
    // lock). An exclusive grantee's hook comes back from grant_exclusive; a
    // reader batch's are chained through the granter-owned hook_next link.
    // Safe to chain before the granted store: a hooked record's lifetime is
    // owned by the suspended frame, which cannot resume - and so cannot
    // free the record - until its hook fires below.
    Grantee grantee;
    WaiterRecord<P>* hooked_head = nullptr;
    WaiterRecord<P>** hooked_tail = &hooked_head;
    const auto queue_wake = [&](ThreadId tid) {
      monitor_.on_wakeup();
      if (wake_count < kWakeInline) {
        wake_buf[wake_count++] = tid;
      } else {
        P::unblock(ctx, tid);
      }
    };

    for (;;) {
      if constexpr (kRealConcurrency<P>) drain_cell(ctx);
      if (has_pending_.load(std::memory_order_relaxed) && current_empty()) {
        install_pending(ctx);
      }
      // Orphans first, FIFO: waiters drained while no scheduler was current
      // (reconfigured to kNone mid-arrival) or pre-registered in the cell
      // when the lock left a cell-served kind precede any module's choice,
      // so they cannot be stranded behind it.
      WaiterRecord<P>* w = orphans_.front();
      if (w != nullptr) {
        orphans_.remove(*w);
      } else if (scheduler_kind_.load(std::memory_order_relaxed) !=
                 SchedulerKind::kNone) {
        w = pick_successor(ctx, hint, /*fast=*/false);
      }

      if (w == nullptr) {
        // Nobody eligible: publish free and wake sleeping barging waiters.
        P::store(ctx, state_, 0);
        note(ctx, LockEvent::kReleaseFree);
        sleepers_.for_each([&](WaiterRecord<P>& s) {
          sleepers_.remove(s);
          queue_wake(s.tid);
          return true;
        });
        if constexpr (kRealConcurrency<P>) {
          // Mirror of the arrival path's lost-release guard: re-examine the
          // cell's tail with a seq_cst RMW after publishing free. It RMWs
          // the word an arrival's tail swap RMWs, so the two are ordered in
          // that word's modification order: a waiter whose swap raced our
          // drain either sees the free state itself or is seen here; if
          // seen, re-close the gate and serve it. The re-grab carries the
          // contended bit (kClaimMark): the free-publish above erased the
          // raced waiter's mark, so if a fast-path acquirer steals the word
          // between our store and this RMW, the bit we set here is what
          // routes the thief's release through the full path to serve that
          // waiter - without it a single-CAS fast unlock would strand the
          // record in the cell.
          //
          // Not during a configuration delay: a pending module exists only
          // while the current one still holds waiters (the install above
          // ran otherwise), and every record in the cell then belongs to
          // the incoming generation, which no release can serve before the
          // current module empties - re-grabbing for it would spin here
          // for as long as the current module's waiters stay ineligible.
          // That module empties by a grant, whose grantee's release takes
          // the guarded path (the fast release stands down for a pending
          // delay), or by a withdrawal, whose timed_out() serves the
          // incoming generation - so the cell's records are not stranded.
          chk_point<P>(ctx, "gf.recheck");
          if (!has_pending_.load(std::memory_order_relaxed) &&
              queue_cell_.tail.fetch_add(0, std::memory_order_seq_cst) !=
                  nullptr &&
              claimed(P::fetch_or(ctx, state_, kClaimMark))) {
            hint = kInvalidThread;
            continue;
          }
        }
        meta_unlock(ctx);
        break;
      }

      // Direct handoff: the state word stays held.
      if (!w->shared) {
        writer_held_ = true;
        grantee = grant_exclusive(ctx, *w, Grant::kGuarded);
        if (grantee.may_sleep) queue_wake(grantee.tid);
        meta_unlock(ctx);
        break;
      }
      // Reader batch: only reader-writer locks produce these, and RW locks
      // never take the fast-release path, so nobody races the scratch.
      holders_ = static_cast<std::uint32_t>(grant_scratch_.size());
      writer_held_ = false;
      count_departures(holders_);
      for (WaiterRecord<P>* r : grant_scratch_) {
        unregister(*r);
        r->granted_flag_host = true;
        monitor_.on_handoff();
        if (r->may_sleep) queue_wake(r->tid);
        const ThreadId shared_tid = r->tid;
        if (r->grant_hook != nullptr) {
          r->hook_next = nullptr;
          *hooked_tail = r;
          hooked_tail = &r->hook_next;
        }
        P::store(ctx, r->granted, 1);
        note(ctx, LockEvent::kGranted, shared_tid);
        // After this store the record (on the waiter's stack) may disappear
        // once meta is released; only the captured tids are used below.
      }
      grant_scratch_.clear();  // drop dangling pointers before leaving meta
      meta_unlock(ctx);
      break;
    }
    for (std::size_t i = 0; i < wake_count; ++i) {
      P::unblock(ctx, wake_buf[i]);
    }
    // Deliver coroutine grants. Each hook is the granter's last touch of
    // its record: the resumed frame owns it and may free it immediately.
    if (grantee.hook != nullptr) grantee.hook(grantee.hook_arg, ctx);
    for (WaiterRecord<P>* r = hooked_head; r != nullptr;) {
      WaiterRecord<P>* const next = r->hook_next;
      r->grant_hook(r->grant_hook_arg, ctx);
      r = next;
    }
  }

  /// Common body of the configure_scheduler overloads: charges the 1R5W
  /// cost, stages the new kind with its module (`fresh`, null for the kinds
  /// without one), and installs it immediately when no pre-registered
  /// waiters exist.
  void install_scheduler(Ctx& ctx, SchedulerKind kind,
                         std::unique_ptr<Scheduler<P>> fresh) {
    // Checked before the quiescence epoch is broken: misuse() unwinds and
    // must leave nothing armed.
    if ((kind == SchedulerKind::kReaderWriter) != rw_capable()) {
      misuse("RW capability is fixed at construction; cannot switch a lock "
             "between reader-writer and exclusive scheduler kinds");
    }
    // Scheduler swaps retire the outgoing module: quiesce the fast path so
    // no release is inside the module while it is swapped.
    QuiesceGuard quiesce(ctx, *this);
    note(ctx, LockEvent::kConfigMutateBegin);
    monitor_.on_reconfiguration(/*scheduler_change=*/true);
    (void)P::load(ctx, sched_flag_);                    // 1R
    if constexpr (kObservedWords<P>) {
      const auto code = static_cast<std::uint64_t>(kind);
      P::store(ctx, sched_reg_, code);                  // W1: registration
      P::store(ctx, sched_acq_, code);                  // W2: acquisition
      P::store(ctx, sched_rel_, code);                  // W3: release
    }
    P::store(ctx, sched_flag_, 1);                      // W4: delay flag on
    meta_lock(ctx);
    // Arrivals published before this configuration belong to the outgoing
    // generation: drain them into the module they registered under, to be
    // served under the configuration-delay rule.
    drain_cell(ctx);
    // A cell-served kind never holds a configuration delay on real
    // platforms. Towards another cell-served kind the outgoing and
    // incoming kinds serve the same FIFO, so the pre-registered waiters
    // are served first by construction. Towards any other kind the
    // pre-registered generation moves onto the orphan queue, which is
    // served FIFO before any module's choice, so it still goes first.
    // Deferring instead would keep the fast release off for as long as the
    // cell never empties - under load, indefinitely. The simulator keeps
    // the delay in every direction: its tables measure it.
    const bool cell_current =
        kRealConcurrency<P> &&
        cell_served(scheduler_kind_.load(std::memory_order_relaxed));
    if (cell_current && !cell_served(kind)) {
      move_cell(ctx, SchedulerKind::kNone, nullptr);  // onto the orphans
    }
    if (pending_scheduler_ != nullptr) {
      // Stacked reconfiguration: a previous pending module was never
      // installed. Migrate its registered waiters - into the incoming
      // module, the cell for a cell-served kind, or the orphan queue for
      // kNone - instead of destroying them with it. A pending cell-served
      // kind has no module: its waiters sit in the lock's cell.
      while (WaiterRecord<P>* w = pending_scheduler_->pop_any()) {
        enlist(*w, kind, fresh.get());
      }
    }
    pending_scheduler_ = std::move(fresh);
    if (pending_scheduler_ != nullptr) {
      pending_scheduler_->set_rw_preference(opts_.rw_preference);
    }
    pending_kind_.store(kind, std::memory_order_relaxed);
    has_pending_.store(true, std::memory_order_relaxed);
    // The waiters of a replaced cell-served pending kind move into the
    // incoming module, ahead of later registrations, unless it serves the
    // cell too.
    drain_cell(ctx);
    // New registrations target the incoming kind from here on: a new
    // configuration generation for the fairness oracles.
    note(ctx, LockEvent::kSchedulerInstalled);
    if (current_empty() || cell_current) {
      install_pending(ctx);                             // W5: flag reset
    }
    note(ctx, LockEvent::kConfigMutateEnd);
    meta_unlock(ctx);
  }

  /// Installs the pending scheduler (configuration-delay completion) and
  /// performs the deferred flag-reset write (the 5th W of 1R5W).
  void install_pending(Ctx& ctx) {
    scheduler_ = std::move(pending_scheduler_);
    scheduler_kind_.store(pending_kind_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    has_pending_.store(false, std::memory_order_relaxed);
    P::store(ctx, sched_flag_, 0);
  }

  // ----------------------------------------------------- bookkeeping -----

  /// The one place a hold begins, keyed by how it began (Hold). An
  /// exclusive claim stores the owner word (a grant's was stored by its
  /// granter); every exclusive hold resets the recursion depth and records
  /// whether it began in full mode - every grant leaves the contended bit
  /// set, which lets the fissile unlock skip a CAS that would fail. Clock
  /// elision on real platforms: with the monitor off the timestamps feed
  /// nothing; with it on, only the 1-in-N sampled acquisitions (t0
  /// nonzero) pay clock reads. acquire_time_ == 0 tells the release side
  /// this hold carries no time sample. The simulator times every
  /// operation, as its calibrated tables expect. Forced inline, like the
  /// release entry and its pick and publication: as out-of-line calls
  /// these four cost `governed_phases` ~5% on its median operation
  /// (EXPERIMENTS.md, *One release path*).
  template <Hold H>
  [[gnu::always_inline]] void begin_hold(Ctx& ctx, Nanos t0) {
    constexpr bool kShared = H == Hold::kSharedEntry || H == Hold::kSharedGrant;
    constexpr bool kWaited = H == Hold::kContendedClaim || H == Hold::kGrant ||
                             H == Hold::kSharedGrant;
    note_trace(ctx,
               kShared   ? LockEvent::kAcquireShared
               : kWaited ? LockEvent::kAcquireSlow
                         : LockEvent::kAcquireFast,
               ctx.self());
    if constexpr (!kShared) {
      if constexpr (H != Hold::kGrant) {
        store_owner(ctx, static_cast<std::uint64_t>(ctx.self()) + 1);
      }
      recursion_depth_ = 0;
      full_mode_hold_ = H == Hold::kGrant;
    }
    if (kRealConcurrency<P> && !monitor_.enabled()) {
      if constexpr (!kShared) acquire_time_ = 0;
      return;
    }
    if constexpr (kShared) {
      monitor_.on_shared_acquire();
    } else {
      monitor_.on_acquire(kWaited);
    }
    const bool sampled = !kRealConcurrency<P> || t0 != 0;
    const Nanos now = sampled ? P::now(ctx) : 0;
    if constexpr (!kShared) acquire_time_ = now;
    if (kWaited && sampled) monitor_.on_wait_complete(now - t0);
  }

  // ------------------------------------------------- reader-writer -------

  bool try_acquire_rw(Ctx& ctx, bool shared) {
    const Nanos t0 = timing_stamp(ctx);
    meta_lock(ctx);
    if (rw_enter_at_once(ctx, shared, t0)) return true;
    meta_unlock(ctx);
    return false;
  }

  /// Clock elision as in acquire(): the timestamp is taken only for the
  /// monitor's timing sample, and a deadline anchors at arrival - at once
  /// for an explicit lock_shared_for()/lock_for() timeout, at registration
  /// for an attribute-configured one.
  bool acquire_rw(Ctx& ctx, bool shared, Nanos timeout_override) {
    const Nanos t0 = timing_stamp(ctx);
    Nanos arrival = t0;
    if constexpr (kRealConcurrency<P>) {
      if (timeout_override != 0 && t0 == 0) arrival = P::now(ctx);
    } else {
      log_registrant(ctx);
    }

    meta_lock(ctx);
    const LockAttributes attrs = registration_attrs(ctx, timeout_override);
    // The simulator keeps its entry-time anchor (t0 is always read there).
    const Nanos deadline =
        !kRealConcurrency<P> ? (attrs.timeout_ns != 0 ? t0 + attrs.timeout_ns
                                                      : kForever)
                             : arrival_deadline(ctx, attrs, t0, arrival);
    if (rw_enter_at_once(ctx, shared, t0)) return true;

    assert(arrival_module() != nullptr && "RW locks always have a scheduler");
    return wait_registered(ctx, shared, attrs, deadline, t0);
  }

  /// Meta held. The reader-writer immediate entry: when rw_can_enter()
  /// admits the caller, takes the hold, releases meta and begins the hold
  /// bookkeeping (true); otherwise changes nothing and keeps meta (false).
  bool rw_enter_at_once(Ctx& ctx, bool shared, Nanos t0) {
    if (!rw_can_enter(shared)) return false;
    if (shared) {
      ++holders_;
    } else {
      holders_ = 1;
    }
    writer_held_ = !shared;
    if (holders_ == 1) P::store(ctx, state_, 1);
    meta_unlock(ctx);
    if (shared) {
      begin_hold<Hold::kSharedEntry>(ctx, t0);
    } else {
      begin_hold<Hold::kClaim>(ctx, t0);
    }
    return true;
  }

  /// Meta held. Immediate-entry rule: the lock must be compatible *and*
  /// nobody is queued (so waiting writers are not starved by arriving
  /// readers), except under reader preference where readers may join.
  [[nodiscard]] bool rw_can_enter(bool shared) const {
    const bool queue_empty =
        (scheduler_ == nullptr || scheduler_->empty()) &&
        (pending_scheduler_ == nullptr || pending_scheduler_->empty());
    if (shared) {
      const bool compatible = !writer_held_;
      if (opts_.rw_preference == RwPreference::kReaderPref) {
        return compatible;  // readers barge past queued writers
      }
      return compatible && queue_empty;  // do not starve queued writers
    }
    return holders_ == 0 && queue_empty;
  }

  // -------------------------------------------------- active locks -------

  // Mailbox protocol: 0 = empty; kMailboxShared = shared releases counted
  // in pending_shared_releases_; >= kMailboxExclusive = one exclusive
  // release, hint inline. An exclusive lock has at most one release in
  // flight (the next release cannot happen before the manager grants this
  // one), so the whole request fits in a single mailbox write - this is
  // what makes active unlocks cheaper for the releasing processor than
  // running the release module. Readers may release concurrently; a shared
  // release carries nothing but itself, so they are counted.
  static constexpr std::uint64_t kMailboxShared = 1;
  static constexpr std::uint64_t kMailboxExclusive = 2;

  static constexpr std::uint64_t encode_mailbox_hint(ThreadId hint) noexcept {
    return hint == kInvalidThread
               ? kMailboxExclusive
               : kMailboxExclusive + 1 + static_cast<std::uint64_t>(hint);
  }
  static constexpr ThreadId decode_mailbox_hint(std::uint64_t v) noexcept {
    return v == kMailboxExclusive
               ? kInvalidThread
               : static_cast<ThreadId>(v - kMailboxExclusive - 1);
  }

  void post_release(Ctx& ctx, ThreadId hint, bool shared) {
    if (!shared) {
      P::store(ctx, mailbox_, encode_mailbox_hint(hint));
    } else {
      pending_shared_releases_.fetch_add(1, std::memory_order_release);
      P::store(ctx, mailbox_, kMailboxShared);
    }
    if (!opts_.active_polling) {
      const ThreadId mgr = manager_tid_.load(std::memory_order_relaxed);
      if (mgr != kInvalidThread) P::unblock(ctx, mgr);
    }
  }

  /// Manager only: runs the release module once per counted shared
  /// release, until none is left.
  void drain_releases(Ctx& ctx) {
    while (std::uint32_t n = pending_shared_releases_.exchange(
               0, std::memory_order_acquire)) {
      for (; n != 0; --n) release(ctx, kInvalidThread, /*shared=*/true);
    }
  }

  // ------------------------------------------------------- members -------

  /// Probes per advisory round before re-polling the owner's advice.
  static constexpr std::uint32_t kAdviceChunk = 16;
  /// How long before the owner's announced release waiters resume spinning.
  static constexpr Nanos kAdviceSpinMargin = 60'000;
  /// Seeded handover bug (relock-check regression only): the cell's drain
  /// enlists the holder's linked record like a waiter's, so a later
  /// release grants the holder's thread a second time.
#ifdef RELOCK_CHECK_SEEDED_BUG_4
  static constexpr bool kSeededEnlistHolder = true;
#else
  static constexpr bool kSeededEnlistHolder = false;
#endif

  // Real-concurrency tuning (used only when kRealConcurrency<P>).
  /// Failed probes tolerated (grant-flag spins, queue-cell link waits)
  /// before escalating from PAUSE to yielding the processor.
  static constexpr std::uint32_t kSpinsBeforeYield = 64;
  /// Same, when live threads exceed processors (spinning mostly steals the
  /// quantum the releaser needs).
  static constexpr std::uint32_t kSpinsBeforeYieldOversubscribed = 4;
  /// Failed probes an oversubscribed spin-policy waiter tolerates before it
  /// parks outright (it registered sleepable, so its grant signals the
  /// parker). Zero: park on the first failed probe. Handoffs faster than the
  /// park entry deposit a token the park consumes without sleeping, so the
  /// fast-handoff case stays cheap, while every avoided yield/pause keeps a
  /// doomed spinner off the run queue the grant-producing thread needs.
  static constexpr std::uint32_t kStreakBeforeParkOversubscribed = 0;
  /// meta_lock escalation: PAUSE probes, then bounded-exponential busy
  /// delays, then yields.
  static constexpr std::uint32_t kMetaPureSpins = 4;
  static constexpr std::uint32_t kMetaBackoffRounds = 8;
  static constexpr Nanos kMetaBackoffInitialNs = 64;
  static constexpr Nanos kMetaBackoffCapNs = 4096;
  /// Release-path wake list capacity; overflow wakes are issued under meta.
  static constexpr std::size_t kWakeInline = 16;

  Domain& domain_;
  Options opts_;
  /// Static half of the fast-mode gate, fixed at construction: true for
  /// configurations whose uncontended acquire/release touch nothing the
  /// bypassed machinery maintains (exclusive + passive + non-recursive +
  /// non-advisory). The dynamic half is the kStateContended bit.
  const bool fast_eligible_;

  // Simulated/atomic words (object + configuration state, Figure 5), in
  // the order the simulator places them. On native the handoff's three
  // words are padded to a line each. The cold words after them - the
  // owner's advice (polled once per waiting round, not per probe), and
  // the words written by reconfiguration, possession and the active-lock
  // doorbell - are unpadded and share one line, and the write-only ones
  // take no space at all.
  typename P::Word meta_;         ///< TAS guard for internal structures
  typename P::Word state_;        ///< bit 0 held; bit 1 full mode (kReal)
  typename P::Word owner_;        ///< exclusive owner tid+1, 0 = none
  ColdWord advice_;               ///< Advice published by the owner
  ColdWord config_word_;          ///< waiting-policy version (1R1W proxy)
  [[no_unique_address]] ModuleWord sched_reg_;  ///< submodule: registration
  [[no_unique_address]] ModuleWord sched_acq_;  ///< submodule: acquisition
  [[no_unique_address]] ModuleWord sched_rel_;  ///< submodule: release
  ColdWord sched_flag_;           ///< configuration-delay flag
  [[no_unique_address]] RegistryWord registry_;  ///< last registrant (sim)
  ColdWord possess_word_;         ///< attribute possession bits
  ColdWord mailbox_;              ///< active-lock doorbell

  // Waiting-policy attributes (semantic values, host side).
  std::atomic<std::uint32_t> attr_spin_{kInfiniteSpins};
  std::atomic<Nanos> attr_delay_{0};
  std::atomic<Nanos> attr_sleep_{0};
  std::atomic<Nanos> attr_timeout_{0};
  std::atomic<std::uint64_t> config_version_{0};

  // Scheduler modules (guarded by meta except the atomic flags).
  std::unique_ptr<Scheduler<P>> scheduler_;
  std::unique_ptr<Scheduler<P>> pending_scheduler_;
  std::atomic<SchedulerKind> scheduler_kind_;
  std::atomic<SchedulerKind> pending_kind_{SchedulerKind::kNone};
  std::atomic<bool> has_pending_{false};
  /// Advisory mirror of the last set_priority_threshold value (see
  /// priority_threshold()).
  std::atomic<Priority> threshold_mirror_{kDefaultPriority};

  // Host-side line layout (kRealConcurrency). A contended handoff is a
  // chain of cache-line transfers, so words written by arriving waiters
  // and words written by the state-word owner's release never share a
  // 64-byte line: the queue cell and the arrival count share a line of
  // their own, and the owner's release state below (the departure count
  // included) starts a fresh line (the handoff's platform words above are
  // padded by the native platform, and its cold words share a line of
  // their own). Pinned by core_layout_test.

  /// The lock's arrival queue and the one FIFO of the cell-served kinds
  /// (kFcfs/kQueue). Lock-resident, so lock-free arrivals can tail-swap
  /// into stable storage no matter how many times configuration flips
  /// between kinds. Host atomics, so the simulator's word placement is
  /// untouched.
  alignas(kCacheLineSize) WaitQueueCell<P> queue_cell_;
  /// Arrival half of waiter_count(), on the line a cell arrival's tail
  /// swap already owns.
  std::atomic<std::uint32_t> waiters_arrived_{0};

  // Owner release state: written by whoever runs the release module (the
  // state-word owner, or a meta holder on the guarded paths).
  /// 0 free, 1 exclusive, n readers.
  alignas(kCacheLineSize) std::uint32_t holders_ = 0;
  bool writer_held_ = false;    ///< RW mode only
  std::uint32_t recursion_depth_ = 0;
  /// The current exclusive hold began with a grant (kRealConcurrency):
  /// the state word is in full mode until this owner releases.
  bool full_mode_hold_ = false;
  Nanos acquire_time_ = 0;
  // Configuration-quiescence epoch (kRealConcurrency fast release).
  std::atomic<std::uint32_t> quiesce_breakers_{0};
  std::atomic<std::uint32_t> fast_releases_inflight_{0};
  /// Departure half of waiter_count(): records granted or withdrawn. On
  /// the first owner line, which a cell-served fast release touches anyway.
  std::atomic<std::uint32_t> waiters_departed_{0};
  /// The queue cell's consumer cursor (see WaitQueueCell): its front
  /// record, the holder's own while a linked grant's hold lasts. On the
  /// first owner line, with the in-flight count: a fast release reads and
  /// moves it there.
  WaiterRecord<P>* queue_cursor_ = nullptr;
  /// The current hold's record when it began with a linked grant
  /// (kRealConcurrency), else null. Set by the granter, which owns the
  /// line; the grantee reads it where its hold begins, and its release
  /// unlinks the record (if the cursor still names it) and returns it to
  /// the pool. Every other cell consumer skips it: it is nobody's waiter.
  WaiterRecord<P>* holder_rec_ = nullptr;
  WaiterQueue<P> orphans_;      ///< drained arrivals with no module (meta)
  GrantBatch<P> grant_scratch_; ///< reused by the module owner only

  alignas(kCacheLineSize) WaiterQueue<P> sleepers_;  ///< kNone sleepers (meta)

  // Per-thread waiting-policy overrides: a lazily allocated flat slot
  // array indexed by ThreadId, written under meta, read lock-free. Host
  // state on every platform: the simulator prices no access to it.
  /// Current + retired slot arrays (meta). Retired arrays stay alive for
  /// the lock's lifetime: a reader may still hold their pointer.
  std::vector<std::unique_ptr<AttrSlotArray>> attr_slot_storage_;
  std::atomic<AttrSlotArray*> attr_slots_{nullptr};  ///< lock-free view
  std::uint32_t attr_override_count_ = 0;            ///< valid slots (meta)
  std::atomic<bool> has_thread_attrs_{false};

  // Active-lock machinery.
  std::atomic<std::uint32_t> pending_shared_releases_{0};
  std::atomic<ThreadId> manager_tid_{kInvalidThread};
  std::atomic<bool> serving_{false};
  std::atomic<bool> stop_{false};

  /// Two pointers; its counters live in a block allocated only when the
  /// monitor is enabled (see lock_monitor.hpp).
  LockMonitor monitor_;
  /// relock-trace identity; empty (and size-free) without RELOCK_TRACE.
  [[no_unique_address]] TraceTag trace_tag_;
};

}  // namespace relock

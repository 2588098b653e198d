// WaiterRecord: the per-acquisition registration record (paper section 3.2:
// "a requesting thread registers itself with the lock object"). On real-
// concurrency platforms a contended thread arrival takes it from its
// thread's WaiterPool and tail-swaps it into the lock's queue cell without
// the meta guard; a scheduler module receives it from the cell's drain.
// Everywhere else it lives on the waiter's stack (or in a suspended
// coroutine's frame); on the simulator it is enlisted - in the cell or a
// module - under the lock's meta guard.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "relock/core/attributes.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class Scheduler;

template <Platform P>
struct WaiterRecord {
  WaiterRecord(typename P::Domain& domain, ThreadId tid_, Priority priority_,
               Placement flag_placement, bool shared_, bool may_sleep_)
      : granted(domain, 0, flag_placement),
        tid(tid_),
        priority(priority_),
        shared(shared_),
        may_sleep(may_sleep_) {}
  WaiterRecord(const WaiterRecord&) = delete;
  WaiterRecord& operator=(const WaiterRecord&) = delete;

  /// Grant word the waiter polls / sleeps on: 0 while waiting, 1 once the
  /// lock is the waiter's. The grantee owes nothing: a fast release may
  /// leave the record linked as the queue cell's front (a linked grant,
  /// see ConfigurableLock::holder_rec_), and then the holder's own release
  /// unlinks it. With WaitPlacement::kWaiterLocal the word sits in the
  /// waiter's node memory (the "distributed" configuration); otherwise on
  /// the lock's home node.
  typename P::Word granted;

  // The handoff line: every field a releaser reads or writes when it
  // selects and grants this record, besides `granted` itself, so a grant
  // pulls this one line plus the flag's. On the native platform `granted`
  // fills the line before it (pinned by core_layout_test).

  /// Inline node of the lock's queue cell, which every lock-free arrival
  /// publishes into: the MCS-style successor link, written once by the
  /// *next* arrival after its tail-swap. nullptr means "no successor
  /// visible yet" — whether the record is last is decided by comparing
  /// against the cell's tail, so no pending sentinel is needed. A link may
  /// carry the successor's quick tag (WaitQueueCell::link): read it
  /// through WaitQueueCell::record.
  std::atomic<WaiterRecord*> qnext{nullptr};

  /// The scheduler module this record was registered with (set under the
  /// lock's meta guard). Timeout withdrawal must remove the record from the
  /// module that actually holds it — the lock may have been reconfigured
  /// (and a different module made current) while the thread waited.
  /// nullptr while the record sits in the lock's queue cell (the
  /// cell-served kinds have no module) or on the lock's orphan queue.
  Scheduler<P>* registered_with = nullptr;

  /// Grant-delivery hook: the parker abstraction for waiters that are not
  /// threads. A thread waiter (hook == nullptr) polls/sleeps on `granted`;
  /// a coroutine waiter (relock/async/) instead registers a hook that the
  /// granter invokes AFTER publishing the grant flag and releasing the meta
  /// guard - the hook posts the suspended frame to its executor. Core stays
  /// coroutine-free: the hook is a plain function pointer + context arg.
  using GrantHook = void (*)(void* arg, typename P::Context& granter_ctx);
  GrantHook grant_hook = nullptr;
  void* grant_hook_arg = nullptr;
  /// Granter-owned scratch link: hooked records selected inside one release
  /// are chained here so their hooks can run after meta_unlock.
  WaiterRecord* hook_next = nullptr;

  ThreadId tid;
  Priority priority;
  bool shared;     ///< reader (lock_shared) vs. writer acquisition
  bool may_sleep;  ///< waiting policy can sleep: granter must send a wakeup

  /// Set under the lock's meta guard when the waiter has been dequeued and
  /// granted; used to resolve the timeout-vs-grant race.
  bool granted_flag_host = false;

  Nanos enqueue_time = 0;

  // Intrusive doubly-linked queue node, guarded by the lock's meta word.
  WaiterRecord* prev = nullptr;
  WaiterRecord* next = nullptr;
  bool queued = false;
};

/// The lock's one lock-free arrival structure, and the one FIFO its
/// cell-served kinds (kFcfs and its synonym kQueue) are served from on
/// every platform: one tail word that arrivals swap themselves into and
/// one publication slot for the first-in-line record. Everything else
/// about the queue lives in the waiters' own records (WaiterRecord::qnext),
/// which is what makes it "distributed" in the paper's Fig. 9 sense — a
/// waiting thread spins only on its record-local grant flag, never on
/// these words.
///
/// The cell deliberately uses host std::atomics, not platform Words: queue
/// maintenance is consumer-side bookkeeping serialized by the lock's grant
/// protocol (meta guard or quiescence epoch), and keeping it off the
/// platform word set leaves the simulator's timing/placement model — and
/// its calibrated tables — untouched. seq_cst on tail carries the
/// lost-release Dekker: the producer's tail swap and the releaser's
/// re-check (an RMW of the same word) must not both miss each other.
///
/// Concurrency contract: any thread may enqueue (swap_in, then publish:
/// exchange tail, then link via the predecessor's qnext or `first` when
/// the queue was empty); at most ONE thread at a time consumes, serialized
/// externally. The consumer operations take the consumer's cursor - the
/// oldest linked record not yet granted, nullptr before the first arrival
/// is adopted - which the cell's owner keeps apart from the producers'
/// words: the lock keeps it on its owner release line, so a release reads
/// it without pulling the line arrivals write. Visibility between
/// successive consumers rides the same happens-before edges that already
/// order the lock's release protocol.
///
/// Holder-side handover: a consumer may grant the front record without
/// unlinking it - the lock's fast release does, for a thread's pooled
/// record - so the grantee's record stays the front for the whole hold,
/// as an MCS holder's node stays at the head. The holder's own release
/// unlinks it (the cursor moves to its successor, or the tail swings back
/// to empty when it is last) before picking that successor. Any other
/// consumer that meets it meanwhile unlinks or walks past it; the lock
/// tells it apart from its waiters.
template <Platform P>
struct WaitQueueCell {
  using Rec = WaiterRecord<P>;

  std::atomic<Rec*> tail{nullptr};   ///< last arrival; nullptr = empty
  std::atomic<Rec*> first{nullptr};  ///< first arrival's publication slot

  // Quick links. A producer may publish its record into its predecessor's
  // qnext with the quick tag in the address's low bit: the record is a
  // thread waiter that never sleeps, so a releaser that reads the link on
  // its own record can grant it with one store, without reading the
  // record's line first (the MCS release: own node, then the successor's
  // flag). The tag describes the linked record, so it moves with the link
  // when a removal relinks past a record; the cursor and `first` never
  // carry it.
  static_assert(alignof(Rec) >= 2, "the quick tag needs a free low bit");
  static constexpr std::uintptr_t kQuickTag = 1;

  /// The link publishing `r`, tagged quick when `quick`.
  [[nodiscard]] static Rec* link(Rec* r, bool quick) noexcept {
    return quick ? std::bit_cast<Rec*>(std::bit_cast<std::uintptr_t>(r) |
                                       kQuickTag)
                 : r;
  }
  /// The record a link (tagged or not, or nullptr) names.
  [[nodiscard]] static Rec* record(Rec* link) noexcept {
    return std::bit_cast<Rec*>(std::bit_cast<std::uintptr_t>(link) &
                               ~kQuickTag);
  }
  [[nodiscard]] static bool quick(const Rec* link) noexcept {
    return (std::bit_cast<std::uintptr_t>(link) & kQuickTag) != 0;
  }

  // Producer operations, in two steps so the lock can announce each one to
  // the model checker. Between them the record is the tail but not yet
  // linked: a consumer that needs its link waits it out (see the consumer
  // operations below).

  /// Swaps `r` in as the tail. Returns its predecessor, nullptr when the
  /// queue was empty.
  Rec* swap_in(Rec& r) noexcept {
    r.qnext.store(nullptr, std::memory_order_relaxed);
    return tail.exchange(&r, std::memory_order_seq_cst);
  }
  /// Publishes the link to `r`: through its predecessor `prev`'s qnext,
  /// tagged quick when `quick`, or through the first-arrival slot.
  void publish(Rec* prev, Rec& r, bool quick) noexcept {
    if (prev != nullptr) {
      prev->qnext.store(link(&r, quick), std::memory_order_release);
    } else {
      first.store(&r, std::memory_order_release);
    }
  }
  /// Both steps at once, untagged: a meta holder enlisting a record.
  void push(Rec& r) noexcept { publish(swap_in(r), r, /*quick=*/false); }

  /// Consumer-side emptiness. Exact for consumers: a record is reachable
  /// from the cursor or (transitively) from the published tail, and the
  /// last unlink swings tail back to nullptr before clearing the cursor.
  [[nodiscard]] bool empty(const Rec* cursor) const noexcept {
    return cursor == nullptr &&
           tail.load(std::memory_order_seq_cst) == nullptr;
  }

  // Consumer operations. A producer's publication (the `first` slot or a
  // predecessor's qnext) may still be in flight when a consumer needs it;
  // `await(point, slot)` then returns the slot's value once it is
  // published, or nullptr to give up. `point` names the wait for the model
  // checker. The lock awaits with paced spins; an await may also give up,
  // and the operation then reports that it did.

  /// The oldest record, left linked: the cursor, adopting the published
  /// first arrival when the cursor is empty. nullptr when the cell is
  /// empty or `await` gave up on the first slot.
  template <typename Await>
  [[nodiscard]] Rec* front(Rec*& cursor, Await&& await) {
    if (cursor == nullptr && !adopt_first(cursor, await)) return nullptr;
    return cursor;
  }

  /// Unlinks the front record `h` (the cursor's, passed in so the cursor
  /// is written, never read): the cursor moves to h's successor, or the
  /// tail swings back to empty when h is last. False when `await` gave up
  /// on a successor's link; h then stays linked.
  template <typename Await>
  bool unlink_front(Rec*& cursor, Rec& h, Await&& await) {
    Rec* nxt = record(h.qnext.load(std::memory_order_acquire));
    if (nxt == nullptr) {
      // No visible successor: h may be the last node. Swing the tail back
      // to empty; losing the CAS means a producer swapped in behind h, so
      // adopt its link once it lands.
      Rec* expected = &h;
      if (tail.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_seq_cst)) {
        cursor = nullptr;
        return true;
      }
      if ((nxt = record(await("qc.chase", h.qnext))) == nullptr) {
        return false;
      }
    }
    cursor = nxt;
    return true;
  }

  /// Pops the oldest record: front() then unlink_front(). nullptr when the
  /// cell is empty or `await` gave up on a link.
  template <typename Await>
  [[nodiscard]] Rec* pop(Rec*& cursor, Await&& await) {
    Rec* const h = front(cursor, await);
    return h != nullptr && unlink_front(cursor, *h, await) ? h : nullptr;
  }

  /// Unlinks `rec` wherever it sits - MCS-with-timeout node self-removal.
  /// Returns false when the record is not in the cell. `await` must wait:
  /// once the predecessor's link is cleared the unlink cannot back out.
  template <typename Await>
  [[nodiscard]] bool remove(Rec*& cursor, Rec& rec, Await&& await) {
    if (cursor == nullptr && !adopt_first(cursor, await)) return false;
    Rec* prev = nullptr;
    Rec* cur = cursor;
    while (cur != &rec) {
      Rec* nxt = record(cur->qnext.load(std::memory_order_acquire));
      if (nxt == nullptr) {
        if (tail.load(std::memory_order_seq_cst) == cur) return false;
        // A successor (possibly rec) is mid-link behind cur: wait it out.
        nxt = record(await("qc.chase", cur->qnext));
      }
      prev = cur;
      cur = nxt;
    }
    // rec's own link, tag included: a relink below moves it unchanged.
    Rec* nxt = rec.qnext.load(std::memory_order_acquire);
    if (nxt == nullptr) {
      // No visible successor: rec may be the tail. Pre-clear the
      // predecessor's link BEFORE swinging the tail to it - the instant
      // the CAS lands, a new producer may store through prev->qnext, and
      // a late clear would erase that link.
      if (prev != nullptr) prev->qnext.store(nullptr, std::memory_order_release);
      Rec* expected = &rec;
      if (tail.compare_exchange_strong(expected, prev,
                                       std::memory_order_seq_cst)) {
        if (prev == nullptr) cursor = nullptr;
        return true;
      }
      // Lost to a producer that swapped in behind rec: adopt its link.
      nxt = await("qc.chase", rec.qnext);
    }
    if (prev != nullptr) {
      prev->qnext.store(nxt, std::memory_order_release);
    } else {
      cursor = record(nxt);
    }
    return true;
  }

 private:
  /// Adopts the current generation's published first arrival into the
  /// consumer's cursor. Returns false when the cell is empty or `await`
  /// gave up.
  template <typename Await>
  bool adopt_first(Rec*& cursor, Await&& await) {
    if (tail.load(std::memory_order_seq_cst) == nullptr) return false;
    Rec* const f = await("qc.first", first);
    if (f == nullptr) return false;
    cursor = f;
    first.store(nullptr, std::memory_order_relaxed);
    return true;
  }
};

/// The thread's pool of persistent waiter records (kRealConcurrency
/// platforms only). A lock-free thread arrival takes its record here
/// rather than on its stack, because a linked grant leaves the record in
/// the lock's queue cell until the hold ends: the holder's release unlinks
/// it and puts it back. The pool lives on the platform Context, not in a
/// thread_local, since relock-check's model threads share one host thread.
/// Records are fungible: one goes back to the pool of the context that
/// releases its hold. Steady state allocates nothing: a thread needs one
/// record per lock it holds through a linked grant, plus the one it waits
/// with. A pool frees the records it holds when its Context dies.
template <Platform P>
class WaiterPool final : public ContextState {
 public:
  using Rec = WaiterRecord<P>;

  WaiterPool() = default;
  ~WaiterPool() override {
    while (free_ != nullptr) delete std::exchange(free_, free_->next);
  }

  /// The pool of `ctx`'s thread, created on its first contended arrival.
  [[nodiscard]] static WaiterPool& of(typename P::Context& ctx) {
    std::unique_ptr<ContextState>& slot = ctx.waiter_pool();
    if (slot == nullptr) slot = std::make_unique<WaiterPool>();
    return static_cast<WaiterPool&>(*slot);
  }

  /// A record constructed from `args`: over a pooled one, else new.
  template <typename... Args>
  [[nodiscard]] Rec& take(Args&&... args) {
    Rec* const r = free_;
    if (r == nullptr) return *new Rec(std::forward<Args>(args)...);
    free_ = r->next;
    std::destroy_at(r);
    return *std::construct_at(r, std::forward<Args>(args)...);
  }

  /// Returns a record that no queue links any more. The free list reuses
  /// the record's meta-queue link, idle while the record is off queues.
  void put(Rec& r) noexcept {
    r.next = free_;
    free_ = &r;
  }

 private:
  Rec* free_ = nullptr;
};

/// Intrusive FIFO of waiter records. All operations require the owning
/// lock's meta guard.
template <Platform P>
class WaiterQueue {
 public:
  using Rec = WaiterRecord<P>;

  void push_back(Rec& r) noexcept {
    r.prev = tail_;
    r.next = nullptr;
    r.queued = true;
    if (tail_ != nullptr) {
      tail_->next = &r;
    } else {
      head_ = &r;
    }
    tail_ = &r;
    ++size_;
  }

  void remove(Rec& r) noexcept {
    if (!r.queued) return;
    if (r.prev != nullptr) r.prev->next = r.next; else head_ = r.next;
    if (r.next != nullptr) r.next->prev = r.prev; else tail_ = r.prev;
    r.prev = r.next = nullptr;
    r.queued = false;
    --size_;
  }

  [[nodiscard]] Rec* front() const noexcept { return head_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Iterates in FIFO order; `fn` returning false stops the walk.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Rec* r = head_; r != nullptr;) {
      Rec* next = r->next;  // fn may unlink r
      if (!fn(*r)) return;
      r = next;
    }
  }

 private:
  Rec* head_ = nullptr;
  Rec* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace relock

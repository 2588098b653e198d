// WaiterRecord: the per-acquisition registration record (paper section 3.2:
// "a requesting thread registers itself with the lock object"). Lives on the
// waiting thread's stack. On real-concurrency platforms a contended arrival
// tail-swaps it into the lock's queue cell without the meta guard; a
// non-FIFO scheduler module receives it from the cell's drain. On the
// simulator it is enqueued under the lock's meta guard.
#pragma once

#include <atomic>
#include <cstdint>

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

  /// Grant flag the waiter polls / sleeps on. With WaitPlacement::
  /// kWaiterLocal this sits in the waiter's node memory (the "distributed"
  /// configuration); otherwise on the lock's home node.
  typename P::Word granted;

  // The handoff line: every field a releaser reads or writes when it
  // selects and grants this record, besides `granted` itself, so a grant
  // pulls this one line plus the flag's. On the native platform `granted`
  // fills the line before it (pinned by core_layout_test).

  /// Inline node of the lock's queue cell, which every lock-free arrival
  /// publishes into: the MCS-style successor link, written once by the
  /// *next* arrival after its tail-swap. nullptr means "no successor visible yet" — whether the
  /// record is last is decided by comparing against the cell's tail, so no
  /// pending sentinel is needed.
  std::atomic<WaiterRecord*> qnext{nullptr};

  /// The scheduler module this record was registered with (set under the
  /// lock's meta guard). Timeout withdrawal must remove the record from the
  /// module that actually holds it — the lock may have been reconfigured
  /// (and a different module made current) while the thread waited.
  /// nullptr while the record sits in the lock's queue cell (a cell-served
  /// module's records never leave it) or on the lock's orphan queue.
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

/// The lock's one lock-free arrival structure, and the shared half of the
/// distributed queue (SchedulerKind::kQueue): one tail word that arrivals
/// swap themselves into and one publication slot for the first-in-line
/// record. Everything else about the queue lives in
/// the waiters' own records (WaiterRecord::qnext), which is what makes the
/// scheduler "distributed" in the paper's Fig. 9 sense — a waiting thread
/// spins only on its record-local grant flag, never on these words.
///
/// The cell deliberately uses host std::atomics, not platform Words: queue
/// maintenance is consumer-side bookkeeping serialized by the lock's grant
/// protocol (meta guard or quiescence epoch), and keeping it off the
/// platform word set leaves the simulator's timing/placement model — and
/// its calibrated tables — untouched. seq_cst on tail carries the
/// lost-release Dekker: the producer's tail swap and the releaser's
/// re-check (an RMW of the same word) must not both miss each other.
///
/// Concurrency contract: any thread may enqueue (exchange tail, then link
/// via the predecessor's qnext or `first` when the queue was empty); at
/// most ONE thread at a time consumes (pop/remove/walk), serialized
/// externally. `head` and `staged` are therefore plain pointers owned by
/// the consumer side; visibility between successive consumers rides the
/// same happens-before edges that already order the lock's release
/// protocol.
template <Platform P>
struct WaitQueueCell {
  using Rec = WaiterRecord<P>;

  std::atomic<Rec*> tail{nullptr};   ///< last arrival; nullptr = empty
  std::atomic<Rec*> first{nullptr};  ///< first arrival's publication slot
  Rec* head = nullptr;               ///< consumer-owned dequeue cursor
  /// Consumer-owned pop-ahead: the oldest record, already unlinked from
  /// the producers' chain, so no producer links behind the record the next
  /// pop grants. Still in the queue: pop, remove and empty all see it.
  Rec* staged = nullptr;

  /// Consumer-side emptiness. Exact for consumers: a record is staged,
  /// reachable from head, or (transitively) from the published tail, and
  /// the last unlink swings tail back to nullptr before clearing head.
  [[nodiscard]] bool empty() const noexcept {
    return staged == nullptr && head == nullptr &&
           tail.load(std::memory_order_seq_cst) == nullptr;
  }

  // Consumer operations. A producer's publication (the `first` slot or a
  // predecessor's qnext) may still be in flight when a consumer needs it;
  // `await(point, slot)` then returns the slot's value once it is
  // published, or nullptr to give up. `point` names the wait for the model
  // checker. The lock awaits with paced spins; the scheduler façade's
  // non-waiting operations give up.

  /// Pops the oldest record - the staged one, else the linked head - and
  /// stages its successor. nullptr when the cell is empty or `await` gave
  /// up on a link (a successor `await` gives up on stays linked).
  template <typename Await>
  [[nodiscard]] Rec* pop(Await&& await) {
    Rec* const h = staged != nullptr ? staged : unlink_head(await);
    if (h != nullptr) staged = unlink_head(await);
    return h;
  }

  /// Unlinks `rec` wherever it sits - MCS-with-timeout node self-removal.
  /// Returns false when the record is not in the cell. `await` must wait:
  /// once the predecessor's link is cleared the unlink cannot back out.
  template <typename Await>
  [[nodiscard]] bool remove(Rec& rec, Await&& await) {
    if (staged == &rec) {
      staged = nullptr;
      return true;
    }
    if (head == nullptr && !adopt_first(await)) return false;
    Rec* prev = nullptr;
    Rec* cur = head;
    while (cur != &rec) {
      Rec* nxt = cur->qnext.load(std::memory_order_acquire);
      if (nxt == nullptr) {
        if (tail.load(std::memory_order_seq_cst) == cur) return false;
        // A successor (possibly rec) is mid-link behind cur: wait it out.
        nxt = await("qc.chase", cur->qnext);
      }
      prev = cur;
      cur = nxt;
    }
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
        if (prev == nullptr) head = nullptr;
        rec.qnext.store(nullptr, std::memory_order_relaxed);
        return true;
      }
      // Lost to a producer that swapped in behind rec: adopt its link.
      nxt = await("qc.chase", rec.qnext);
    }
    if (prev != nullptr) {
      prev->qnext.store(nxt, std::memory_order_release);
    } else {
      head = nxt;
    }
    rec.qnext.store(nullptr, std::memory_order_relaxed);
    return true;
  }

 private:
  /// Adopts the current generation's published first arrival into the
  /// consumer cursor. Returns false when the cell is empty or `await` gave
  /// up.
  template <typename Await>
  bool adopt_first(Await&& await) {
    if (tail.load(std::memory_order_seq_cst) == nullptr) return false;
    Rec* const f = await("qc.first", first);
    if (f == nullptr) return false;
    head = f;
    first.store(nullptr, std::memory_order_relaxed);
    return true;
  }

  /// Unlinks the linked head (the staged record aside); nullptr when
  /// nothing is linked or `await` gave up on a link.
  template <typename Await>
  [[nodiscard]] Rec* unlink_head(Await&& await) {
    if (head == nullptr && !adopt_first(await)) return nullptr;
    Rec* const h = head;
    Rec* nxt = h->qnext.load(std::memory_order_acquire);
    if (nxt == nullptr) {
      // No visible successor: h may be the last node. Swing the tail back
      // to empty; losing the CAS means a producer swapped in behind h, so
      // adopt its link once it lands.
      Rec* expected = h;
      if (tail.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_seq_cst)) {
        head = nullptr;
        return h;
      }
      if ((nxt = await("qc.chase", h->qnext)) == nullptr) return nullptr;
    }
    head = nxt;
    h->qnext.store(nullptr, std::memory_order_relaxed);
    return h;
  }
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

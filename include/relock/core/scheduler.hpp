// The lock scheduling component Gamma = (registration, acquisition,
// release) (paper section 3.1). A Scheduler owns the queue of registered
// waiters (registration), decides their eligibility (acquisition), and
// selects who is granted the lock on release (release).
//
// The FIFO kinds have no module: kFcfs and its synonym kQueue are served
// straight from the lock's queue cell (WaitQueueCell, waiter.hpp), on every
// platform, and kNone barges. The modules here select for the other kinds.
//
// Module methods run only while the caller owns the lock's release module,
// so at most one thread at a time is inside a module and schedulers are
// plain single-threaded data structures. NOT every call holds the meta
// guard. The owners are:
//   - meta guard holders: registration on the simulator and for
//     reader-writer locks, configuration, and timeout withdrawal;
//   - the state-word owner's release. The guarded release holds meta too;
//     on kRealConcurrency platforms the fast release drains arrivals into
//     the module and selects WITHOUT it, inside a quiesced epoch.
// Two releases never overlap (only the state-word owner runs one), and
// every configuration or withdrawal first breaks the epoch and waits any
// in-flight fast release out.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "relock/core/attributes.hpp"
#include "relock/core/waiter.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

/// The set of waiters granted by one release. A single writer, or - for the
/// reader-writer scheduler - a batch of readers.
///
/// Small-inline container: the first kInline grants live in embedded
/// storage; only an oversized reader batch touches the spill vector, whose
/// capacity is retained across clear(). Reused instances therefore make the
/// steady-state release path allocation-free (ISSUE 1 tentpole; asserted by
/// tests/release_alloc_test.cpp).
template <Platform P>
class GrantBatch {
 public:
  using value_type = WaiterRecord<P>*;
  static constexpr std::size_t kInline = 8;

  // Both mutators are checker scheduling points (relock-check's shared-
  // scratch oracle: clear opens a session, pushes must come from its
  // owner); clear is therefore not annotated noexcept, though it never
  // throws outside the checker.

  void push_back(value_type w) {
    chk_scratch<P>(/*begin=*/false);
    if (size_ < kInline) {
      inline_[size_] = w;
    } else {
      spill_.push_back(w);
    }
    ++size_;
  }

  void clear() {
    chk_scratch<P>(/*begin=*/true);
    size_ = 0;
    spill_.clear();  // capacity retained
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] value_type front() const noexcept { return (*this)[0]; }
  [[nodiscard]] value_type operator[](std::size_t i) const noexcept {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }

  class const_iterator {
   public:
    const_iterator(const GrantBatch* b, std::size_t i) noexcept
        : b_(b), i_(i) {}
    value_type operator*() const noexcept { return (*b_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    friend bool operator!=(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.i_ != b.i_;
    }

   private:
    const GrantBatch* b_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, size_);
  }

 private:
  value_type inline_[kInline] = {};
  std::vector<value_type> spill_;
  std::size_t size_ = 0;
};

template <Platform P>
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual SchedulerKind kind() const noexcept = 0;

  /// Registration: logs a waiter that must wait.
  virtual void enqueue(WaiterRecord<P>& w) = 0;

  /// Withdraws a waiter (timeout / abandoned conditional acquisition).
  virtual void remove(WaiterRecord<P>& w) = 0;

  /// Release: selects (and unlinks) the next grant recipients. `hint` is
  /// the handoff target (kInvalidThread = none). May select nobody even
  /// when waiters exist (e.g. all below a priority threshold). The lock
  /// calls it afresh at every release, so a selection never goes stale.
  virtual void select(GrantBatch<P>& out, ThreadId hint) = 0;

  [[nodiscard]] virtual bool empty() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Unlinks and returns any one registered waiter (nullptr when empty).
  /// The lock uses this to migrate still-queued waiters when a pending
  /// scheduler module is replaced before it was installed (stacked
  /// reconfiguration); records left on the replaced module would dangle.
  [[nodiscard]] virtual WaiterRecord<P>* pop_any() noexcept = 0;

  // Priority-threshold parameters (no-ops for other kinds).
  virtual void set_threshold(Priority) {}
  [[nodiscard]] virtual Priority threshold() const noexcept {
    return kDefaultPriority;
  }

  // Reader-writer parameters (no-ops for other kinds).
  virtual void set_rw_preference(RwPreference) {}
};

/// Common base of the queue-backed scheduler modules: owns the intrusive
/// waiter queue and implements the registration-side operations once.
/// Concrete modules supply kind() and select().
template <Platform P>
class QueuedScheduler : public Scheduler<P> {
 public:
  void enqueue(WaiterRecord<P>& w) override { queue_.push_back(w); }
  void remove(WaiterRecord<P>& w) override { queue_.remove(w); }
  [[nodiscard]] bool empty() const noexcept override { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept override {
    return queue_.size();
  }
  [[nodiscard]] WaiterRecord<P>* pop_any() noexcept override {
    WaiterRecord<P>* w = queue_.front();
    if (w != nullptr) queue_.remove(*w);
    return w;
  }

 protected:
  /// Unlinks `w` and appends it to the grant batch (selection helper).
  void take(WaiterRecord<P>& w, GrantBatch<P>& out) {
    queue_.remove(w);
    out.push_back(&w);
  }

  WaiterQueue<P> queue_;
};

/// Priority queue: grants the waiter with the highest priority (FIFO among
/// equals). Inherently unfair; useful when some threads' progress matters
/// more (paper section 4.3.1). Selection is a linear scan - queue lengths
/// are bounded by thread counts and the scan runs under the meta guard.
template <Platform P>
class PriorityQueueScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kPriorityQueue;
  }
  void select(GrantBatch<P>& out, ThreadId /*hint*/) override {
    if (WaiterRecord<P>* best = best_waiter()) this->take(*best, out);
  }

 private:
  [[nodiscard]] WaiterRecord<P>* best_waiter() const noexcept {
    WaiterRecord<P>* best = nullptr;
    this->queue_.for_each([&](WaiterRecord<P>& w) {
      if (best == nullptr || w.priority > best->priority) best = &w;
      return true;
    });
    return best;
  }
};

/// Priority threshold: the implementation the paper's client-server
/// experiment uses (section 4.3.1, "second implementation"): the lock
/// carries a threshold priority; only waiters with priority >= threshold
/// are eligible, FCFS among the eligible. Raising the threshold dynamically
/// makes low-priority clients ineligible so the server is served first.
template <Platform P>
class PriorityThresholdScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kPriorityThreshold;
  }
  void select(GrantBatch<P>& out, ThreadId /*hint*/) override {
    if (WaiterRecord<P>* chosen = first_eligible()) this->take(*chosen, out);
    // No eligible waiter: grant nobody; the lock is released as free and
    // ineligible waiters keep waiting for the threshold to drop.
  }
  void set_threshold(Priority p) override { threshold_ = p; }
  [[nodiscard]] Priority threshold() const noexcept override {
    return threshold_;
  }

 private:
  [[nodiscard]] WaiterRecord<P>* first_eligible() const noexcept {
    WaiterRecord<P>* chosen = nullptr;
    this->queue_.for_each([&](WaiterRecord<P>& w) {
      if (w.priority >= threshold_) {
        chosen = &w;
        return false;  // FCFS among eligible: first hit wins
      }
      return true;
    });
    return chosen;
  }

  Priority threshold_ = kDefaultPriority;
};

/// Handoff: the releaser names the next owner (paper section 4.3.1). The
/// critical section is handed directly to the hinted thread if it is
/// waiting; otherwise falls back to FCFS. Unfair and application-specific
/// by design.
template <Platform P>
class HandoffScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kHandoff;
  }
  void select(GrantBatch<P>& out, ThreadId hint) override {
    if (WaiterRecord<P>* chosen = choose(hint)) this->take(*chosen, out);
  }

 private:
  [[nodiscard]] WaiterRecord<P>* choose(ThreadId hint) const noexcept {
    WaiterRecord<P>* chosen = nullptr;
    if (hint != kInvalidThread) {
      this->queue_.for_each([&](WaiterRecord<P>& w) {
        if (w.tid == hint) {
          chosen = &w;
          return false;
        }
        return true;
      });
    }
    if (chosen == nullptr) chosen = this->queue_.front();  // fallback: FCFS
    return chosen;
  }
};

/// Reader-writer: allows multiple readers inside the critical section
/// (paper section 4.3.3). Grant batches: a single writer, or a batch of
/// readers chosen according to the configured preference.
template <Platform P>
class ReaderWriterScheduler final : public QueuedScheduler<P> {
 public:
  explicit ReaderWriterScheduler(RwPreference pref = RwPreference::kFifo)
      : pref_(pref) {}

  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kReaderWriter;
  }

  void select(GrantBatch<P>& out, ThreadId /*hint*/) override {
    if (this->queue_.empty()) return;
    switch (pref_) {
      case RwPreference::kFifo: {
        // Head decides: a writer goes alone; a reader takes every reader up
        // to the first writer.
        if (!this->queue_.front()->shared) {
          this->take(*this->queue_.front(), out);
          return;
        }
        this->queue_.for_each([&](WaiterRecord<P>& w) {
          if (!w.shared) return false;
          this->take(w, out);
          return true;
        });
        return;
      }
      case RwPreference::kReaderPref: {
        bool any_reader = false;
        this->queue_.for_each([&](WaiterRecord<P>& w) {
          if (w.shared) {
            this->take(w, out);
            any_reader = true;
          }
          return true;
        });
        if (!any_reader && !this->queue_.empty()) {
          this->take(*this->queue_.front(), out);
        }
        return;
      }
      case RwPreference::kWriterPref: {
        WaiterRecord<P>* writer = nullptr;
        this->queue_.for_each([&](WaiterRecord<P>& w) {
          if (!w.shared) {
            writer = &w;
            return false;
          }
          return true;
        });
        if (writer != nullptr) {
          this->take(*writer, out);
        } else {
          this->queue_.for_each([&](WaiterRecord<P>& w) {
            this->take(w, out);
            return true;
          });
        }
        return;
      }
    }
  }

  void set_rw_preference(RwPreference p) override { pref_ = p; }

 private:
  RwPreference pref_;
};

/// Factory for dynamic scheduler reconfiguration: the module `kind` selects
/// with, or nullptr for the kinds that have none.
template <Platform P>
std::unique_ptr<Scheduler<P>> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kPriorityQueue:
      return std::make_unique<PriorityQueueScheduler<P>>();
    case SchedulerKind::kPriorityThreshold:
      return std::make_unique<PriorityThresholdScheduler<P>>();
    case SchedulerKind::kHandoff:
      return std::make_unique<HandoffScheduler<P>>();
    case SchedulerKind::kReaderWriter:
      return std::make_unique<ReaderWriterScheduler<P>>();
    case SchedulerKind::kFcfs:
    case SchedulerKind::kQueue:
      break;  // served from the lock's queue cell
    case SchedulerKind::kNone:
      break;  // centralized barging: no queue at all
    case SchedulerKind::kCustom:
      assert(false && "custom schedulers are installed by instance, "
                      "not by kind");
      break;
  }
  return nullptr;
}

}  // namespace relock

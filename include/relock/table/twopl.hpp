// Two-phase-locking transaction driver over LockTable: a TxnLockSet
// tracks one transaction's growing/shrinking phases and applies a
// pluggable deadlock policy at each acquisition. Policies follow the
// classical taxonomy (avoidance by ordering, no-wait, wait-die, plain
// timeout) - all built on the table's try/timed acquisition paths, no
// waits-for graph. The policy decides who ABORTS; safety (mutual
// exclusion, misuse detection) is entirely the table's. Under wait-die
// every holder, reader or writer, publishes its timestamp, so a
// reader-writer cycle dies by age; the bounded waiting behind it is a
// safety net for what the hashed board cannot see.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "relock/table/lock_table.hpp"

namespace relock::table {

enum class AccessMode : std::uint8_t { kRead, kWrite };

struct TxnOp {
  std::uint64_t key = 0;
  AccessMode mode = AccessMode::kRead;
};

enum class DeadlockPolicy : std::uint8_t {
  /// Deadlock avoidance by discipline: keys must be acquired in ascending
  /// order (enforced - out-of-order acquisition throws LockUsageError).
  /// Acquisitions block unboundedly; with a global order no cycle exists.
  kOrdered,
  /// Never wait: a failed try_lock aborts the transaction immediately.
  kNoWait,
  /// Wait-die (Rosenkrantz et al.): an older transaction (smaller
  /// timestamp) may wait for a younger one; a younger transaction
  /// requesting a lock a known-older transaction holds dies at once.
  /// Needs a WaitDieStamps board to learn holder ages.
  kWaitDie,
  /// Bounded waiting: lock_for(wait_timeout); expiry aborts. Resolves
  /// cycles probabilistically without any holder bookkeeping.
  kTimeout,
};

[[nodiscard]] constexpr const char* to_string(DeadlockPolicy p) noexcept {
  switch (p) {
    case DeadlockPolicy::kOrdered: return "ordered";
    case DeadlockPolicy::kNoWait: return "nowait";
    case DeadlockPolicy::kWaitDie: return "waitdie";
    case DeadlockPolicy::kTimeout: return "timeout";
  }
  return "?";
}

/// Advisory who-holds-what board for wait-die: every holder, reader or
/// writer, publishes its timestamp per key, and a slot keeps the OLDEST
/// stamp published to it, so a requester dies whenever a visible holder is
/// older - the textbook rule. Keys hash into a fixed stamp array; a
/// collision can only make the policy conservative (a requester may die
/// against the wrong key's holder), never unsafe - the table still
/// serializes everything. Stamp 0 = no known holder. The board can still
/// miss a holder: after a collision, after the oldest of several readers
/// retracts while younger ones hold, and between a grant and its publish.
/// TxnLockSet's bounded waiting covers those cases.
class WaitDieStamps {
 public:
  explicit WaitDieStamps(std::size_t size = 4096)
      : mask_(std::bit_ceil(std::max<std::size_t>(size, 2)) - 1),
        stamps_(mask_ + 1) {}

  /// Records `ts` as a holder of `key` unless an older (smaller, nonzero)
  /// stamp is already there. Loads first: a holder younger than the slot's
  /// stamp leaves the line shared.
  void publish(std::uint64_t key, std::uint64_t ts) noexcept {
    std::atomic<std::uint64_t>& s = stamps_[slot(key)];
    std::uint64_t cur = s.load(std::memory_order_relaxed);
    while (cur == 0 || cur > ts) {
      if (s.compare_exchange_weak(cur, ts, std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
        return;
      }
    }
  }
  /// Clears the slot only if it still holds `ts`; loads first, so a
  /// transaction that no longer owns the slot does not take the line.
  void retract(std::uint64_t key, std::uint64_t ts) noexcept {
    std::atomic<std::uint64_t>& s = stamps_[slot(key)];
    std::uint64_t expect = ts;
    if (s.load(std::memory_order_relaxed) != expect) return;
    s.compare_exchange_strong(expect, 0, std::memory_order_acq_rel,
                              std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t holder(std::uint64_t key) const noexcept {
    return stamps_[slot(key)].load(std::memory_order_acquire);
  }

 private:
  [[nodiscard]] std::size_t slot(std::uint64_t key) const noexcept {
    key *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(key >> 32) & mask_;
  }
  std::size_t mask_;
  std::vector<std::atomic<std::uint64_t>> stamps_;
};

/// One transaction's lock set under strict 2PL. Reusable: begin() opens a
/// new growing phase, release_all() shrinks and closes it. acquire()
/// returning false means the POLICY chose this transaction as a victim -
/// the caller must release_all() and (typically) retry with the same
/// timestamp after a backoff.
template <Platform P>
class TxnLockSet {
 public:
  using Table = LockTable<P>;
  using Ctx = typename P::Context;
  using Key = typename Table::Key;

  struct Config {
    DeadlockPolicy policy = DeadlockPolicy::kOrdered;
    /// Waiting bound for kTimeout and for the older side of kWaitDie.
    Nanos wait_timeout = 2'000'000;  // 2 ms
    /// Required for kWaitDie; unused otherwise.
    WaitDieStamps* stamps = nullptr;
  };

  TxnLockSet(Table& table, Config cfg) : table_(table), cfg_(cfg) {
    if (cfg_.policy == DeadlockPolicy::kWaitDie && cfg_.stamps == nullptr) {
      throw LockUsageError("TxnLockSet: kWaitDie needs a WaitDieStamps");
    }
    held_.reserve(16);
  }

  /// Opens the growing phase. `ts` orders transactions for wait-die
  /// (smaller = older); a retrying victim keeps its original ts so it
  /// ages into a survivor.
  void begin(std::uint64_t ts) {
    if (!held_.empty()) {
      throw LockUsageError("TxnLockSet: begin with locks still held");
    }
    ts_ = ts;
    shrinking_ = false;
  }

  /// Acquires `key` for `mode`. Idempotent for a mode already covered
  /// (re-read of anything, re-write of a write). Returns false when the
  /// deadlock policy aborts this transaction. Throws LockUsageError on
  /// 2PL violations: acquiring after release_all (until the next begin),
  /// upgrading a held read to a write, or - under kOrdered - acquiring
  /// out of key order.
  bool acquire(Ctx& ctx, Key key, AccessMode mode) {
    if (shrinking_) {
      throw LockUsageError(
          "TxnLockSet: acquire after release_all violates 2PL");
    }
    // A table without a reader-writer configuration serializes everything;
    // treat reads as writes so upgrade rules stay trivially consistent.
    if (!table_.rw_capable()) mode = AccessMode::kWrite;
    for (const Held& h : held_) {
      if (h.key != key) continue;
      if (h.mode == AccessMode::kWrite || mode == AccessMode::kRead) {
        return true;
      }
      throw LockUsageError(
          "TxnLockSet: read->write upgrade of a held key; declare kWrite "
          "up front");
    }
    if (cfg_.policy == DeadlockPolicy::kOrdered && !held_.empty() &&
        key < held_.back().key) {
      throw LockUsageError(
          "TxnLockSet: kOrdered requires ascending key order");
    }
    if (!acquire_with_policy(ctx, key, mode)) return false;
    held_.push_back({key, mode});
    if (cfg_.stamps != nullptr) cfg_.stamps->publish(key, ts_);
    return true;
  }

  /// Shrinking phase: releases everything in reverse acquisition order
  /// and closes the transaction (strict 2PL - no early releases).
  void release_all(Ctx& ctx) {
    shrinking_ = true;
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      if (cfg_.stamps != nullptr) cfg_.stamps->retract(it->key, ts_);
      if (it->mode == AccessMode::kRead) {
        table_.unlock_shared(ctx, it->key);
      } else {
        table_.unlock(ctx, it->key);
      }
    }
    held_.clear();
  }

  [[nodiscard]] std::size_t held_count() const noexcept {
    return held_.size();
  }
  [[nodiscard]] std::uint64_t timestamp() const noexcept { return ts_; }

  /// Wait-die outcomes over this lock set's lifetime. Written only on the
  /// abort and wait paths, so an uncontended acquisition pays nothing.
  struct Stats {
    std::uint64_t age_deaths = 0;    ///< died: a visible holder was older
    std::uint64_t bound_deaths = 0;  ///< died: every timed slice expired
    std::uint64_t timed_waits = 0;   ///< timed slices entered
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Held {
    Key key;
    AccessMode mode;
  };

  bool acquire_with_policy(Ctx& ctx, Key key, AccessMode mode) {
    const bool shared = mode == AccessMode::kRead;
    switch (cfg_.policy) {
      case DeadlockPolicy::kOrdered:
        return shared ? table_.lock_shared(ctx, key) : table_.lock(ctx, key);
      case DeadlockPolicy::kNoWait:
        return shared ? table_.try_lock_shared(ctx, key)
                      : table_.try_lock(ctx, key);
      case DeadlockPolicy::kTimeout:
        return shared ? table_.lock_shared_for(ctx, key, cfg_.wait_timeout)
                      : table_.lock_for(ctx, key, cfg_.wait_timeout);
      case DeadlockPolicy::kWaitDie: {
        // The stamp board shows every holder that has published, oldest
        // first, so a reader-writer cycle dies by age. It is still
        // approximate (hashed slots; a younger reader hidden once the
        // oldest retracts; the window between a grant and its publish): a
        // real holder can be invisible behind a 0, and unbounded waiting
        // on "holder unknown" could cycle two older-looking transactions
        // into a livelock. Waiting is therefore bounded: after kWaitSlices
        // timed slices without the lock, the waiter dies conservatively -
        // the caller retries with its ORIGINAL timestamp, so seniority
        // (and wait-die's starvation freedom) is preserved across the
        // abort.
        constexpr int kWaitSlices = 16;
        for (int slice = 0; slice < kWaitSlices; ++slice) {
          const bool got = shared ? table_.try_lock_shared(ctx, key)
                                  : table_.try_lock(ctx, key);
          if (got) return true;
          const std::uint64_t holder = cfg_.stamps->holder(key);
          if (holder != 0 && holder < ts_) {  // younger: die
            ++stats_.age_deaths;
            return false;
          }
          // Older than any known holder (or holder unknown): wait a
          // bounded slice, then re-evaluate - the holder board may have
          // learned an older holder we must not keep waiting on.
          ++stats_.timed_waits;
          if (shared ? table_.lock_shared_for(ctx, key, cfg_.wait_timeout)
                     : table_.lock_for(ctx, key, cfg_.wait_timeout)) {
            return true;
          }
        }
        ++stats_.bound_deaths;
        return false;
      }
    }
    return false;
  }

  Table& table_;
  Config cfg_;
  std::vector<Held> held_;
  std::uint64_t ts_ = 0;
  bool shrinking_ = false;
  Stats stats_;
};

}  // namespace relock::table

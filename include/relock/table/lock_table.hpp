// LockTable: a striped, partitioned record-id -> lock map for OLTP-style
// workloads where millions of locks coexist and only the contended few
// deserve machinery.
//
// Layout: one contiguous array of 16-byte slots (an open-addressing hash
// table, linear probing confined to the key's power-of-two partition, no
// resize in v1 - a full partition throws). A slot is two table words:
//
//   key word    0 = empty, else record-id + 1 (slots are never vacated, so
//               a key -> slot binding is stable for the table's lifetime)
//   lock word   0                     free
//               kSlotHeld (1)        inline exclusive hold - the entire
//                                    uncontended lock is this one bit
//               n * kSlotReader      n >= 1 inline shared holds: bits 0-1
//                (4, 8, ...)         clear, the upper bits count readers
//               ptr|kSlotInflated    inflated: the upper bits point at an
//                [|kSlotHeld]        Entry owning a full ConfigurableLock
//                                    (kSlotHeld still set = pre-inflation
//                                    inline holders remain: the one
//                                    exclusive owner, or the readers
//                                    counted in Entry::inline_readers)
//               kSlotDeflating (3)   transient: a releaser is tearing the
//                                    inflation down; contenders spin-retry
//
// Lazy inflation: an uncontended acquire is one CAS - free -> kSlotHeld
// for a writer, w -> w + kSlotReader for a reader - and its release is one
// CAS back. The first *conflicting* contender (or the first non-default
// configuration, or an explicit inflate()) inflates: it takes an Entry
// from the partition pool, pre-pins it (users = 1), moves any inline
// reader count into Entry::inline_readers, and CASes the pointer in with
// kSlotHeld set iff inline holders remain. Delegated acquirers then go
// through the Entry's ConfigurableLock and finally wait out the inline
// holders: an exclusive owner releases by clearing kSlotHeld, readers
// decrement inline_readers and the last one clears the bit. Polling
// (try_*) acquires never inflate over an inline holder.
//
// Pin protocol: every thread touching an Entry's lock first increments
// entry->users and re-validates that the slot still points at that entry
// (Entries are type-stable - pooled per partition, freed only at table
// destruction - so a stale increment is harmless and the validation
// catches it). Deflation is performed by a releasing delegated holder
// BEFORE its full unlock: if users == 1 (nobody else engaged), CAS the
// slot to kSlotDeflating, re-check users (the Dekker partner of the
// pinners' increment-then-validate), and only then unlock, unpin, recycle
// the Entry, and publish the slot free. A pinner that slipped in between
// makes the re-check fail and the slot is simply re-published. Entries
// carrying a non-default configuration are sticky: they never deflate, so
// per-key configuration survives idle periods.
//
// The table is a template over Platform like the lock itself: on the
// native platform the table words are unpadded std::atomic (so a slot is
// exactly 16 bytes and an idle table costs 16 bytes/lock); on the check
// platform they are engine-instrumented words, which makes the whole
// inflate/deflate lifecycle explorable by exhaustive DFS
// (tests/check/check_table_scenarios.hpp).
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/platform.hpp"
#include "relock/platform/types.hpp"

namespace relock::table {

inline constexpr std::uint64_t kSlotFree = 0;
inline constexpr std::uint64_t kSlotHeld = 1;
inline constexpr std::uint64_t kSlotInflated = 2;
inline constexpr std::uint64_t kSlotDeflating = kSlotHeld | kSlotInflated;
inline constexpr std::uint64_t kSlotPtrMask = ~std::uint64_t{3};
/// One inline shared hold: a reader word is a multiple of this.
inline constexpr std::uint64_t kSlotReader = 4;

template <Platform P>
class LockTable {
  static_assert(kRealConcurrency<P>,
                "LockTable targets real-concurrency platforms (native, "
                "check); the simulator's calibrated cost model has no "
                "table workloads");

 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;
  using Lock = ConfigurableLock<P>;
  using Key = std::uint64_t;

  struct Options {
    /// Slot count; rounded up to a power of two. Fixed for the table's
    /// lifetime (v1 has no resize): size for the record population.
    std::uint32_t capacity = 1u << 16;
    /// Stripe count; rounded to a power of two and clamped to
    /// [1, min(capacity, 256)]. Each partition owns capacity/partitions
    /// slots and its own Entry pool.
    std::uint32_t partitions = 16;
    /// Configuration applied to inflated locks. A kReaderWriter scheduler
    /// here makes the table shared-capable (lock_shared et al.).
    typename Lock::Options lock_options{};
    /// Inflation lifecycle hooks - the adaptation engine's registration
    /// point for hot locks (PolicyEngine::inflation_hook/deflation_hook).
    /// on_inflate fires right after a slot publishes a freshly installed
    /// Entry; on_deflate fires inside the closed deflation window,
    /// strictly BEFORE the Entry returns to the partition pool, so a hook
    /// can never observe the same Lock re-inflated under another key
    /// while its deregistration is still in flight. Hooks run on the
    /// inflating/deflating thread's lock path: keep them cheap and do not
    /// throw. Entries recycled through the pool keep whatever
    /// configuration a governor last gave them; the next inflation
    /// re-registers the lock and the governor re-derives it.
    std::function<void(Lock&)> on_inflate;
    std::function<void(Lock&)> on_deflate;
  };

  LockTable(Domain& domain, Options opts = Options{})
      : domain_(domain), opts_(opts) {
    capacity_ = std::bit_ceil(std::max(opts.capacity, 2u));
    const std::uint32_t max_parts = std::min(capacity_, 256u);
    partition_count_ =
        std::min(std::bit_ceil(std::max(opts.partitions, 1u)), max_parts);
    slots_per_part_ = capacity_ / partition_count_;
    parts_ = std::make_unique<Partition[]>(partition_count_);
    // One contiguous allocation for every slot: the footprint accounting
    // below is exact, and an idle table is pure slot array.
    slots_ = static_cast<Slot*>(::operator new(
        sizeof(Slot) * capacity_, std::align_val_t{alignof(Slot)}));
    std::uint32_t built = 0;
    try {
      for (; built < capacity_; ++built) new (&slots_[built]) Slot(domain_);
    } catch (...) {
      destroy_slots(built);
      throw;
    }
  }

  ~LockTable() { destroy_slots(capacity_); }

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // =================================================================
  // Acquisition / release by record id.
  // =================================================================

  /// Exclusive acquire. Returns false only if the inflated lock's
  /// configured waiting policy is conditional and expired (mirrors
  /// ConfigurableLock::lock).
  bool lock(Ctx& ctx, Key k) {
    return acquire(ctx, k, /*shared=*/false, 0, /*try_only=*/false);
  }
  /// Conditional exclusive acquire bounded by `timeout`.
  bool lock_for(Ctx& ctx, Key k, Nanos timeout) {
    return acquire(ctx, k, /*shared=*/false, timeout, /*try_only=*/false);
  }
  /// Polling exclusive acquire: single attempt, never waits and - against
  /// an inline holder - never inflates.
  bool try_lock(Ctx& ctx, Key k) {
    return acquire(ctx, k, /*shared=*/false, 0, /*try_only=*/true);
  }

  /// Shared acquire; requires a reader-writer `lock_options` configuration.
  /// Readers share the inline word (a reader count) until a writer or a
  /// configuration inflates it.
  bool lock_shared(Ctx& ctx, Key k) {
    return acquire(ctx, k, /*shared=*/true, 0, /*try_only=*/false);
  }
  bool lock_shared_for(Ctx& ctx, Key k, Nanos timeout) {
    return acquire(ctx, k, /*shared=*/true, timeout, /*try_only=*/false);
  }
  /// Polling shared acquire: never waits and - against an inline
  /// exclusive holder - never inflates.
  bool try_lock_shared(Ctx& ctx, Key k) {
    return acquire(ctx, k, /*shared=*/true, 0, /*try_only=*/true);
  }

  void unlock(Ctx& ctx, Key k) { release(ctx, k, /*shared=*/false); }
  void unlock_shared(Ctx& ctx, Key k) { release(ctx, k, /*shared=*/true); }

  // =================================================================
  // Per-key configuration (forces inflation; the configured Entry is
  // sticky: it never deflates, so the configuration persists).
  // =================================================================

  void configure_waiting(Ctx& ctx, Key k, LockAttributes attrs) {
    Slot& s = *find_or_insert(ctx, k);
    Entry* e = pin_or_install(ctx, s);
    e->sticky.store(true, std::memory_order_release);
    e->lock.configure_waiting(ctx, attrs);
    unpin(ctx, e);
  }

  /// Pre-inflates a key (pool warm-up for locks known to become hot).
  /// Non-sticky: the entry deflates on last release like any
  /// contention-inflated one.
  void inflate(Ctx& ctx, Key k) {
    Slot& s = *find_or_insert(ctx, k);
    unpin(ctx, pin_or_install(ctx, s));
  }

  /// Whether `k`'s slot currently carries an inflated entry (advisory).
  bool inflated(Ctx& ctx, Key k) {
    Slot* s = find_existing(ctx, k);
    return s != nullptr && (P::load(ctx, s->word) & kSlotInflated) != 0;
  }

  // =================================================================
  // Introspection.
  // =================================================================

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t partition_count() const noexcept {
    return partition_count_;
  }
  [[nodiscard]] std::uint32_t slots_per_partition() const noexcept {
    return slots_per_part_;
  }
  [[nodiscard]] std::uint32_t partition_of(Key k) const noexcept {
    return partition_index(mix(k));
  }
  [[nodiscard]] bool rw_capable() const noexcept {
    return opts_.lock_options.scheduler == SchedulerKind::kReaderWriter;
  }
  /// Distinct keys ever inserted.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  /// Slots currently inflated (live entries attached to a slot).
  [[nodiscard]] std::uint64_t inflated_count() const noexcept {
    return inflated_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t entries_allocated() const noexcept {
    return entries_allocated_.load(std::memory_order_relaxed);
  }

  /// Per-lock heap cost: the slot array plus every Entry ever inflated,
  /// each with its monitor's counter block when `lock_options` enables the
  /// monitor (the block lives outside the Entry). An idle, never-inflated
  /// table is exactly 16 bytes per lock.
  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept {
    const std::uint64_t per_entry =
        sizeof(Entry) +
        (opts_.lock_options.monitor_enabled ? LockMonitor::block_bytes() : 0);
    return std::uint64_t{capacity_} * sizeof(Slot) +
           entries_allocated_.load(std::memory_order_relaxed) * per_entry;
  }
  /// O(partitions) fixed bookkeeping (pool heads, stripe headers) - not
  /// per-lock, reported separately from footprint_bytes().
  [[nodiscard]] std::uint64_t overhead_bytes() const noexcept {
    return std::uint64_t{partition_count_} * sizeof(Partition);
  }

  /// Host-side (quiescent) slot-word read for test oracles: no Context,
  /// plain loads; only meaningful while no thread is operating. Returns
  /// kSlotFree for a key never inserted.
  [[nodiscard]] std::uint64_t quiescent_word(Key k) const {
    const Slot* s = probe_raw(k);
    return s == nullptr ? kSlotFree : raw(s->word);
  }

 private:
  /// An inflated lock record. Type-stable: once allocated it lives until
  /// table destruction (deflation returns it to the partition pool), so a
  /// stale pinner's users increment can never touch freed memory.
  struct Entry {
    Entry(Domain& d, const typename Lock::Options& o) : lock(d, o) {}
    Lock lock;
    /// Engaged-thread count: pre-publication pin by the installer plus one
    /// per pin_or_install / pin. seq_cst: the increment-then-validate /
    /// CAS-then-recheck pair with deflation is a Dekker handshake.
    std::atomic<std::uint32_t> users{0};
    /// Set by configure_waiting: a configured entry never deflates.
    std::atomic<bool> sticky{false};
    /// Committed shared holds. The full lock's own misuse guards cannot
    /// tell an exclusive release of a shared hold apart from a real one
    /// (holders_ is one either way), so the table keeps the mode tally
    /// and rejects wrong-mode delegated releases before touching the lock.
    std::atomic<std::uint32_t> shared_holds{0};
    /// Inline readers still holding from before this entry was installed
    /// (kSlotHeld is up while nonzero). Written by the installer before its
    /// publishing CAS; the last reader's decrement clears kSlotHeld.
    std::atomic<std::uint32_t> inline_readers{0};
    Entry* next = nullptr;  ///< partition free-list link (under pool guard)
  };

  /// Table words are the platform's unpadded word: on native a slot is
  /// exactly 16 bytes; on the check platform every operation on them is a
  /// scheduling point, which is what lets the model checker drive the
  /// inflate/deflate races.
  using Word = PackedWord<P>;

  /// Quiescent (no-Context) read for the destructor and host-side test
  /// introspection; only valid while no thread is operating on the table.
  /// `v` is a plain integer on the check platform, an atomic on native.
  static std::uint64_t raw(const Word& w) noexcept { return w.v; }

  struct Slot {
    explicit Slot(Domain& d) : key(d, 0), word(d, 0) {}
    Word key;
    Word word;
  };

  /// Stripe header: the Entry pool. The guard is a plain test-and-set spin
  /// held only across pointer swings (no scheduling point inside, so under
  /// the checker the critical section is one atomic step and can never be
  /// observed held).
  struct alignas(64) Partition {
    std::atomic_flag guard = ATOMIC_FLAG_INIT;
    Entry* pool = nullptr;
    std::vector<std::unique_ptr<Entry>> all;  ///< owner, freed at table dtor
  };

  [[noreturn]] static void misuse(const char* what) {
    throw LockUsageError(what);
  }
  /// Release in the mode the hold was not taken in.
  [[noreturn]] static void wrong_mode(bool shared) {
    misuse(shared ? "LockTable: unlock_shared of an exclusive hold"
                  : "LockTable: unlock of a shared hold");
  }

  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::uint32_t partition_index(std::uint64_t h) const noexcept {
    // High hash bits pick the stripe; low bits (used for the probe start)
    // stay independent of it.
    const unsigned bits =
        static_cast<unsigned>(std::bit_width(partition_count_ - 1u));
    return bits == 0 ? 0u : static_cast<std::uint32_t>(h >> (64 - bits));
  }

  static Entry* decode(std::uint64_t w) noexcept {
    return reinterpret_cast<Entry*>(w & kSlotPtrMask);
  }
  static std::uint64_t encode(Entry* e) noexcept {
    const auto bits = reinterpret_cast<std::uint64_t>(e);
    assert((bits & ~kSlotPtrMask) == 0);
    return bits;
  }

  Partition& part_of(const Slot& s) noexcept {
    const auto idx = static_cast<std::uint32_t>(&s - slots_);
    return parts_[idx / slots_per_part_];
  }

  // ---------------------------------------------------- hashing ---------

  /// Find-or-insert: linear probing within the key's partition. Keys are
  /// stored +1 so 0 means empty; slots are never vacated. Throws
  /// std::length_error when the partition is full (v1: no resize).
  Slot* find_or_insert(Ctx& ctx, Key k) {
    const std::uint64_t tagged = k + 1;
    if (tagged == 0) misuse("LockTable: key ~0 is reserved");
    const std::uint64_t h = mix(k);
    const std::uint32_t base = partition_index(h) * slots_per_part_;
    const std::uint32_t mask = slots_per_part_ - 1;
    for (std::uint32_t i = 0; i < slots_per_part_; ++i) {
      Slot& s = slots_[base + ((static_cast<std::uint32_t>(h) + i) & mask)];
      const std::uint64_t cur = P::load(ctx, s.key);
      if (cur == tagged) return &s;
      if (cur == 0) {
        if (P::cas(ctx, s.key, 0, tagged)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          return &s;
        }
        // Lost the claim - maybe to our own key on another thread.
        if (P::load(ctx, s.key) == tagged) return &s;
      }
    }
    throw std::length_error("relock: LockTable partition full");
  }

  Slot* find_existing(Ctx& ctx, Key k) {
    const std::uint64_t tagged = k + 1;
    if (tagged == 0) misuse("LockTable: key ~0 is reserved");
    const std::uint64_t h = mix(k);
    const std::uint32_t base = partition_index(h) * slots_per_part_;
    const std::uint32_t mask = slots_per_part_ - 1;
    for (std::uint32_t i = 0; i < slots_per_part_; ++i) {
      Slot& s = slots_[base + ((static_cast<std::uint32_t>(h) + i) & mask)];
      const std::uint64_t cur = P::load(ctx, s.key);
      if (cur == tagged) return &s;
      if (cur == 0) return nullptr;
    }
    return nullptr;
  }

  /// Quiescent probe (no Context; destructor / host-side oracles).
  const Slot* probe_raw(Key k) const {
    const std::uint64_t tagged = k + 1;
    const std::uint64_t h = mix(k);
    const std::uint32_t base = partition_index(h) * slots_per_part_;
    const std::uint32_t mask = slots_per_part_ - 1;
    for (std::uint32_t i = 0; i < slots_per_part_; ++i) {
      const Slot& s =
          slots_[base + ((static_cast<std::uint32_t>(h) + i) & mask)];
      const std::uint64_t cur = raw(s.key);
      if (cur == tagged) return &s;
      if (cur == 0) return nullptr;
    }
    return nullptr;
  }

  // ---------------------------------------------------- entry pool ------

  // The pool guard is never held across a scheduling point, so the raw
  // spin below is bounded by one pointer swing (and under the cooperative
  // checker the holder cannot be descheduled at all - the loop never
  // actually iterates there).
  Entry* obtain_entry(Partition& p) {
    while (p.guard.test_and_set(std::memory_order_acquire)) {}
    Entry* e = p.pool;
    if (e != nullptr) p.pool = e->next;
    p.guard.clear(std::memory_order_release);
    if (e != nullptr) {
      e->next = nullptr;
      return e;
    }
    auto owned = std::make_unique<Entry>(domain_, opts_.lock_options);
    Entry* raw = owned.get();
    entries_allocated_.fetch_add(1, std::memory_order_relaxed);
    while (p.guard.test_and_set(std::memory_order_acquire)) {}
    try {
      p.all.push_back(std::move(owned));
    } catch (...) {
      p.guard.clear(std::memory_order_release);
      throw;
    }
    p.guard.clear(std::memory_order_release);
    return raw;
  }

  void recycle_entry(Partition& p, Entry* e) noexcept {
    while (p.guard.test_and_set(std::memory_order_acquire)) {}
    e->next = p.pool;
    p.pool = e;
    p.guard.clear(std::memory_order_release);
  }

  // ---------------------------------------------------- pinning ---------

  /// Registers the caller as an engaged user of `w`'s entry, or returns
  /// null when the slot moved on (retry from a fresh load). Increment
  /// BEFORE validate: the deflater CASes the word away before re-checking
  /// users, so at least one side observes the other.
  Entry* pin(Ctx& ctx, Slot& s, std::uint64_t w) {
    Entry* e = decode(w);
    chk_point<P>(ctx, "tb.pin");
    e->users.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t w2 = P::load(ctx, s.word);
    if ((w2 & kSlotInflated) != 0 && decode(w2) == e) return e;
    unpin(ctx, e);
    return nullptr;
  }

  /// Returns the PREVIOUS count: a caller seeing 1 just dropped the last
  /// engagement and owns the lights-out deflation attempt (see
  /// try_deflate_idle) - without this, two releasers can each observe the
  /// other's transient pin, both skip deflation, and the entry idles
  /// attached forever.
  std::uint32_t unpin(Ctx& ctx, Entry* e) {
    chk_point<P>(ctx, "tb.unpin");
    return e->users.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Deflation attempt by a thread holding NEITHER a pin nor the full
  /// lock, after observing users hit 0 with the entry still attached
  /// (last-unpin handoff, or the last inline holder's release over an idle
  /// entry). Safe without the lock: every thread that touches e->lock
  /// holds a pin across the operation, so rechecking users == 0 after the
  /// CAS closes the window proves the full lock is free and at rest.
  void try_deflate_idle(Ctx& ctx, Slot& s, Entry* e) {
    const std::uint64_t pub = encode(e) | kSlotInflated;
    if (!P::cas(ctx, s.word, pub, kSlotDeflating)) return;
    chk_point<P>(ctx, "tb.defl.recheck");
    if (e->users.load(std::memory_order_seq_cst) == 0 &&
        !e->sticky.load(std::memory_order_acquire)) {
      if (opts_.on_deflate) opts_.on_deflate(e->lock);
      recycle_entry(part_of(s), e);
      inflated_.fetch_sub(1, std::memory_order_relaxed);
      P::store(ctx, s.word, kSlotFree);
      return;
    }
    P::store(ctx, s.word, pub);
  }

  /// Installs a fresh entry over the inline word `expected` (free, one
  /// exclusive holder, or a reader count). Inline holders carry over as
  /// kSlotHeld - readers with their count moved into inline_readers - so
  /// delegated acquirers wait them out. The installer pre-pins (users = 1)
  /// BEFORE publication, so a concurrent acquire-release on the new entry
  /// cannot deflate it out from under the installer.
  Entry* try_install(Ctx& ctx, Slot& s, std::uint64_t expected) {
    Partition& p = part_of(s);
    Entry* e = obtain_entry(p);
    chk_point<P>(ctx, "tb.pin");
    e->users.fetch_add(1, std::memory_order_seq_cst);
    // kSlotHeld / kSlotReader == 0: an exclusive word moves no readers.
    e->inline_readers.store(
        static_cast<std::uint32_t>(expected / kSlotReader),
        std::memory_order_relaxed);  // published by the CAS below
#ifdef RELOCK_CHECK_SEEDED_BUG_3
    // Seeded bug: inflating over inline readers drops kSlotHeld, so a
    // delegated writer does not wait the readers out.
    const std::uint64_t held = expected & kSlotHeld;
#else
    const std::uint64_t held = expected != kSlotFree ? kSlotHeld : 0;
#endif
    if (P::cas(ctx, s.word, expected, encode(e) | kSlotInflated | held)) {
      inflated_.fetch_add(1, std::memory_order_relaxed);
      if (opts_.on_inflate) opts_.on_inflate(e->lock);
      return e;
    }
    e->inline_readers.store(0, std::memory_order_relaxed);
    unpin(ctx, e);
    recycle_entry(p, e);
    return nullptr;
  }

  /// Pin the slot's entry, inflating first if need be (configure / warm-up
  /// path: works whether the slot is free, inline-held, or inflated).
  Entry* pin_or_install(Ctx& ctx, Slot& s) {
    for (;;) {
      const std::uint64_t w = P::load(ctx, s.word);
      if (w == kSlotDeflating) {
        P::pause(ctx);
        continue;
      }
      if ((w & kSlotInflated) != 0) {
        if (Entry* e = pin(ctx, s, w)) return e;
        continue;
      }
      // Inline word (free, exclusive or readers): install over it.
      if (Entry* e = try_install(ctx, s, w)) return e;
    }
  }

  // ---------------------------------------------------- acquire ---------

  bool acquire(Ctx& ctx, Key k, bool shared, Nanos timeout, bool try_only) {
    if (shared && !rw_capable()) {
      misuse("LockTable: shared acquisition needs a kReaderWriter "
             "lock_options configuration");
    }
    Slot& s = *find_or_insert(ctx, k);
    const Nanos deadline = timeout > 0 ? P::now(ctx) + timeout : 0;
    for (;;) {
      const std::uint64_t w = P::load(ctx, s.word);
      if (w == kSlotDeflating) {
        P::pause(ctx);
        continue;
      }
      if ((w & kSlotInflated) != 0) {
        Entry* e = pin(ctx, s, w);
        if (e == nullptr) continue;
        return delegated_acquire(ctx, s, e, shared, timeout, deadline,
                                 try_only);
      }
      // Inline word: free, kSlotHeld, or a reader count.
      if (shared ? (w & kSlotHeld) == 0 : w == kSlotFree) {
        // The uncontended path: the entire acquire is this CAS.
        if (P::cas(ctx, s.word, w, shared ? w + kSlotReader : kSlotHeld)) {
          return true;
        }
        continue;
      }
      // Held inline in the conflicting mode. Polling: plain failure, no
      // inflation.
      if (try_only) return false;
      // First contention: inflate over the inline holders.
      if (Entry* e = try_install(ctx, s, w)) {
        return delegated_acquire(ctx, s, e, shared, timeout, deadline,
                                 try_only);
      }
    }
  }

  /// Caller holds a pin on `e`. Acquires through the full lock, then waits
  /// out the pre-inflation inline holders (the bit is cleared by the
  /// exclusive owner's release or the last inline reader's, and can never
  /// be re-set while the slot is inflated).
  bool delegated_acquire(Ctx& ctx, Slot& s, Entry* e, bool shared,
                         Nanos timeout, Nanos deadline, bool try_only) {
    bool got;
    try {
      if (try_only) {
        got = shared ? e->lock.try_lock_shared(ctx) : e->lock.try_lock(ctx);
      } else if (timeout > 0) {
        got = shared ? e->lock.lock_shared_for(ctx, timeout)
                     : e->lock.lock_for(ctx, timeout);
      } else {
        got = shared ? e->lock.lock_shared(ctx) : e->lock.lock(ctx);
      }
    } catch (...) {
      // Misuse from the full lock (e.g. recursion rules): drop the pin so
      // the entry's lifecycle is not wedged by the exception.
      unpin(ctx, e);
      throw;
    }
    if (!got) {
      if (unpin(ctx, e) == 1) try_deflate_idle(ctx, s, e);
      return false;
    }
    std::uint32_t spins = 0;
    while ((P::load(ctx, s.word) & kSlotHeld) != 0) {
      if (try_only || (deadline != 0 && P::now(ctx) >= deadline)) {
        // Back out: we own the full lock but table-level ownership never
        // happened. If ours was the last engagement, turn the lights out
        // (the CAS inside fails while the inline holders' bit is up - the
        // last one's release then inherits the attempt).
        if (shared) {
          e->lock.unlock_shared(ctx);
        } else {
          e->lock.unlock(ctx);
        }
        if (unpin(ctx, e) == 1) try_deflate_idle(ctx, s, e);
        return false;
      }
      // Inline holders entered uncontended and no more can join; spin,
      // escalating to yield for oversubscribed hosts.
      if (++spins % 64 == 0) {
        P::yield(ctx);
      } else {
        P::pause(ctx);
      }
    }
    if (shared) e->shared_holds.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  // ---------------------------------------------------- release ---------

  void release(Ctx& ctx, Key k, bool shared) {
    Slot* sp = find_existing(ctx, k);
    if (sp == nullptr) misuse("LockTable: unlock of a key never locked");
    Slot& s = *sp;
    for (;;) {
      const std::uint64_t w = P::load(ctx, s.word);
      if ((w & kSlotInflated) != 0 && decode(w) != nullptr) {
        Entry* e = decode(w);
        if ((w & kSlotHeld) != 0) {
          // Only pre-inflation inline holders can be releasing while the
          // bit is set: delegated acquirers wait it out before returning.
          // inline_readers tells their mode (it is fixed before the
          // publishing CAS and cannot reach 0 before our own decrement).
          const bool readers =
              e->inline_readers.load(std::memory_order_acquire) != 0;
          if (shared != readers) wrong_mode(shared);
          if (shared) {
            chk_point<P>(ctx, "tb.rd.leave");
            if (e->inline_readers.fetch_sub(1, std::memory_order_acq_rel) !=
                1) {
              return;  // other inline readers still hold the bit up
            }
          }
          (void)P::fetch_and(ctx, s.word, ~kSlotHeld);
          // The entry may already be idle (a try/timed acquirer inflated,
          // then backed out while our bit blocked its deflation attempt):
          // with the bit down, an idle entry is now ours to retire.
          if (e->users.load(std::memory_order_seq_cst) == 0) {
            try_deflate_idle(ctx, s, e);
          }
          return;
        }
        delegated_release(ctx, s, e, shared);
        return;
      }
      if (w == kSlotDeflating) {
        P::pause(ctx);
        continue;
      }
      if (w == kSlotFree) misuse("LockTable: unlock of an unheld key");
      // Inline hold: kSlotHeld or a reader count.
      if (shared == (w == kSlotHeld)) wrong_mode(shared);
      if (P::cas(ctx, s.word, w, shared ? w - kSlotReader : kSlotFree)) {
        return;
      }
      // Inflated under us, or another reader moved the count: retry.
    }
  }

  /// Caller is a delegated holder (pinned, owns the full lock). Deflation
  /// happens HERE, before the full unlock: while we hold the lock nobody
  /// else can be mid-critical-section, and users == 1 says nobody else is
  /// even engaged with the entry.
  void delegated_release(Ctx& ctx, Slot& s, Entry* e, bool shared) {
    // Wrong-mode guards, checked before any state moves so misuse()
    // unwinds with the hold fully intact.
    if (shared) {
      if (e->shared_holds.load(std::memory_order_acquire) == 0) {
        misuse("LockTable: unlock_shared without a shared hold");
      }
    } else if (e->shared_holds.load(std::memory_order_acquire) != 0) {
      misuse("LockTable: unlock of a shared hold");
    }
    chk_point<P>(ctx, "tb.defl.users");
    if (!e->sticky.load(std::memory_order_relaxed) &&
        e->users.load(std::memory_order_seq_cst) == 1) {
      const std::uint64_t pub = encode(e) | kSlotInflated;
      if (P::cas(ctx, s.word, pub, kSlotDeflating)) {
        chk_point<P>(ctx, "tb.defl.recheck");
        // The Dekker re-check: a pinner increments users BEFORE validating
        // the slot word, and we removed the word BEFORE re-reading users,
        // so a racing pinner either bumps this count or fails validation.
        // Sticky is re-read under the closed window: observing users == 1
        // synchronizes with the configurer's unpin, making its sticky
        // store visible.
        if (e->users.load(std::memory_order_seq_cst) == 1 &&
            !e->sticky.load(std::memory_order_acquire)) {
          try {
            if (shared) {
              e->lock.unlock_shared(ctx);
            } else {
              e->lock.unlock(ctx);
            }
          } catch (...) {
            // Wrong-mode release (the full lock's misuse guard): the
            // caller STILL HOLDS the lock, so restore the pre-call state
            // exactly - reopen the slot, keep the hold's pin - or the
            // slot would be wedged at kSlotDeflating forever.
            P::store(ctx, s.word, pub);
            throw;
          }
          if (shared) e->shared_holds.fetch_sub(1, std::memory_order_acq_rel);
          unpin(ctx, e);
          if (opts_.on_deflate) opts_.on_deflate(e->lock);
          recycle_entry(part_of(s), e);
          inflated_.fetch_sub(1, std::memory_order_relaxed);
          P::store(ctx, s.word, kSlotFree);
          return;
        }
        // Somebody slipped in: re-publish and release normally.
        P::store(ctx, s.word, pub);
      }
    }
    // A wrong-mode throw from the full lock leaves the hold (and its pin)
    // in place - the caller still owns the lock, so no state needs
    // restoring. The shared tally drops BEFORE the full release: once the
    // lock is free a writer may acquire and release it, and a stale
    // nonzero tally would make that legitimate release read as
    // wrong-mode.
    if (shared) {
      e->shared_holds.fetch_sub(1, std::memory_order_acq_rel);
      try {
        e->lock.unlock_shared(ctx);
      } catch (...) {
        e->shared_holds.fetch_add(1, std::memory_order_acq_rel);
        throw;
      }
    } else {
      e->lock.unlock(ctx);
    }
    if (unpin(ctx, e) == 1) try_deflate_idle(ctx, s, e);
  }

  // ---------------------------------------------------- teardown --------

  void destroy_slots(std::uint32_t n) noexcept {
    for (std::uint32_t i = 0; i < n; ++i) slots_[i].~Slot();
    ::operator delete(static_cast<void*>(slots_),
                      std::align_val_t{alignof(Slot)});
    slots_ = nullptr;
  }

  Domain& domain_;
  Options opts_;
  std::uint32_t capacity_ = 0;
  std::uint32_t partition_count_ = 0;
  std::uint32_t slots_per_part_ = 0;
  Slot* slots_ = nullptr;
  std::unique_ptr<Partition[]> parts_;
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> inflated_{0};
  std::atomic<std::uint64_t> entries_allocated_{0};
};

}  // namespace relock::table

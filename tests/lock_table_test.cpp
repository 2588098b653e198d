// LockTable unit + concurrency coverage: partition routing, inline-word
// acquire/release/try/timeout semantics, the inflate-on-contention /
// deflate-on-idle lifecycle (including configure-while-inline forcing a
// sticky inflation), inline reader counts and writers inflating over them,
// multi-thread hammers with per-key ownership oracles (exclusive, readers
// only, and mixed reader/writer), and the footprint bounds the design is
// sold on (16 bytes per idle lock at one million entries).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "relock/platform/native.hpp"
#include "relock/table/lock_table.hpp"
#include "stress_seed.hpp"

namespace relock::table {
namespace {

using native::NativePlatform;
using Table = LockTable<NativePlatform>;

// The native table word must not inherit native::Word's cache-line
// padding: two of them are the whole per-lock budget.
static_assert(sizeof(PackedWord<NativePlatform>) == 8);

Table::Options small_options(std::uint32_t capacity = 1024,
                             std::uint32_t partitions = 8) {
  Table::Options o;
  o.capacity = capacity;
  o.partitions = partitions;
  o.lock_options.scheduler = SchedulerKind::kFcfs;
  o.lock_options.attributes = LockAttributes::spin();
  return o;
}

TEST(LockTableLayout, GeometryIsPowerOfTwoAndClamped) {
  native::Domain dom(16);
  {
    Table t(dom, small_options(1000, 7));
    EXPECT_EQ(t.capacity(), 1024u);
    EXPECT_EQ(t.partition_count(), 8u);
    EXPECT_EQ(t.slots_per_partition() * t.partition_count(), t.capacity());
  }
  {
    // More partitions than slots: clamped so each stripe keeps >= 1 slot.
    Table t(dom, small_options(8, 512));
    EXPECT_EQ(t.capacity(), 8u);
    EXPECT_LE(t.partition_count(), 8u);
    EXPECT_GE(t.slots_per_partition(), 1u);
  }
}

TEST(LockTableLayout, PartitionRoutingIsStableAndSpreads) {
  native::Domain dom(16);
  Table t(dom, small_options(1 << 12, 16));
  std::set<std::uint32_t> seen;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint32_t p = t.partition_of(k);
    EXPECT_LT(p, t.partition_count());
    EXPECT_EQ(p, t.partition_of(k));  // pure function of the key
    seen.insert(p);
  }
  // splitmix-mixed high bits: 4096 keys must not collapse onto a stripe.
  EXPECT_EQ(seen.size(), t.partition_count());
}

TEST(LockTableLayout, IdleMillionEntryTableCosts16BytesPerLock) {
  native::Domain dom(16);
  Table t(dom, small_options(1u << 20, 64));
  ASSERT_EQ(t.capacity(), 1u << 20);
  // The acceptance bound: <= 16 bytes/lock idle. The slot array is the
  // entire per-lock cost, and it is exactly two unpadded words.
  EXPECT_EQ(t.footprint_bytes(), std::uint64_t{16} * t.capacity());
  EXPECT_LE(t.footprint_bytes() / t.capacity(), 16u);
  // Stripe headers are O(partitions), not per-lock: under 1% of the array.
  EXPECT_LE(t.overhead_bytes() * 100, t.footprint_bytes());
}

/// Bytes footprint_bytes() charges per inflated entry, after inflating
/// `keys` distinct keys of a table built with `monitor_enabled`.
std::uint64_t footprint_per_entry(bool monitor_enabled, std::uint64_t keys) {
  native::Domain dom(16);
  Table::Options o = small_options();
  o.lock_options.monitor_enabled = monitor_enabled;
  Table t(dom, o);
  native::Context ctx(dom);
  for (Table::Key k = 0; k < keys; ++k) t.inflate(ctx, k);
  EXPECT_EQ(t.entries_allocated(), keys);
  return (t.footprint_bytes() - std::uint64_t{16} * t.capacity()) /
         t.entries_allocated();
}

TEST(LockTableLayout, UnmonitoredEntryCostsAtMostOneKiB) {
  // The monitor is off: its counter block is never allocated, and the
  // entry is the lock plus the pin/mode bookkeeping.
  const std::uint64_t per_entry = footprint_per_entry(false, 3);
  EXPECT_GE(per_entry, sizeof(ConfigurableLock<NativePlatform>));
  EXPECT_LE(per_entry, 1024u);
}

TEST(LockTableLayout, MonitoredEntryCountsItsCounterBlock) {
  // Each monitored entry owns one heap block beside the entry itself.
  EXPECT_EQ(footprint_per_entry(true, 3),
            footprint_per_entry(false, 3) + LockMonitor::block_bytes());
}

TEST(LockTableInline, AcquireReleaseTryTimeoutSemantics) {
  native::Domain dom(16);
  Table t(dom, small_options());
  native::Context ctx(dom);
  const Table::Key k = 42;

  EXPECT_TRUE(t.lock(ctx, k));
  EXPECT_FALSE(t.inflated(ctx, k));  // uncontended stays inline
  // The inline word tracks no owner and no recursion: a second attempt
  // from anyone - including the holder - is simply "held".
  EXPECT_FALSE(t.try_lock(ctx, k));
  EXPECT_FALSE(t.inflated(ctx, k));  // try against inline never inflates
  t.unlock(ctx, k);

  EXPECT_TRUE(t.try_lock(ctx, k));
  // A timed acquire against a held key inflates, waits, expires.
  EXPECT_FALSE(t.lock_for(ctx, k, 2'000'000));
  t.unlock(ctx, k);
  EXPECT_TRUE(t.lock(ctx, k));
  t.unlock(ctx, k);
}

TEST(LockTableInline, DistinctKeysAreIndependent) {
  native::Domain dom(16);
  Table t(dom, small_options());
  native::Context ctx(dom);
  for (std::uint64_t k = 100; k < 132; ++k) EXPECT_TRUE(t.lock(ctx, k));
  EXPECT_EQ(t.size(), 32u);
  for (std::uint64_t k = 100; k < 132; ++k) EXPECT_FALSE(t.try_lock(ctx, k));
  for (std::uint64_t k = 100; k < 132; ++k) t.unlock(ctx, k);
  for (std::uint64_t k = 100; k < 132; ++k) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

TEST(LockTableInline, MisuseThrowsInAllBuildTypes) {
  native::Domain dom(16);
  Table t(dom, small_options());
  native::Context ctx(dom);
  EXPECT_THROW(t.unlock(ctx, 7), LockUsageError);  // never locked
  EXPECT_TRUE(t.lock(ctx, 7));
  t.unlock(ctx, 7);
  EXPECT_THROW(t.unlock(ctx, 7), LockUsageError);  // not held
  EXPECT_THROW(t.lock_shared(ctx, 7), LockUsageError);     // not rw-capable
  EXPECT_THROW(t.try_lock_shared(ctx, 7), LockUsageError);
  EXPECT_THROW((void)t.lock(ctx, ~std::uint64_t{0}), LockUsageError);
}

TEST(LockTableInline, FullPartitionThrowsLengthError) {
  native::Domain dom(16);
  Table t(dom, small_options(4, 1));
  native::Context ctx(dom);
  std::uint64_t inserted = 0, k = 0;
  try {
    for (; k < 64; ++k) {
      EXPECT_TRUE(t.lock(ctx, k));
      ++inserted;
    }
    FAIL() << "a 4-slot table accepted 64 keys";
  } catch (const std::length_error&) {
    EXPECT_EQ(inserted, 4u);
  }
  for (std::uint64_t i = 0; i < inserted; ++i) t.unlock(ctx, i);
}

TEST(LockTableLifecycle, ContentionInflatesIdleDeflates) {
  native::Domain dom(16);
  Table t(dom, small_options());
  const Table::Key k = 9;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};

  std::thread holder([&] {
    native::Context ctx(dom);
    ASSERT_TRUE(t.lock(ctx, k));
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    t.unlock(ctx, k);
  });
  while (!held.load()) std::this_thread::yield();

  std::thread contender([&] {
    native::Context ctx(dom);
    ASSERT_TRUE(t.lock(ctx, k));  // arrives second: forces inflation
    t.unlock(ctx, k);
  });
  {
    // The contender inflates before waiting; observe it from outside.
    native::Context ctx(dom);
    while (!t.inflated(ctx, k)) std::this_thread::yield();
  }
  release.store(true);
  holder.join();
  contender.join();

  // Idle again: the last delegated release deflated all the way back.
  EXPECT_EQ(t.quiescent_word(k), kSlotFree);
  EXPECT_EQ(t.inflated_count(), 0u);
  EXPECT_GE(t.entries_allocated(), 1u);  // pooled, not freed

  // The pooled entry is reused by the next inflation cycle.
  const std::uint64_t allocated = t.entries_allocated();
  {
    native::Context ctx(dom);
    t.inflate(ctx, k);
    EXPECT_TRUE(t.lock(ctx, k));
    t.unlock(ctx, k);
  }
  EXPECT_EQ(t.entries_allocated(), allocated);
  EXPECT_EQ(t.quiescent_word(k), kSlotFree);
}

TEST(LockTableLifecycle, ConfigureWhileInlineForcesStickyInflation) {
  native::Domain dom(16);
  Table t(dom, small_options());
  native::Context ctx(dom);
  const Table::Key k = 13;

  EXPECT_TRUE(t.lock(ctx, k));  // inline hold
  t.configure_waiting(ctx, k, LockAttributes::backoff_spin(8));
  EXPECT_TRUE(t.inflated(ctx, k));  // configuration cannot live inline
  // The pre-configuration inline hold is still the exclusive hold.
  EXPECT_FALSE(t.try_lock(ctx, k));
  t.unlock(ctx, k);

  // Sticky: cycles come and go, the configured entry never deflates.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(t.lock(ctx, k));
    t.unlock(ctx, k);
  }
  EXPECT_TRUE(t.inflated(ctx, k));
  EXPECT_EQ(t.inflated_count(), 1u);
  EXPECT_NE(t.quiescent_word(k), kSlotFree);
}

Table::Options rw_options(std::uint32_t capacity = 1024,
                          std::uint32_t partitions = 8) {
  Table::Options o = small_options(capacity, partitions);
  o.lock_options.scheduler = SchedulerKind::kReaderWriter;
  return o;
}

TEST(LockTableRw, SharedAcquisitionDelegatesAndCoexists) {
  native::Domain rwdom(16);
  Table t(rwdom, rw_options());
  ASSERT_TRUE(t.rw_capable());
  native::Context r1(rwdom), r2(rwdom);
  const Table::Key k = 3;

  // Uncontended readers share the inline word as a reader count.
  EXPECT_TRUE(t.lock_shared(r1, k));
  EXPECT_FALSE(t.inflated(r1, k));
  EXPECT_EQ(t.quiescent_word(k), kSlotReader);
  EXPECT_TRUE(t.try_lock_shared(r2, k));  // readers coexist
  EXPECT_EQ(t.quiescent_word(k), 2 * kSlotReader);
  EXPECT_FALSE(t.try_lock(r2, k));        // writer excluded
  t.unlock_shared(r2, k);
  EXPECT_THROW(t.unlock(r1, k), LockUsageError);  // wrong-mode release
  t.unlock_shared(r1, k);
  EXPECT_EQ(t.quiescent_word(k), kSlotFree);
  EXPECT_EQ(t.entries_allocated(), 0u);  // the inline cycle never inflated

  // On an inflated slot shared acquisition delegates to the full RW lock,
  // where readers coexist the same way.
  t.inflate(r1, k);
  EXPECT_TRUE(t.lock_shared(r1, k));
  EXPECT_TRUE(t.inflated(r1, k));
  EXPECT_TRUE(t.try_lock_shared(r2, k));
  EXPECT_FALSE(t.try_lock(r2, k));
  t.unlock_shared(r2, k);
  EXPECT_THROW(t.unlock(r1, k), LockUsageError);
  t.unlock_shared(r1, k);

  // Writers drain readers; last release deflates like the exclusive path.
  EXPECT_EQ(t.quiescent_word(k), kSlotFree);
  EXPECT_TRUE(t.lock(r1, k));
  EXPECT_FALSE(t.try_lock_shared(r2, k));
  t.unlock(r1, k);
  EXPECT_EQ(t.inflated_count(), 0u);
}

TEST(LockTableRw, PollingNeverInflatesOverConflictingInlineHold) {
  native::Domain dom(16);
  Table t(dom, rw_options());
  native::Context ctx(dom);
  const Table::Key k = 21;

  EXPECT_TRUE(t.lock(ctx, k));
  EXPECT_FALSE(t.try_lock_shared(ctx, k));
  EXPECT_EQ(t.quiescent_word(k), kSlotHeld);
  t.unlock(ctx, k);

  EXPECT_TRUE(t.lock_shared(ctx, k));
  EXPECT_FALSE(t.try_lock(ctx, k));
  EXPECT_EQ(t.quiescent_word(k), kSlotReader);
  t.unlock_shared(ctx, k);

  EXPECT_EQ(t.entries_allocated(), 0u);
  EXPECT_EQ(t.quiescent_word(k), kSlotFree);
}

TEST(LockTableRw, WriterInflatesOverInlineReadersAndWaitsThemOut) {
  native::Domain dom(16);
  Table t(dom, rw_options());
  native::Context r1(dom), r2(dom);
  const Table::Key k = 17;
  ASSERT_TRUE(t.lock_shared(r1, k));
  ASSERT_TRUE(t.lock_shared(r2, k));

  std::atomic<bool> entered{false};
  std::thread writer([&] {
    native::Context ctx(dom);
    ASSERT_TRUE(t.lock(ctx, k));
    entered.store(true);
    t.unlock(ctx, k);
  });
  // The writer inflates over the reader count and waits behind kSlotHeld.
  while ((t.quiescent_word(k) & kSlotInflated) == 0) std::this_thread::yield();
  EXPECT_NE(t.quiescent_word(k) & kSlotHeld, 0u);
  t.unlock_shared(r1, k);
  for (int i = 0; i < 100; ++i) std::this_thread::yield();
  EXPECT_FALSE(entered.load()) << "writer entered beside an inline reader";
  EXPECT_NE(t.quiescent_word(k) & kSlotHeld, 0u);
  t.unlock_shared(r2, k);  // last inline reader drops the bit
  writer.join();
  EXPECT_TRUE(entered.load());

  EXPECT_EQ(t.quiescent_word(k), kSlotFree);
  EXPECT_EQ(t.inflated_count(), 0u);
  EXPECT_EQ(t.entries_allocated(), 1u);
}

TEST(LockTableRw, ConfigureOverInlineReadersStaysSticky) {
  native::Domain dom(16);
  Table t(dom, rw_options());
  native::Context ctx(dom);
  const Table::Key k = 19;
  ASSERT_TRUE(t.lock_shared(ctx, k));
  ASSERT_TRUE(t.lock_shared(ctx, k));
  t.configure_waiting(ctx, k, LockAttributes::backoff_spin(8));
  EXPECT_TRUE(t.inflated(ctx, k));
  EXPECT_NE(t.quiescent_word(k) & kSlotHeld, 0u);  // readers carried over
  EXPECT_FALSE(t.try_lock(ctx, k));
  t.unlock_shared(ctx, k);
  t.unlock_shared(ctx, k);
  EXPECT_EQ(t.quiescent_word(k) & kSlotHeld, 0u);

  // Sticky: the last inline reader's deflation attempt keeps the entry.
  EXPECT_TRUE(t.inflated(ctx, k));
  EXPECT_TRUE(t.lock(ctx, k));
  t.unlock(ctx, k);
  EXPECT_TRUE(t.lock_shared(ctx, k));
  t.unlock_shared(ctx, k);
  EXPECT_EQ(t.inflated_count(), 1u);
}

// Multi-thread hammer: every key carries an ownership oracle (an atomic
// the exclusive holder increments on entry and decrements on exit; any
// overlap trips the EXPECT inside the critical section).
TEST(LockTableStress, HammerExclusiveOwnershipOracle) {
  native::Domain dom(32);
  Table t(dom, small_options(256, 4));
  constexpr int kThreads = 4;
  constexpr int kKeys = 16;
  constexpr int kIters = 4000;
  std::atomic<int> owners[kKeys] = {};
  std::atomic<std::uint64_t> acquired{0};

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      testing::SplitMix64 rng(testing::stress_seed() ^
                              (0x1234u + static_cast<unsigned>(ti)));
      std::uint64_t got = 0;
      for (int i = 0; i < kIters; ++i) {
        const auto k = static_cast<Table::Key>(rng.below(kKeys));
        const std::uint64_t die = rng.below(3);
        bool own = false;
        if (die == 0) {
          own = t.try_lock(ctx, k);
        } else {
          own = t.lock(ctx, k);
        }
        if (!own) continue;
        const int inside = owners[k].fetch_add(1, std::memory_order_acq_rel);
        EXPECT_EQ(inside, 0) << "two exclusive holders on key " << k;
        ++got;
        owners[k].fetch_sub(1, std::memory_order_acq_rel);
        t.unlock(ctx, k);
      }
      acquired.fetch_add(got, std::memory_order_relaxed);
    });
  }
  for (auto& th : team) th.join();

  EXPECT_GT(acquired.load(), 0u);
  // Quiescence: every slot fully deflated (no timeouts in this mix, so
  // the last releaser of each key always runs the deflation protocol).
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.quiescent_word(static_cast<Table::Key>(k)), kSlotFree);
  }
  EXPECT_EQ(t.inflated_count(), 0u);
}

// Same oracle with timed acquisitions in the mix: expired waiters back
// out through the delegated-abandon path. That path may leave an entry
// attached with no users (deflated lazily by the next cycle), so the
// end-state oracle checks ownership and held-bits, not full deflation.
TEST(LockTableStress, HammerWithTimeoutsBacksOutCleanly) {
  native::Domain dom(32);
  Table t(dom, small_options(256, 4));
  constexpr int kThreads = 4;
  constexpr int kKeys = 8;
  constexpr int kIters = 2000;
  std::atomic<int> owners[kKeys] = {};

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      testing::SplitMix64 rng(testing::stress_seed() ^
                              (0x9999u + static_cast<unsigned>(ti)));
      for (int i = 0; i < kIters; ++i) {
        const auto k = static_cast<Table::Key>(rng.below(kKeys));
        const bool timed = rng.below(2) == 0;
        const bool own = timed ? t.lock_for(ctx, k, 50'000)  // 50 us
                               : t.lock(ctx, k);
        if (!own) continue;
        const int inside = owners[k].fetch_add(1, std::memory_order_acq_rel);
        EXPECT_EQ(inside, 0) << "two exclusive holders on key " << k;
        owners[k].fetch_sub(1, std::memory_order_acq_rel);
        t.unlock(ctx, k);
      }
    });
  }
  for (auto& th : team) th.join();

  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t w = t.quiescent_word(static_cast<Table::Key>(k));
    EXPECT_EQ(w & kSlotHeld, 0u) << "key " << k << " still marked held";
    EXPECT_NE(w, kSlotDeflating) << "key " << k << " stuck deflating";
    EXPECT_EQ(owners[k].load(), 0);
  }
}

// Readers only: every acquisition shares the inline word, so no thread
// ever meets a conflicting holder and no Entry is ever allocated.
TEST(LockTableStress, HammerReadersOnlyNeverInflates) {
  native::Domain dom(32);
  Table t(dom, rw_options(256, 4));
  constexpr int kThreads = 4;
  constexpr int kKeys = 4;
  constexpr int kIters = 5000;

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      testing::SplitMix64 rng(testing::stress_seed() ^
                              (0x5151u + static_cast<unsigned>(ti)));
      for (int i = 0; i < kIters; ++i) {
        const auto k = static_cast<Table::Key>(rng.below(kKeys));
        const std::uint64_t how = rng.below(3);
        const bool own = how == 0   ? t.try_lock_shared(ctx, k)
                         : how == 1 ? t.lock_shared_for(ctx, k, 50'000)
                                    : t.lock_shared(ctx, k);
        EXPECT_TRUE(own) << "a reader was refused with no writer around";
        if (own) t.unlock_shared(ctx, k);
      }
    });
  }
  for (auto& th : team) th.join();

  EXPECT_EQ(t.entries_allocated(), 0u);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.quiescent_word(static_cast<Table::Key>(k)), kSlotFree);
  }
}

// Mixed readers and writers with an overlap oracle per key: a reader adds
// 1, a writer adds kWriter, and each checks the state it entered. Every
// release path runs the deflation protocol (no timeouts), so the table
// must end fully deflated.
TEST(LockTableStress, HammerMixedRwOverlapOracle) {
  native::Domain dom(32);
  Table t(dom, rw_options(256, 4));
  constexpr int kThreads = 4;
  constexpr int kKeys = 8;
  constexpr int kIters = 4000;
  constexpr int kWriter = 1 << 16;
  std::atomic<int> state[kKeys] = {};
  std::atomic<std::uint64_t> reads{0}, writes{0};

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      testing::SplitMix64 rng(testing::stress_seed() ^
                              (0x7a7au + static_cast<unsigned>(ti)));
      for (int i = 0; i < kIters; ++i) {
        const auto k = static_cast<Table::Key>(rng.below(kKeys));
        const bool shared = rng.below(4) != 0;  // 75% reads
        const bool poll = rng.below(4) == 0;
        bool own;
        if (shared) {
          own = poll ? t.try_lock_shared(ctx, k) : t.lock_shared(ctx, k);
        } else {
          own = poll ? t.try_lock(ctx, k) : t.lock(ctx, k);
        }
        if (!own) continue;
        const int add = shared ? 1 : kWriter;
        const int before = state[k].fetch_add(add, std::memory_order_acq_rel);
        if (shared) {
          EXPECT_LT(before, kWriter) << "reader beside a writer on key " << k;
          reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(before, 0) << "writer beside holders on key " << k;
          writes.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();  // widen the hold
        state[k].fetch_sub(add, std::memory_order_acq_rel);
        if (shared) {
          t.unlock_shared(ctx, k);
        } else {
          t.unlock(ctx, k);
        }
      }
    });
  }
  for (auto& th : team) th.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(writes.load(), 0u);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.quiescent_word(static_cast<Table::Key>(k)), kSlotFree);
  }
  EXPECT_EQ(t.inflated_count(), 0u);
}

}  // namespace
}  // namespace relock::table
